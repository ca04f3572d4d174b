"""JSON schema validation and object loading."""

import copy
import math
import random

import pytest

from ordrel import ConfigError, Exponential, GridSpec, Lomax
from ordrel.harness import THEOREMS
from conftest import BAD_SCALAR_FIELDS, T6_UNKNOWN_GRID
from ordrel.serialize import (
    _LOADERS,
    _RULES,
    _TYPES,
    _check,
    _schema,
    load_case,
    load_dist,
    load_dist_or_system,
    load_generator,
    load_grid,
    load_scan_config,
    load_system,
    read_json_file,
)


class TestDistLoading:
    def test_valid(self):
        d = load_dist({"family": "exponential", "params": {"rate": 2.0}})
        assert d == Exponential(2.0)

    def test_lomax_default_scale(self):
        d = load_dist({"family": "lomax", "params": {"shape": 2.0}})
        assert d == Lomax(2.0, 1.0)

    def test_nested_reflection(self):
        d = load_dist({"family": "reflected_dfr",
                       "params": {"inner": {"family": "lomax",
                                            "params": {"shape": 1.5}}}})
        assert d.inner == Lomax(1.5, 1.0)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            load_dist({"family": "gamma", "params": {"shape": 1.0}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            load_dist({"family": "exponential", "params": {"rate": 1.0},
                       "extra": True})

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ConfigError):
            load_dist({"family": "exponential", "params": {"rate": -1.0}})

    def test_nan_parameter_rejected(self):
        with pytest.raises(ConfigError, match="at params/rate:"):
            load_dist({"family": "exponential", "params": {"rate": math.nan}})


class TestSystemLoading:
    def test_valid(self):
        s = load_system({"kind": "series_phr", "components": [
            {"baseline": {"family": "exponential", "params": {"rate": 1.0}},
             "prop": 2.0}]})
        assert s.kind == "series_phr" and s.props == (2.0,)

    def test_autodetect(self):
        d = load_dist_or_system({"family": "exponential", "params": {"rate": 1.0}})
        assert d == Exponential(1.0)
        o = load_dist_or_system({"kind": "series_phr", "components": [
            {"baseline": {"family": "exponential", "params": {"rate": 1.0}},
             "prop": 1.0}]})
        assert o.sf(1.0) == pytest.approx(Exponential(1.0).sf(1.0))

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            load_system({"kind": "bridge", "components": []})


class TestGeneratorLoading:
    def test_independence_needs_no_theta(self):
        g = load_generator({"family": "independence"})
        assert g.family == "independence"

    def test_clayton_requires_theta(self):
        with pytest.raises(ConfigError):
            load_generator({"family": "clayton"})

    def test_dim(self):
        g = load_generator({"family": "frank", "theta": 2.0, "dim": 3})
        assert g.dim == 3


class TestGridLoading:
    def test_defaults(self):
        g = load_grid({})
        assert g == GridSpec()

    def test_u_grid(self):
        g = load_grid({"kind": "u", "eps": 0.01, "n": 64})
        assert g.kind == "u" and g.n == 64

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            load_grid({"n": 10})

    @pytest.mark.parametrize("n", [64.0, True])
    def test_integer_field_takes_only_integers(self, n):
        with pytest.raises(ConfigError, match="at n:"):
            load_grid({"n": n})


class TestCaseLoading:
    def test_t6(self):
        case = load_case({"id": "T6", "scenario": {
            "theta": 1.0, "alphas": [1.0, 2.0], "alphas_star": [0.5, 2.0]}})
        assert case.id == "T6"

    def test_unknown_scenario_field(self):
        with pytest.raises(ConfigError):
            load_case({"id": "T6", "scenario": {
                "theta": 1.0, "alphas": [1.0], "alphas_star": [1.0],
                "gamma": 2.0}})

    def test_missing_scenario_field(self):
        with pytest.raises(ConfigError):
            load_case({"id": "T6", "scenario": {"theta": 1.0}})

    def test_examples_take_defaults(self):
        case = load_case({"id": "Ex1", "scenario": {}})
        assert case.scenario == {}

    def test_nested_objects_are_constructed(self):
        case = load_case({"id": "T7", "scenario": {
            "generator_x": {"family": "clayton", "theta": 2.0},
            "generator_y": {"family": "clayton", "theta": 1.0},
            "baseline_x": {"family": "exponential", "params": {"rate": 1.0}},
            "baseline_y": {"family": "exponential", "params": {"rate": 1.5}},
            "shifts_x": [0.2, 0.5],
            "shifts_y": [0.5, 0.8]}})
        assert case.scenario["generator_x"].theta == 2.0
        assert case.scenario["baseline_y"] == Exponential(1.5)

    def test_bad_id(self):
        with pytest.raises(ConfigError):
            load_case({"id": "T99", "scenario": {}})

    @pytest.mark.parametrize("field,obj", list(BAD_SCALAR_FIELDS.items()))
    def test_bad_scalar_field_rejected(self, field, obj):
        with pytest.raises(ConfigError, match=f"{obj['id']} scenario field '{field}'"):
            load_case(obj)

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys: \\['rh_grid'\\]"):
            load_case(T6_UNKNOWN_GRID)

    def test_declared_grid_key_is_used(self):
        case = load_case({**T6_UNKNOWN_GRID, "grids": {"rh": {"n": 64}}})
        assert case.grids == {"rh": GridSpec(n=64)}

    @pytest.mark.parametrize("loader,def_name,obj", [
        (load_case, "theorem_case", {"id": "T99", "scenario": {}}),
        (load_scan_config, "scan_config", {"id": "Ex1", "budget": 5}),
    ], ids=["unknown", "unscannable"])
    def test_id_rejected_at_id(self, loader, def_name, obj):
        with pytest.raises(ConfigError, match=f"invalid {def_name} at id: '{obj['id']}' "
                                              "is not one of \\['T1', "):
            loader(obj)

    def test_registry_fields_name_defs_with_loaders(self):
        for theorem in THEOREMS.values():
            assert set(theorem.optional) <= set(theorem.fields)
            assert set(theorem.fields.values()) <= set(_LOADERS)
        assert set(_LOADERS) <= set(_schema()["$defs"])


class TestScanConfig:
    def test_defaults(self):
        cfg = load_scan_config({"id": "T1", "budget": 10})
        assert cfg == {"theorem_id": "T1", "budget": 10, "strategy": "random",
                       "seed": 0, "grid_n": 96, "box": None}

    def test_box(self):
        cfg = load_scan_config({"id": "T1", "budget": 5,
                                "box": {"f_shape": [1.0, 2.0]}})
        assert cfg["box"] == {"f_shape": (1.0, 2.0)}

    def test_float_budget_rejected(self):
        with pytest.raises(ConfigError, match="at budget:"):
            load_scan_config({"id": "T1", "budget": 3.0})

    def test_example_ids_not_scannable(self):
        with pytest.raises(ConfigError):
            load_scan_config({"id": "Ex1", "budget": 5})


class TestFiles:
    def test_read_json_file(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"family": "exponential", "params": {"rate": 1.0}}')
        assert read_json_file(p)["family"] == "exponential"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_json_file(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            read_json_file(p)


def _subschemas(schema):
    """Every schema position in `schema`, following the keywords that nest."""
    yield schema
    for key, arg in schema.items():
        if key in ("$defs", "properties"):
            subs = arg.values()
        elif key == "oneOf":
            subs = arg
        elif key in ("items", "additionalProperties") and isinstance(arg, dict):
            subs = [arg]
        else:
            continue
        for sub in subs:
            yield from _subschemas(sub)


# One valid document per $defs entry; the fuzz below mutates these.
SEEDS = {
    "positive": 1.5,
    "positive_array": [0.5, 2.0],
    "number_array": [-0.5, 1.5],
    "branch": "log_concave",
    "dist": {"family": "reflected_dfr", "params": {
        "inner": {"family": "lomax", "params": {"shape": 1.5, "scale": 2.0}}}},
    "system": {"kind": "parallel_prhr", "split": 1, "components": [
        {"baseline": {"family": "weibull", "params": {"shape": 1.5, "rate": 2.0}},
         "prop": 0.5}]},
    "generator": {"family": "frank", "theta": -2.0, "dim": 3},
    "grid": {"kind": "u", "lo": None, "hi": 2.0, "eps": 0.01, "n": 64,
             "tau_mono": 1e-9, "tau_pt": 1e-9},
    "outlier_block": {"p": 2, "q": 0, "a1": 1.0, "a2": 2.0},
    "theorem_case": {"id": "T7", "scenario": {"theta": 1.0}, "n": 64,
                     "grids": {"x": {"kind": "x", "n": 128}}},
    "scan_config": {"id": "T1", "budget": 5, "strategy": "grid", "seed": 3,
                    "grid_n": 64, "box": {"a1": [0.5, 1.0]}},
}

VALUES = [
    None, True, False, 0, 1, 2, -1, 63, 64, 0.0, 0.5, -0.5, 0.49, 1.5, 2.0, 64.0,
    math.nan, math.inf, -math.inf, "", "x", "u", "exponential", "weibull", "lomax",
    "pareto1", "reflected_dfr", "series_phr", "clayton", "independence", "T1",
    "Ex1", "grid", "log_convex", "log_concave",
    [], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], ["a", "b"], {},
    {"rate": 1.0}, {"shape": 2.0}, {"inner": {"family": "pareto1", "params": {"shape": 1.0}}},
    {"family": "exponential", "params": {"rate": 1.0}},
]


def _containers(doc):
    if isinstance(doc, (dict, list)):
        yield doc
        for child in (doc.values() if isinstance(doc, dict) else doc):
            yield from _containers(child)


def _value(rng, like):
    """A value from VALUES; half the time one of the same type as `like`."""
    same = [v for v in VALUES if type(v) is type(like)]
    return copy.deepcopy(rng.choice(same if same and rng.random() < 0.5 else VALUES))


def _mutate(doc, rng, keys):
    """`doc` after one seeded edit: replace a value, delete or add a key, or
    append an item."""
    containers = list(_containers(doc))
    if not containers or rng.random() < 0.05:
        return _value(rng, doc)
    node = rng.choice(containers)
    op = rng.choice(("replace", "delete", "add", "append"))
    if isinstance(node, list):
        if op == "replace" and node:
            i = rng.randrange(len(node))
            node[i] = _value(rng, node[i])
        else:
            node.append(copy.deepcopy(rng.choice(node)) if node else _value(rng, None))
    elif op == "replace" and node:
        k = rng.choice(list(node))
        node[k] = _value(rng, node[k])
    elif op == "delete" and node:
        del node[rng.choice(list(node))]
    else:
        node[rng.choice(keys)] = _value(rng, None)
    return doc


def _deliberate_difference(doc, err) -> bool:
    """The checker rejects NaN at a bound and integral floats as integers,
    where Draft 2020-12 accepts both."""
    path, reason = err
    for step in path:
        doc = doc[step]
    return (isinstance(doc, float) and
            (math.isnan(doc) or (doc.is_integer() and "'integer'" in reason)))


class TestSchemaChecker:
    def test_schema_uses_only_implemented_keywords(self):
        root = _schema()
        assert set(root) <= {"$schema", "$id", "title", "$defs"}
        for sub in _subschemas(root):
            if sub is root:
                continue
            assert set(sub) <= set(_RULES), sorted(set(sub) - set(_RULES))
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= set(_TYPES)
            if "$ref" in sub:
                name = sub["$ref"].removeprefix("#/$defs/")
                assert sub["$ref"] == f"#/$defs/{name}" and name in root["$defs"]
            assert isinstance(sub.get("additionalProperties", True), (bool, dict))

    def test_every_def_has_a_seed(self):
        assert set(SEEDS) == set(_schema()["$defs"])

    @pytest.mark.parametrize("def_name", sorted(SEEDS))
    def test_agrees_with_jsonschema(self, def_name):
        jsonschema = pytest.importorskip("jsonschema")
        defs = _schema()["$defs"]
        reference = jsonschema.Draft202012Validator(
            {"$ref": f"#/$defs/{def_name}", "$defs": defs})
        keys = sorted({k for sub in _subschemas(_schema()) for k in sub.get("properties", {})})
        keys.append("extra")
        assert _check(SEEDS[def_name], defs[def_name], ()) is None
        assert reference.is_valid(SEEDS[def_name])
        rng = random.Random(f"ordrel-{def_name}")
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            doc = copy.deepcopy(SEEDS[def_name])
            for _ in range(rng.randint(1, 2)):
                doc = _mutate(doc, rng, keys)
            err = _check(doc, defs[def_name], ())
            if (err is None) != reference.is_valid(doc):
                assert err is not None and _deliberate_difference(doc, err), (doc, err)
            verdicts[err is None] += 1
        assert min(verdicts[True], verdicts[False]) >= 30, verdicts  # both sides exercised
