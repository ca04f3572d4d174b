"""JSON schema validation and object loading."""

import copy
import dataclasses
import importlib
import json
import math
import random

import pytest

from ordrel import (ConfigError, Clayton, Exponential, Frank, GridSpec, Independence,
                    Lomax, OrdrelError, ParameterDomainError, ParetoI, ReflectedDFR, SystemSpec,
                    Weibull, scan)
from ordrel.copulas import _GEN_FAMILIES, generator_from_json
from ordrel.distributions import _FAMILIES, dist_from_json
from ordrel.harness import THEOREMS, run_case
from conftest import (BAD_LENGTH_FIELDS, BAD_LENGTH_MESSAGES, BAD_SCALAR_FIELDS, DROPPED_RULES,
                      T6_UNKNOWN_GRID, T6_WRONG_GRID_KIND, T7_NEGATIVE_FRANK_DIM_3)
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
        # the family table, not the schema, knows the families
        with pytest.raises(ParameterDomainError) as info:
            load_dist({"family": "gamma", "params": {"shape": 1.0}})
        assert str(info.value) == ("bad distribution spec {'family': 'gamma', "
                                   "'params': {'shape': 1.0}}: unknown family 'gamma'")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            load_dist({"family": "exponential", "params": {"rate": 1.0},
                       "extra": True})

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ParameterDomainError) as info:
            load_dist({"family": "exponential", "params": {"rate": -1.0}})
        assert str(info.value) == "rate must be strictly positive, got -1.0"

    def test_nan_parameter_rejected(self):
        with pytest.raises(ParameterDomainError) as info:
            load_dist({"family": "exponential", "params": {"rate": math.nan}})
        assert str(info.value) == "rate must be strictly positive, got nan"


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
        # the schema types kind as a string; the class knows the kinds
        with pytest.raises(ParameterDomainError) as info:
            load_system({"kind": "bridge", "components": []})
        assert str(info.value) == "unknown system kind 'bridge'"


class TestGeneratorLoading:
    def test_independence_needs_no_theta(self):
        g = load_generator({"family": "independence"})
        assert g.family == "independence"

    def test_clayton_requires_theta(self):
        with pytest.raises(ParameterDomainError) as info:
            load_generator({"family": "clayton"})
        assert str(info.value) == ("bad generator spec {'family': 'clayton'}: Clayton.__init__() "
                                   "missing 1 required positional argument: 'theta'")

    def test_dim(self):
        g = load_generator({"family": "frank", "theta": 2.0, "dim": 3})
        assert g.dim == 3

    # the constructor states which family takes theta; the loader adds no rule
    @pytest.mark.parametrize("spec,cause", [
        ({"family": "frank"}, "Frank.__init__() missing 1 required positional argument: 'theta'"),
        ({"family": "independence", "theta": -1.0},
         "Independence.__init__() got an unexpected keyword argument 'theta'"),
        ({"family": "independence", "theta": 2.0, "dim": 3},
         "Independence.__init__() got an unexpected keyword argument 'theta'"),
    ], ids=["frank-without-theta", "independence-with-theta",
            "independence-with-theta-and-dim"])
    def test_theta_rule_is_a_config_error(self, spec, cause):
        with pytest.raises(ParameterDomainError) as info:
            load_generator(spec)
        assert str(info.value) == f"bad generator spec {spec!r}: {cause}"


# Every family and generator with the JSON it writes, key order included;
# integer params stay integers.
TO_JSON = [
    (Exponential(2.0), '{"family": "exponential", "params": {"rate": 2.0}}'),
    (Exponential(3), '{"family": "exponential", "params": {"rate": 3}}'),
    (Weibull(0.7, 2), '{"family": "weibull", "params": {"shape": 0.7, "rate": 2}}'),
    (Lomax(1.5), '{"family": "lomax", "params": {"shape": 1.5, "scale": 1.0}}'),
    (Lomax(2, 3.5), '{"family": "lomax", "params": {"shape": 2, "scale": 3.5}}'),
    (ParetoI(2), '{"family": "pareto1", "params": {"shape": 2}}'),
    (ReflectedDFR(Lomax(0.8, 2)),
     '{"family": "reflected_dfr", "params": {"inner": '
     '{"family": "lomax", "params": {"shape": 0.8, "scale": 2}}}}'),
    (ReflectedDFR(Weibull(0.5, 1)),
     '{"family": "reflected_dfr", "params": {"inner": '
     '{"family": "weibull", "params": {"shape": 0.5, "rate": 1}}}}'),
    (Independence(), '{"family": "independence", "dim": 2}'),
    (Independence(dim=3), '{"family": "independence", "dim": 3}'),
    (Clayton(2.0), '{"family": "clayton", "theta": 2.0, "dim": 2}'),
    (Clayton(1.5, dim=3), '{"family": "clayton", "theta": 1.5, "dim": 3}'),
    (Frank(-2.0), '{"family": "frank", "theta": -2.0, "dim": 2}'),
    (Frank(3, dim=4), '{"family": "frank", "theta": 3, "dim": 4}'),
]


@pytest.mark.parametrize("obj,text", TO_JSON, ids=[repr(o) for o, _ in TO_JSON])
def test_to_json_is_pinned_and_round_trips(obj, text):
    assert json.dumps(obj.to_json()) == text
    from_json = dist_from_json if "params" in obj.to_json() else generator_from_json
    assert from_json(json.loads(text)) == obj


MALFORMED = [
    (dist_from_json, {"family": "exponential", "params": {}}),
    (dist_from_json, {"family": "reflected_dfr",
                      "params": {"inner": {"family": "lomax", "params": {}}}}),
    (dist_from_json, {"family": "reflected_dfr", "params": {"inner": 5}}),
    (dist_from_json, {"family": "exponential", "params": {"rate": 1.0, "scale": 2.0}}),
    (dist_from_json, {"family": "exponential", "params": [2.0]}),
    (generator_from_json, {"family": "clayton"}),
    (generator_from_json, {"family": "frank", "dim": 3}),
    (generator_from_json, {"family": "independence", "theta": -1.0}),
    (generator_from_json, {"family": "clayton", "theta": 2.0, "scale": 1.0}),
]


@pytest.mark.parametrize("from_json,spec", MALFORMED,
                         ids=["missing-param", "missing-nested-param", "inner-not-a-spec",
                              "extra-param", "params-not-an-object", "clayton-without-theta",
                              "frank-without-theta", "independence-with-theta",
                              "generator-extra-key"])
def test_malformed_spec_is_a_domain_error(from_json, spec):
    with pytest.raises(ParameterDomainError, match="bad (distribution|generator) spec"):
        from_json(spec)


_EXP3 = {"family": "exponential", "params": {"rate": 3}}


@pytest.mark.parametrize("spec,cause", [
    ({"kind": "series_phr", "components": [{"baseline": _EXP3}]}, "missing key 'prop'"),
    ({"components": [{"baseline": _EXP3, "prop": 1.0}]}, "missing key 'kind'"),
    ({"kind": "series_phr", "components": 5}, "'int' object is not iterable"),
], ids=["missing-prop", "missing-kind", "components-not-a-list"])
def test_a_malformed_system_names_its_cause(spec, cause):
    # as dist_from_json and generator_from_json end theirs
    with pytest.raises(ParameterDomainError) as exc:
        SystemSpec.from_json(spec)
    assert str(exc.value) == f"bad system spec {spec!r}: {cause}"


# A value every family takes, by the annotation of its dataclass field.
_VALID = {"float": 1.5, "int": 2, "Distribution": {"family": "lomax", "params": {"shape": 1.5}}}
# Values no field takes (-1 is left out: Frank's theta takes it).
_NO_FIELD_TAKES = [0, math.nan, math.inf, True, "1", None]


def _family_docs():
    """(loader, class, its document's form for given field values, its
    fields' `_VALID` values) for every class of both family tables."""
    out = []
    for table, loader in ((_FAMILIES, load_dist), (_GEN_FAMILIES, load_generator)):
        for family, cls in table.items():
            def form(values, family=family, loader=loader):
                if loader is load_dist:
                    return {"family": family, "params": values}
                return {"family": family, **values}  # a generator's fields are its keys
            valid = {f.name: _VALID[f.type] for f in dataclasses.fields(cls)}
            out.append((loader, cls, form, valid))
    return out


FAMILY_DOCS = _family_docs()


def _family_refusals():
    """(id, loader, document) for each document its loader must refuse, made
    from the dataclass fields of every family, so that a new family is
    covered as it enters its table."""
    out = []
    for loader, cls, form, valid in FAMILY_DOCS:
        family = cls.family
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING:
                out.append((f"{family}-without-{f.name}", loader,
                            form({k: v for k, v in valid.items() if k != f.name})))
            out += [(f"{family}-{f.name}={bad!r}", loader, form({**valid, f.name: bad}))
                    for bad in _NO_FIELD_TAKES]
            if f.type == "Distribution":
                out.append((f"{family}-{f.name}-extra-key", loader,
                            form({**valid, f.name: {**valid[f.name], "extra": 1.0}})))
        if loader is load_dist:
            out.append((f"{family}-extra-param", loader, form({**valid, "extra": 1.0})))
        out.append((f"{family}-extra-key", loader, {**form(valid), "extra": 1.0}))
    return out


FAMILY_REFUSALS = _family_refusals()


@pytest.mark.parametrize("loader,cls,form,valid", FAMILY_DOCS,
                         ids=[cls.family for _, cls, _, _ in FAMILY_DOCS])
def test_every_family_loads_its_table_document(loader, cls, form, valid):
    # each refusal below breaks this one document in one place
    assert type(loader(form(valid))) is cls


@pytest.mark.parametrize("loader,doc", [r[1:] for r in FAMILY_REFUSALS],
                         ids=[r[0] for r in FAMILY_REFUSALS])
def test_a_family_refuses_what_its_class_does_not_take(loader, doc):
    with pytest.raises(OrdrelError):
        loader(doc)


class TestGridLoading:
    def test_defaults(self):
        g = load_grid({})
        assert g == GridSpec()

    def test_u_grid(self):
        g = load_grid({"kind": "u", "eps": 0.01, "n": 64})
        assert g.kind == "u" and g.n == 64

    def test_too_few_points(self):
        with pytest.raises(ParameterDomainError) as info:
            load_grid({"n": 10})
        assert str(info.value) == "grid size n needs at least 64 points, got 10"

    def test_the_count_ceiling(self):
        assert load_grid({"n": 2 ** 20}).n == 2 ** 20
        with pytest.raises(ParameterDomainError) as info:
            load_grid({"n": 2 ** 20 + 1})
        assert str(info.value) == "grid size n needs at most 1048576 points, got 1048577"

    @pytest.mark.parametrize("n", [64.0, True])
    def test_integer_field_takes_only_integers(self, n):
        with pytest.raises(ConfigError, match="at n:"):
            load_grid({"n": n})

    @pytest.mark.parametrize("kind,key,value", [
        ("x", "tau_pt", math.inf), ("u", "tau_mono", math.inf), ("u", "tau_mono", math.nan),
        ("x", "tau_pt", 0.0)])
    def test_tolerance_must_be_finite_and_positive(self, kind, key, value):
        # an infinite tau_pt lets every pointwise violation through, and a NaN
        # tau_mono every monotone one: the order checks would read "holds"
        with pytest.raises(ParameterDomainError, match=f"{key} must be strictly positive"):
            GridSpec(kind=kind, **{key: value})

    @pytest.mark.parametrize("fields,message", [
        ({"kind": "u", "hi": 2.0}, "a u-grid takes no lo or hi, got lo=None, hi=2.0"),
        ({"kind": "u", "lo": 0.0, "n": 64}, "a u-grid takes no lo or hi, got lo=0.0, hi=None"),
        ({"kind": "x", "lo": 0, "hi": 1, "eps": 0.2}, "an x-grid takes no eps, got 0.2"),
    ], ids=["u-hi", "u-lo", "x-eps"])
    def test_another_kinds_field_is_refused(self, fields, message):
        # dropped, it would run as another grid than the one asked for
        for build in (GridSpec, lambda **f: load_grid(f)):
            with pytest.raises(ParameterDomainError) as info:
                build(**fields)
            assert str(info.value) == message

    def test_infinite_tolerance_in_a_file_is_refused(self):
        # JSON's Infinity is of the schema's number type; GridSpec refuses it
        with pytest.raises(ParameterDomainError, match="tau_pt"):
            load_grid(json.loads('{"kind": "x", "n": 64, "tau_pt": Infinity}'))


class TestRealNumbers:
    # a parameter that is no JSON number (a string or a bool) is refused
    # when the object is built, so no object writes JSON its loader refuses
    @pytest.mark.parametrize("build,message", [
        (lambda: Exponential(True), "rate must be a real number, got True"),
        (lambda: Exponential("2.0"), "rate must be a real number, got '2.0'"),
        (lambda: Lomax(2.0, True), "scale must be a real number, got True"),
        (lambda: Weibull("0.7", 1.0), "shape must be a real number, got '0.7'"),
        (lambda: ParetoI(True), "shape must be a real number, got True"),
        (lambda: Clayton(True), "Clayton theta must be a real number, got True"),
        (lambda: Frank(True), "Frank theta must be a real number, got True"),
        (lambda: GridSpec(n=64, tau_pt=True), "tau_pt must be a real number, got True"),
        (lambda: GridSpec(lo="0", hi=1.0), "lo must be a real number, got '0'"),
        (lambda: GridSpec(kind="u", eps="0.1"), "eps must be a real number, got '0.1'"),
    ], ids=["exponential-bool", "exponential-string", "lomax-bool", "weibull-string",
            "pareto-bool", "clayton-bool", "frank-bool", "grid-bool-tau",
            "grid-string-lo", "grid-string-eps"])
    def test_a_parameter_is_a_real_number(self, build, message):
        with pytest.raises(ParameterDomainError) as info:
            build()
        assert str(info.value) == message

    def test_a_positive_int_past_the_float_range_is_refused(self):
        # 10**400 is positive, but it has no float: it used to build, and
        # its sf raised a bare OverflowError
        message = "rate must lie in the float range, got an int of 1329 bits"
        for build in (lambda: Exponential(10 ** 400),
                      lambda: load_dist(json.loads(
                          '{"family": "exponential", "params": {"rate": 1%s}}' % ("0" * 400)))):
            with pytest.raises(ParameterDomainError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("obj,load", [
        (Exponential(3), load_dist), (Lomax(2, 1), load_dist), (Clayton(2), load_generator),
        (Frank(-2), load_generator), (GridSpec(lo=0, hi=5, n=64, tau_pt=1), load_grid),
    ], ids=["exponential", "lomax", "clayton", "frank", "grid"])
    def test_an_int_parameter_is_kept_and_reloads(self, obj, load):
        assert load(json.loads(json.dumps(obj.to_json()))) == obj


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

    @pytest.mark.parametrize("field,obj", list(BAD_LENGTH_FIELDS.items()))
    def test_bad_length_field_rejected(self, field, obj):
        # a length is the sides builder's rule: the case loads, its sides do not
        case = load_case(obj)
        with pytest.raises(ParameterDomainError) as info:
            THEOREMS[case.id].sides(case)
        assert str(info.value) == BAD_LENGTH_MESSAGES[field]

    def test_length_rules_name_the_need(self):
        # run_case reaches the same rule: the sides are built before any row
        for field in ("alphas", "shifts_x"):
            with pytest.raises(ParameterDomainError) as info:
                run_case(load_case(BAD_LENGTH_FIELDS[field]))
            assert str(info.value) == BAD_LENGTH_MESSAGES[field]

    def test_negative_frank_above_dimension_2_is_refused(self):
        # as a Clayton generator with theta <= 0 is
        with pytest.raises(ConfigError, match="generator_x': Frank with theta < 0"):
            load_case(T7_NEGATIVE_FRANK_DIM_3)
        with pytest.raises(ParameterDomainError, match="2-monotone"):
            load_generator(T7_NEGATIVE_FRANK_DIM_3["scenario"]["generator_y"])

    def test_shifts_of_a_higher_dimension_load(self):
        obj = copy.deepcopy(BAD_LENGTH_FIELDS["shifts_x"])
        obj["scenario"]["generator_x"]["dim"] = 3
        assert len(load_case(obj).scenario["shifts_x"]) == 3

    @pytest.mark.parametrize("shapes", [(3, 3.0), (3.0, 3)])
    def test_equal_baselines_compare_by_value(self, shapes):
        # "shape": 3 and "shape": 3.0 name one Pareto baseline
        obj = {"id": "T5", "scenario": {
            f"system_{s}": {"kind": "series_phr", "components": [
                {"baseline": {"family": "pareto1", "params": {"shape": shape}}, "prop": p}
                for p in props]}
            for s, shape, props in (("x", shapes[0], (0.5, 0.5)), ("y", shapes[1], (1.0, 1.5)))}}
        rep = run_case(load_case(obj))
        assert rep.hypothesis_satisfied and rep.conclusion_outcome == "holds"

    def test_a_split_block_of_equal_baselines_loads(self):
        lomax = [{"family": "lomax", "params": {"shape": v, "scale": 1}} for v in (2, 2.0)]
        s = load_system({"kind": "series_phr", "split": 2, "components": [
            {"baseline": b, "prop": 1.0} for b in (*lomax, {"family": "exponential",
                                                           "params": {"rate": 1.0}})]})
        assert s.split == 2
        mixed = load_system({"kind": "series_phr", "components": [
            {"baseline": b, "prop": p} for b, p in zip(lomax, (1.0, 2.0))]})
        assert mixed.same_baseline() == Lomax(2.0, 1.0)

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys: \\['rh_grid'\\]"):
            load_case(T6_UNKNOWN_GRID)

    def test_declared_grid_key_is_used(self):
        case = load_case({**T6_UNKNOWN_GRID, "grids": {"rh": {"n": 64}}})
        assert case.grids == {"rh": GridSpec(n=64)}

    def test_wrong_grid_kind_rejected(self):
        with pytest.raises(ConfigError, match="T6 grid 'rh' needs kind 'x', got 'u'"):
            load_case(T6_WRONG_GRID_KIND)

    T1 = {"id": "T1", "scenario": {
        "system_x": {"kind": "series_phr", "components": [
            {"baseline": {"family": "lomax", "params": {"shape": 1.0, "scale": 1.0}},
             "prop": 1.0}]},
        "system_y": {"kind": "series_phr", "components": [
            {"baseline": {"family": "lomax", "params": {"shape": 2.0, "scale": 1.0}},
             "prop": 1.5}]}}}

    def test_grid_kinds_follow_the_relation(self):
        t1 = self.T1
        case = load_case({**t1, "grids": {"disp": {"kind": "u", "n": 64},
                                          "hr": {"kind": "x", "n": 64}}})
        assert case.grids["disp"].kind == "u"
        with pytest.raises(ConfigError, match="T1 grid 'disp' needs kind 'u', got 'x'"):
            load_case({**t1, "grids": {"disp": {"n": 64}}})

    def test_infinite_grid_tolerance_rejected(self):
        grids = {"disp": {"kind": "u", "n": 64, "tau_mono": math.inf}}
        with pytest.raises(ParameterDomainError, match="tau_mono must be strictly positive"):
            load_case({**self.T1, "grids": grids})

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
        assert cfg == {"theorem_id": "T1", "budget": 10}

    def test_box(self):
        # each range passes through as written; scan() judges it
        cfg = load_scan_config({"id": "T1", "budget": 5,
                                "box": {"f_shape": [1.0, 2.0]}})
        assert cfg["box"] == {"f_shape": [1.0, 2.0]}

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


class TestDroppedSchemaRules:
    """The schema takes each document of a value rule it no longer states;
    the loader's class refuses it, or the theorem's sides builder does
    (before any row), or `scan` does (before any case)."""

    @pytest.mark.parametrize("name", sorted(DROPPED_RULES))
    def test_refused_by_what_reads_the_value(self, name, monkeypatch):
        kind, doc, error, message = DROPPED_RULES[name]
        def_name = {"case": "theorem_case", "scan": "scan_config"}.get(kind, kind)
        assert _check(doc, _schema()["$defs"][def_name], ()) is None
        monkeypatch.setattr(importlib.import_module("ordrel.scan"), "run_case",
                            lambda case: pytest.fail("a case ran"))
        with pytest.raises(error) as info:
            if kind == "system":
                load_system(doc)
            elif kind == "grid":
                load_grid(doc)
            elif kind == "case":
                case = load_case(doc)
                THEOREMS[case.id].sides(case)
            else:
                scan(**load_scan_config(doc))
        assert (type(info.value), str(info.value)) == (error, message)


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
    "number": 1.5,
    "number_array": [-0.5, 1.5],
    "string": "log_concave",
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
                    "box": {"a1": [0.5, 1.0]}},
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
    """The checker rejects integral floats as integers, where Draft 2020-12
    accepts them."""
    path, reason = err
    for step in path:
        doc = doc[step]
    return isinstance(doc, float) and doc.is_integer() and "'integer'" in reason


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

    def test_schema_is_a_valid_draft_2020_12_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator.check_schema(_schema())

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
