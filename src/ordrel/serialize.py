"""JSON loading and validation for all configuration objects.

Everything entering from a file is checked against the bundled JSON Schema
(`schemas/ordrel.schema.json`, unknown fields rejected) before any object
is constructed.  The schema is shape and types only: its objects, their
keys and each value's JSON type.  Every rule on a value (a range, a
choice, a length) is checked once, by the constructor or sides builder
that reads it.  A theorem case gets a second pass here, because its shape
depends on its id: the id must be in the registry (`harness.THEOREMS`),
whose entry names the scenario fields, the `$def` each field is validated
against and loaded by (`_LOADERS`), and the grid keys a case may set with
the kind of grid each must be; every `TheoremCase` obeys them
(`harness.check_case`).

The check is a small recursive interpreter of the keywords the schema
uses (`_RULES`); a test walks the schema file so that it cannot use one the
interpreter lacks.  It is stricter than Draft 2020-12 in one way: an
integer field takes only JSON integers (not `64.0`).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .distributions import Distribution, dist_from_json
from .errors import ConfigError, is_real, scenario_field
from .grids import GridSpec


@lru_cache(maxsize=1)
def _schema() -> dict:
    path = resources.files("ordrel.schemas").joinpath("ordrel.schema.json")
    return json.loads(path.read_text())


_TYPES = {
    "null": lambda v: v is None,
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: type(v) is int,
    "number": is_real,
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _check(v, schema: dict, path: tuple):
    """The first violation of `schema` by `v` as (path, reason), or None."""
    return _first(_RULES[key](v, arg, schema, path) for key, arg in schema.items())


def _first(errors):
    return next((err for err in errors if err), None)


def _type(v, names, schema, path):
    names = [names] if isinstance(names, str) else names
    if not any(_TYPES[name](v) for name in names):
        return path, f"{v!r} is not of type {' or '.join(map(repr, names))}"


def _properties(v, props, schema, path):
    if isinstance(v, dict):
        return _first(_check(v[k], sub, path + (k,))
                      for k, sub in props.items() if k in v)


def _additional(v, extra, schema, path):
    if isinstance(v, dict):
        extras = [k for k in v if k not in schema.get("properties", {})]
        if extras and extra is False:
            return path, f"unexpected property {extras[0]!r}"
        if isinstance(extra, dict):
            return _first(_check(v[k], extra, path + (k,)) for k in extras)


def _items(v, sub, schema, path):
    if isinstance(v, list):
        return _first(_check(item, sub, path + (i,)) for i, item in enumerate(v))


_RULES = {
    "$ref": lambda v, ref, s, path: _check(
        v, _schema()["$defs"][ref.removeprefix("#/$defs/")], path),
    "type": _type,
    "required": lambda v, names, s, path: isinstance(v, dict) and _first(
        (path, f"{k!r} is a required property") for k in names if k not in v),
    "properties": _properties,
    "additionalProperties": _additional,
    "items": _items,
}


def validate(obj, def_name: str) -> None:
    err = _check(obj, _schema()["$defs"][def_name], ())
    if err:
        path = "/".join(map(str, err[0])) or "<root>"
        raise ConfigError(f"invalid {def_name} at {path}: {err[1]}")


def load_dist(obj: dict) -> Distribution:
    validate(obj, "dist")
    return dist_from_json(obj)


def load_system(obj: dict):
    from .systems import SystemSpec

    validate(obj, "system")
    return SystemSpec.from_json(obj)


def load_dist_or_system(obj: dict):
    """Auto-detect a DistSpec ("family") vs a SystemSpec ("kind")."""
    if not isinstance(obj, dict):
        raise ConfigError("spec must be a JSON object")
    if "kind" in obj:
        from .systems import OrderStatDist

        return OrderStatDist(load_system(obj))
    return load_dist(obj)


def load_generator(obj: dict):
    from .copulas import generator_from_json

    validate(obj, "generator")
    return generator_from_json(obj)


def load_grid(obj: dict) -> GridSpec:
    validate(obj, "grid")
    return GridSpec(**obj)


def _load_json(def_name: str):
    """Loader for a def whose values stay plain JSON."""
    def load(obj):
        validate(obj, def_name)
        return obj
    return load


# One loader per $def a scenario field can name in the theorem registry.
_LOADERS = {
    "dist": load_dist,
    "system": load_system,
    "generator": load_generator,
    **{name: _load_json(name) for name in
       ("outlier_block", "number", "number_array", "string")},
}


def _check_id(obj: dict, def_name: str, ids) -> str:
    """The id of a validated `def_name` object, one of `ids`."""
    if obj["id"] not in ids:
        raise ConfigError(f"invalid {def_name} at id: {obj['id']!r} is not one of {list(ids)}")
    return obj["id"]


def load_case(obj: dict):
    from .harness import THEOREMS, TheoremCase

    validate(obj, "theorem_case")
    tid = _check_id(obj, "theorem_case", THEOREMS)
    fields = THEOREMS[tid].fields
    scenario = {}
    for key, value in obj["scenario"].items():  # an unknown field is the case's to refuse
        # ConfigError is a ValueError
        with scenario_field(tid, key, (TypeError, ValueError), ConfigError):
            scenario[key] = _LOADERS[fields[key]](value) if key in fields else value
    grids = {k: load_grid(v) for k, v in obj.get("grids", {}).items()}
    return TheoremCase(tid, scenario, grids=grids, n=obj.get("n", TheoremCase.n))


def load_scan_config(obj: dict) -> dict:
    """The `scan` keyword arguments a scan config sets; `scan` applies its
    own defaults to the rest."""
    from .harness import SCAN_IDS

    validate(obj, "scan_config")
    _check_id(obj, "scan_config", SCAN_IDS)
    cfg = {"theorem_id": obj["id"], "budget": obj["budget"]}
    cfg.update((k, obj[k]) for k in ("strategy", "seed", "box") if k in obj)
    return cfg


def read_json_file(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a file that is not UTF-8
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
