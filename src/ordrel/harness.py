"""Theorem harness: the theorem registry, hypothesis rows, conclusions.

Each paper result is a conjunction of simple conditions on the parameters
and the ageing class of the baselines, then a stochastic-order conclusion.
`THEOREMS` is the one list of theorem ids, and each entry states one result
whole: the scenario fields with the schema `$def` that types each, the
grid keys it reads (each of the kind `orders.grid_kind` gives), a sides
builder that checks the scenario's values and builds the named objects the
statement reads, the hypothesis as (name, predicate(sides)) rows in report
order, the conclusion as (relation, A, B) and, for scannable theorems, the
sampler and the box of its knobs.  `CHECKS`, the loader's scenario and grid
checks and the scan all read it; adding a theorem is adding one entry.

One runner, `_run`, evaluates the rows and then the conclusion with the
order checker's verdict.  A report is *inconsistent* when every row holds
but the conclusion fails outright; an inconclusive conclusion is reported
separately and never counts as a failure.  The paper proves most results
twice, for series minima (PHR) and parallel maxima (PRHR): such a pair
shares its rows, sides builder and sampler, with the side as data.

The ageing rows and T5's x*r(x) row read what the baseline states
(`distributions.classify_ageing`, `distributions.xr_non_increasing`), on
no grid.  A baseline-order row reads the order the two baselines' class
states (`distributions.stated_order`) and sweeps its grid only for a pair
that states none.  A case's report carries the case's JSON, grids
included, so `serialize.load_case` reruns it as it ran.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from . import distributions, orders
from .copulas import (Clayton, DependentMax, DependentMin, composition_super_additive,
                      is_log_concave, is_log_convex)
from .distributions import Exponential, Lomax, ParetoI, ReflectedDFR, Weibull
from .errors import (ConfigError, ParameterDomainError, check_count, check_positive, check_real,
                     scenario_field)
from .grids import GridSpec, check_grid_size
from .majorization import weak_submajorizes, weak_supermajorizes
from .orders import FAILS, HOLDS, grid_kind
from .special import left_sum
from .systems import (PARALLEL_PRHR, SERIES_PHR, OrderStatDist, SystemSpec,
                      lomax_min_moments, mixed_parallel, mixed_series,
                      numeric_mean_variance, parallel_prhr, series_phr,
                      weibull_min_variance)

# Reference variance values for the two default worked configurations.
REFERENCE_WEIBULL_VARIANCES = (0.043782, 0.017826)
REFERENCE_LOMAX_VARIANCES = (0.009917, 0.010117)

DEFAULT_EX1 = {"shape": 0.7, "rates_x": (1.7, 2.0, 0.9), "rates_y": (1.0, 3.0, 2.3)}
DEFAULT_EX2 = {"alphas_x": (1.0, 4.0, 7.0), "alphas_y": (1.2, 3.5, 7.2)}


@dataclass(frozen=True)
class TheoremCase:
    id: str
    scenario: dict
    grids: dict = field(default_factory=dict)
    n: int = 256  # resolution for grids built on the fly

    def __post_init__(self):
        if self.id not in THEOREMS:
            raise ParameterDomainError(f"unknown theorem id {self.id!r}")
        check_grid_size(self.n)
        check_case(self.id, self.scenario, self.grids)

    def grid(self, key: str) -> GridSpec:
        """The case's grid `key`, or an `n`-point one of that key's `grid_kind`."""
        if key in self.grids:
            return self.grids[key]
        return GridSpec(kind=grid_kind(key), n=self.n)

    def to_json(self) -> dict:
        """The case as `serialize.load_case` reads it."""
        out = {"id": self.id, "scenario": _scenario_to_json(self.scenario), "n": self.n}
        if self.grids:
            out["grids"] = {key: grid.to_json() for key, grid in self.grids.items()}
        return out


def check_case(tid: str, scenario, grids) -> None:
    """The registry's case rules, which every `TheoremCase` obeys: theorem
    `tid`'s fields and no other, and grids under the keys it reads, of the
    kind each key reads.  A field's value is its sides builder's to check."""
    theorem = THEOREMS[tid]
    unknown = set(scenario) - set(theorem.fields)
    if unknown:
        raise ConfigError(f"{tid} scenario has unknown fields: {sorted(unknown)}")
    missing = set(theorem.fields) - set(scenario) - set(theorem.optional)
    if missing:
        raise ConfigError(f"{tid} scenario missing fields: {sorted(missing)}")
    unknown = set(grids) - set(theorem.grids)
    if unknown:
        raise ConfigError(f"{tid} grids has unknown keys: {sorted(unknown)}; "
                          f"{tid} reads {list(theorem.grids)}")
    for key, grid in grids.items():
        if grid.kind != grid_kind(key):
            raise ConfigError(f"{tid} grid {key!r} needs kind {grid_kind(key)!r}, "
                              f"got {grid.kind!r}")


def _scenario_to_json(scenario: dict) -> dict:
    out = {}
    for k, v in scenario.items():
        if hasattr(v, "to_json"):
            out[k] = v.to_json()
        elif isinstance(v, (tuple, list)):
            out[k] = list(v)
        else:
            out[k] = v
    return out


@dataclass(frozen=True)
class TheoremReport:
    id: str
    conditions: dict  # per-condition hypothesis detail, name -> bool
    hypothesis_satisfied: bool
    conclusion: dict  # serialized verdict / value comparison
    conclusion_outcome: str  # holds | fails | inconclusive
    consistent: bool
    case: dict  # reproduction data
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "hypothesis": {"satisfied": self.hypothesis_satisfied,
                           "conditions": self.conditions},
            "conclusion": self.conclusion,
            "conclusion_outcome": self.conclusion_outcome,
            "consistent": self.consistent,
            "case": self.case,
            "extras": self.extras,
        }


# -- sides: the named objects a theorem's rows and conclusion read ---------
# A sides builder checks every value of the scenario it reads (a range, a
# choice, a length) and returns a dict; rows read the case's grids through
# its "case".

_BUILD = {SERIES_PHR: series_phr, PARALLEL_PRHR: parallel_prhr}


def _reals(key: str, v) -> list:
    """Scenario array field `key` as floats: a value that is no list or
    tuple is refused by name, and each entry is checked by `check_real`,
    the number fields' rule, before any row runs."""
    if not isinstance(v, (list, tuple)):
        raise ParameterDomainError(f"{key} must be an array of real numbers, got {v!r}")
    return [check_real(key, x) for x in v]


def _expand_outliers(sc: dict, side: str, kind: str) -> SystemSpec:
    """The `kind` system on baseline_{side} with the p components of
    parameter a1 and the q of a2 that block outlier_{side} states."""
    spec = sc[f"outlier_{side}"]
    if not (isinstance(spec, dict) and set(spec) == {"p", "q", "a1", "a2"}):
        raise ParameterDomainError(f"outlier_{side} needs exactly the keys p, q, a1 and a2, "
                                   f"got {spec!r}")
    p, q, a1, a2 = spec["p"], spec["q"], spec["a1"], spec["a2"]
    check_count("outlier block p", p, 1)
    check_count("outlier block q", q, 0)
    check_positive("outlier block a1", a1)
    check_positive("outlier block a2", a2)
    return _BUILD[kind](sc[f"baseline_{side}"], [a1] * p + [a2] * q)


def _system_sides(case: TheoremCase, *, kind: str, outliers: bool = False) -> dict:
    """Two systems of `kind` and their extremes "x" and "y".  The
    multiple-outlier corollaries (`outliers`) first expand their two-block
    parameter vectors."""
    sc = case.scenario
    if outliers:
        sx, sy = (_expand_outliers(sc, s, kind) for s in "xy")
    else:
        sx, sy = sc["system_x"], sc["system_y"]
        if sx.kind != kind or sy.kind != kind:
            raise ParameterDomainError(f"{case.id} needs two {kind} systems")
    return {"case": case, "system_x": sx, "system_y": sy,
            "x": OrderStatDist(sx), "y": OrderStatDist(sy)}


def _single_baseline_sides(case: TheoremCase, **kwargs) -> dict:
    sides = _system_sides(case, **kwargs)
    f, g = sides["system_x"].same_baseline(), sides["system_y"].same_baseline()
    if f is None or g is None:
        raise ParameterDomainError(f"{case.id} needs single-baseline systems")
    return {**sides, "baseline_x": f, "baseline_y": g}


def _common_baseline_sides(case: TheoremCase) -> dict:
    sides = _single_baseline_sides(case, kind=SERIES_PHR)
    if sides["baseline_x"] != sides["baseline_y"]:
        raise ParameterDomainError(f"{case.id} needs one common baseline")
    if sides["baseline_x"].support[0] < 0.0:
        raise ParameterDomainError(f"{case.id} needs a baseline on [0, inf): "
                                   "the star order compares positive lifetimes")
    return sides


def _split_sides(case: TheoremCase, *, kind: str) -> dict:
    sides = _system_sides(case, kind=kind)
    if sides["system_x"].split is None or sides["system_y"].split is None:
        raise ParameterDomainError("mixed-baseline theorem needs split systems")
    return sides


def _lomax_maxima_sides(case: TheoremCase) -> dict:
    """Parallel Lomax maxima on the shape vectors alpha (X) and alpha* (Y).
    The proof of T6 rests on g(a) = a/(u**a - 1) being convex and
    decreasing in a for u > 1; those properties hold for every case and are
    checked once, by differences, in the acceptance suite."""
    sc = case.scenario
    theta = check_real("theta", sc["theta"])
    alphas, alphas_star = (_reals(key, sc[key]) for key in ("alphas", "alphas_star"))
    if min(len(alphas), len(alphas_star)) < 2:
        raise ParameterDomainError(f"{case.id} needs at least 2 entries per shape vector, "
                                   f"got {len(alphas)} and {len(alphas_star)}")
    if len(alphas) != len(alphas_star):
        raise ParameterDomainError(f"{case.id} needs equal-length shape vectors")
    with scenario_field(case.id, "theta"):
        check_positive("scale", theta)  # the Lomax scale of every component
    sides = {"alphas": alphas, "alphas_star": alphas_star}
    for key, side in (("alphas", "x"), ("alphas_star", "y")):
        with scenario_field(case.id, key):
            sides[side] = OrderStatDist(SystemSpec(
                PARALLEL_PRHR, tuple((Lomax(a, theta), 1.0) for a in sides[key])))
    return sides


def _dep_grid(case, extremes) -> GridSpec:
    """The case's "dep" grid.  The dependent extremes have no quantile
    function, so an unset bound comes from the baseline quantiles at
    0.01/0.99 moved by the shifts."""
    grid = case.grid("dep")
    if grid.lo is not None and grid.hi is not None:
        return grid
    los, his = [], []
    for s in extremes:
        qlo, qhi = s.baseline.quantile(0.01), s.baseline.quantile(0.99)
        los.append(qlo - max(s.shifts))
        his.append(qhi - min(s.shifts))
    return replace(grid, lo=min(los) if grid.lo is None else grid.lo,
                   hi=max(his) if grid.hi is None else grid.hi)


def _dependent_sides(case: TheoremCase, *, extreme: type, ageing: dict,
                     compose_low_first: bool) -> dict:
    """Shifted systems coupled by Archimedean copulas; `extreme` is
    DependentMin (minima, J1) or DependentMax (maxima, J2).

    Log-convex branch: mu weakly submajorized by mu*, psi_x log-convex,
    baseline_x of class `ageing["log_convex"]` (IFR for minima, IRHR for
    maxima), baseline_y <=_st baseline_x and a super-additive phi o psi imply
    the Y extreme <=_st the X extreme.  The log-concave branch mirrors it:
    supermajorized, log-concave, `ageing["log_concave"]`, and X and Y trade
    places in the baseline order and the conclusion.  Write (low, high) for
    the (A, B) of both: the composition is phi_high o psi_low for minima
    and phi_low o psi_high for maxima (`compose_low_first`)."""
    sc = case.scenario
    mu, mu_star = (tuple(_reals(key, sc[key])) for key in ("shifts_x", "shifts_y"))
    branch = sc.get("branch", "log_convex")
    if branch not in ("log_convex", "log_concave"):
        raise ParameterDomainError(f"unknown branch {branch!r}")
    convex = branch == "log_convex"
    x = extreme(sc["baseline_x"], mu, sc["generator_x"])
    y = extreme(sc["baseline_y"], mu_star, sc["generator_y"])
    low, high = ("y", "x") if convex else ("x", "y")
    outer, inner = (low, high) if compose_low_first else (high, low)
    return {"case": case, "branch": branch, "convex": convex,
            "majorization": "sub" if convex else "super",
            "ageing": ageing[branch].lower(), "low": low, "high": high,
            "outer": sc[f"generator_{outer}"], "inner": sc[f"generator_{inner}"],
            "baseline_x": sc["baseline_x"], "baseline_y": sc["baseline_y"],
            "x": x, "y": y, "grid": _dep_grid(case, (x, y))}


def _variance_sides(case: TheoremCase, *, defaults: dict, vectors: tuple,
                    baseline: Callable, closed_form: Callable,
                    reference: tuple, ordering: str) -> dict:
    """Variances of two series minima on per-component baselines
    `baseline(param, scenario)`: closed form vs reference values vs the
    quadrature oracle, plus the variance-ordering sign.  A worked example
    has no order conclusion; this comparison is its conclusion, which holds
    for the `defaults` only ("default": the values as floats are those).
    A field is an array or a number as its default is; a number is a
    positive parameter, and a refusal of a field names it."""
    def read(k, v):
        return (_reals if isinstance(defaults[k], tuple) else check_real)(k, v)

    sc = {k: read(k, v) for k, v in {**defaults, **case.scenario}.items()}
    for k in defaults:
        if k not in vectors:
            with scenario_field(case.id, k):
                check_positive(k, sc[k])
    params = [sc[key] for key in vectors]
    closed = []
    for key in vectors:
        with scenario_field(case.id, key):
            closed.append(closed_form(sc[key], sc))
    var_x, var_y = closed
    num_x, num_y = (numeric_mean_variance(OrderStatDist(SystemSpec(
        SERIES_PHR, tuple((baseline(v, sc), 1.0) for v in p))))[1] for p in params)
    ref_x, ref_y = reference
    ok = (abs(var_x - ref_x) <= 1e-4 * ref_x
          and abs(var_y - ref_y) <= 1e-4 * ref_y
          and abs(num_x - var_x) <= 1e-3 * var_x
          and abs(num_y - var_y) <= 1e-3 * var_y
          and {">": operator.gt, "<": operator.lt}[ordering](var_x, var_y))
    conclusion = {
        "variance_x": var_x, "variance_y": var_y,
        "numeric_variance_x": num_x, "numeric_variance_y": num_y,
        "reference_x": ref_x, "reference_y": ref_y,
        "ordering": f"var_x {ordering} var_y",
    }
    return {"conclusion": conclusion, "outcome": HOLDS if ok else FAILS,
            "default": all(sc[k] == read(k, v) for k, v in defaults.items())}


# -- hypothesis rows -------------------------------------------------------
# A row is (name, predicate(sides)); a name may be a template on the sides.
# Predicates look every checker up by its module-level name when called, so
# a tracer that patches those names sees each call.

def _ageing_row(cls: str) -> tuple:
    """baseline_x is of ageing class `cls` ("{ageing}" for T7/T8)."""
    return (f"baseline_x_{cls.lower()}",
            lambda s: cls.format_map(s).upper() in distributions.classify_ageing(s["baseline_x"]))


def _order_row(rel: str, lo: str, hi: str) -> tuple:
    """baseline_lo <=_rel baseline_hi as the two baselines' class states it
    (`distributions.stated_order`), else on the case's `rel` grid; `lo` and
    `hi` are "x", "y" or templates on the sides."""
    def holds(s):
        a, b = s[f"baseline_{lo}".format_map(s)], s[f"baseline_{hi}".format_map(s)]
        stated = distributions.stated_order(rel, a, b)
        return orders.CHECKERS[rel](a, b, s["case"].grid(rel)).holds if stated is None else stated
    return (f"baseline_{lo}_{rel}_le_baseline_{hi}", holds)


_SUMS = ("sum_beta_ge_sum_alpha",
         lambda s: s["system_x"].prop_sum() <= s["system_y"].prop_sum())
_SERIES_DISP_ROWS = (_SUMS, _ageing_row("DFR"), _order_row("hr", "y", "x"))
_PARALLEL_DISP_ROWS = (_ageing_row("IRHR"), _SUMS, _order_row("rh", "x", "y"))
_BLOCK_ROWS = (
    ("front_sum_alpha_gt_beta",
     lambda s: s["system_x"].front_sum() > s["system_y"].front_sum()),
    ("back_sum_alpha_gt_beta",
     lambda s: s["system_x"].back_sum() > s["system_y"].back_sum()),
)
_STAR_ROWS = (
    ("sum_alpha_le_sum_beta", _SUMS[1]),  # the same comparison
    ("x_hazard_decreasing", lambda s: distributions.xr_non_increasing(s["baseline_x"])),
)
_DEPENDENT_ROWS = (
    ("mu_{majorization}majorized_by_mu_star",
     lambda s: (weak_submajorizes if s["convex"] else weak_supermajorizes)(
         s["x"].shifts, s["y"].shifts)),
    ("generator_x_{branch}",
     lambda s: (is_log_convex if s["convex"] else is_log_concave)(s["x"].generator)),
    _ageing_row("{ageing}"),
    _order_row("st", "{low}", "{high}"),
    ("composition_super_additive",
     lambda s: composition_super_additive(s["outer"], s["inner"])),
)
_DEFAULT_ROWS = (("default_configuration", lambda s: s["default"]),)


def _run(case: TheoremCase) -> TheoremReport:
    """Evaluate the case's hypothesis rows on its sides, then check its
    conclusion on them (see `Theorem`) and report.  An `OverflowError` in
    a row or in the conclusion is raised again with the case id and the
    row's name (or "conclusion") in front of its message."""
    theorem = THEOREMS[case.id]
    sides = theorem.sides(case)
    conditions = {}
    try:
        for name, holds in theorem.hypothesis:
            where = name.format_map(sides)
            conditions[where] = holds(sides)
        where = "conclusion"
        if theorem.conclusion is None:
            conclusion, outcome = sides["conclusion"], sides["outcome"]
        else:
            rel, a, b = theorem.conclusion
            grid = sides["grid"] if "grid" in sides else case.grid(rel)
            verdict = orders.CHECKERS[rel](sides[a.format_map(sides)],
                                           sides[b.format_map(sides)], grid)
            conclusion, outcome = verdict.to_json(), verdict.outcome
    except OverflowError as exc:
        # a math overflow carries its message last: ("math range error",)
        # or (34, "Numerical result out of range")
        message = exc.args[-1] if exc.args else "overflow"
        raise OverflowError(f"{case.id} {where}: {message}") from exc
    hyp = all(bool(v) for v in conditions.values())
    return TheoremReport(case.id, conditions, hyp, conclusion, outcome,
                         (not hyp) or outcome != FAILS, case.to_json())


# -- scan samplers ---------------------------------------------------------
# A sampler maps knob values (already rescaled into the box) to a scenario.
# With `violate` set it builds a configuration that breaks the hypothesis.

def _sample_disp(v, violate, *, build, gap, order, reflect=False):
    f_shape, scale = v["f_shape"], v["scale"]
    # A larger shape on the same scale: G0 <=_hr F0, and after reflection
    # onto (-inf, 0], F0 <=_rh G0.
    g_shape = f_shape * (1.0 + v[gap])
    alphas = (v["a1"], v["a2"], v["a3"])
    target = left_sum(alphas) * (1.0 + v["sum_gap"])
    if violate:
        target = left_sum(alphas) * (1.0 - 0.4 * v["sum_gap"] - 0.05)
    raw = tuple(v[k] for k in order)
    betas = tuple(b * target / left_sum(raw) for b in raw)
    f, g = Lomax(f_shape, scale), Lomax(g_shape, scale)
    if reflect:
        f, g = ReflectedDFR(f), ReflectedDFR(g)
    return {"system_x": build(f, alphas), "system_y": build(g, betas)}


def _sample_mixed(v, violate, *, build, lomax_front):
    expo = Exponential(v["rate"])
    lomax = Lomax(v["f_shape" if lomax_front else "g_shape"], 1.0)
    f, g = (lomax, expo) if lomax_front else (expo, lomax)
    front_y = (v["b1"],)
    back_y = (v["b2"], v["b3"])
    gap1, gap2 = 1.0 + v["gap1"], 1.0 + v["gap2"]
    if violate:
        gap1 = 1.0 / (1.0 + v["gap1"]) * 0.9  # front sum drops below beta's
    fsum = left_sum(front_y) * gap1
    bsum = left_sum(back_y) * gap2
    return {
        "system_x": build(f, (0.4 * fsum, 0.6 * fsum), g, (bsum,)),
        "system_y": build(f, front_y, g, back_y),
    }


def _sample_star(v, violate):
    # Pareto baseline has x*r(x) constant; a Weibull shape > 1 baseline
    # violates the decreasing-x*r(x) hypothesis instead.
    baseline = ParetoI(v["p_shape"]) if not violate else Weibull(1.4, 1.0)
    alphas = (v["a1"], v["a2"])
    target = left_sum(alphas) * (1.0 + v["sum_gap"])
    betas = (0.45 * target, 0.55 * target)
    return {
        "system_x": series_phr(baseline, alphas),
        "system_y": series_phr(baseline, betas),
    }


def _sample_lomax_maxima(v, violate):
    star = sorted((v["b1"], v["b2"], v["b3"]))
    if violate:
        alphas = tuple(b - 0.25 * v["shift"] for b in star)
    elif v["mode"] < 0.5:
        mean = left_sum(star) / len(star)
        alphas = (mean,) * len(star)  # mean vector is majorized by star
    else:
        alphas = tuple(b + v["shift"] for b in star)
    return {"theta": v["theta"], "alphas": alphas, "alphas_star": tuple(star)}


def _sample_dependent(v, violate, *, theta_y, baselines):
    """Clayton generators and shifts for X and Y; `theta_y` and `baselines`
    are the side's data (`_MINIMA_DRAW`, `_MAXIMA_DRAW`)."""
    mu = (v["m1"], v["m2"])
    if violate:
        mu_star = tuple(m - 0.9 * min(mu) for m in mu)  # breaks submajorization
    else:
        mu_star = tuple(m + v["shift"] for m in mu)
    baseline_x, baseline_y = baselines(v)
    return {"generator_x": Clayton(v["theta1"], dim=2),
            "generator_y": Clayton(theta_y(v), dim=2),
            "baseline_x": baseline_x, "baseline_y": baseline_y,
            "shifts_x": mu, "shifts_y": mu_star, "branch": "log_convex"}


# -- the registry ----------------------------------------------------------

@dataclass(frozen=True)
class Theorem:
    """Everything the package knows about one theorem id.

    The sides map "x" and "y" to the objects the conclusion compares; the
    conclusion's A and B are "x", "y" or templates on the sides (T7/T8's
    "{low}" and "{high}"), and a "grid" in the sides replaces the case's
    grid for the relation.  Without a conclusion (the worked examples) the
    sides carry the report's "conclusion" and "outcome".  The entry names
    a case's fields and grids; each field's value, its length included, is
    the sides builder's to check."""

    fields: dict  # scenario field -> name of the schema $def that types it
    sides: Callable[[TheoremCase], dict]  # checks the scenario's values, builds the sides
    hypothesis: tuple  # (name, predicate(sides)) rows in report order
    grids: tuple = ()  # the grid keys the rows and conclusion read, each of its `grid_kind`
    optional: tuple = ()  # scenario fields a case may leave out
    conclusion: tuple | None = None  # (relation, A, B), A and B "x", "y" or templates
    sampler: Callable | None = None  # (knob values, violate) -> scenario
    box: dict | None = None  # knob -> (lo, hi); sorted(box) fixes the random stream


_SYSTEMS = {"system_x": "system", "system_y": "system"}
_DISP_SERIES_GRIDS = ("hr", "disp")
_DISP_PARALLEL_GRIDS = ("rh", "disp")
_OUTLIERS = {"baseline_x": "dist", "baseline_y": "dist",
             "outlier_x": "outlier_block", "outlier_y": "outlier_block"}
# What T7 and T8 share: all but their side and their box.
_DEPENDENT = dict(
    fields={"generator_x": "generator", "generator_y": "generator",
            "baseline_x": "dist", "baseline_y": "dist",
            "shifts_x": "number_array", "shifts_y": "number_array", "branch": "string"},
    optional=("branch",), grids=("st", "dep"),
    hypothesis=_DEPENDENT_ROWS, conclusion=("st", "{low}", "{high}"))
_MINIMA = {"extreme": DependentMin, "compose_low_first": False,
           "ageing": {"log_convex": "IFR", "log_concave": "DFR"}}
_MAXIMA = {"extreme": DependentMax, "compose_low_first": True,
           "ageing": {"log_convex": "IRHR", "log_concave": "DRHR"}}
# The sampler's side: theta_y, which keeps the composition super-additive
# (theta1 >= theta_y for minima, theta_y >= theta1 for maxima), and the
# baselines (X, Y), with baseline_y <=_st baseline_x.
_MINIMA_DRAW = {
    "theta_y": lambda v: v["theta1"] * v["theta_frac"],
    "baselines": lambda v: (Exponential(v["rate_f"]),
                            Exponential(v["rate_f"] * (1.0 + v["rate_gap"]))),
}
_MAXIMA_DRAW = {
    "theta_y": lambda v: v["theta1"] * (1.0 + v["theta_gap"]),
    "baselines": lambda v: (
        ReflectedDFR(Lomax(v["g_shape"] * (1.0 + v["shape_gap"]), v["scale"])),
        ReflectedDFR(Lomax(v["g_shape"], v["scale"]))),
}

THEOREMS = {
    "T1": Theorem(
        fields=_SYSTEMS, grids=_DISP_SERIES_GRIDS,
        sides=partial(_single_baseline_sides, kind=SERIES_PHR),
        hypothesis=_SERIES_DISP_ROWS, conclusion=("disp", "y", "x"),
        sampler=partial(_sample_disp, build=series_phr, gap="hr_gap",
                        order=("a3", "a1", "a2")),
        box={"f_shape": (0.4, 2.0), "scale": (0.5, 2.0), "hr_gap": (0.05, 1.0),
             "a1": (0.2, 2.0), "a2": (0.2, 2.0), "a3": (0.2, 2.0),
             "sum_gap": (0.05, 0.8)}),
    "C1": Theorem(
        fields=_OUTLIERS, grids=_DISP_SERIES_GRIDS,
        sides=partial(_single_baseline_sides, kind=SERIES_PHR, outliers=True),
        hypothesis=_SERIES_DISP_ROWS, conclusion=("disp", "y", "x")),
    "T2": Theorem(
        fields=_SYSTEMS, grids=_DISP_PARALLEL_GRIDS,
        sides=partial(_single_baseline_sides, kind=PARALLEL_PRHR),
        hypothesis=_PARALLEL_DISP_ROWS, conclusion=("disp", "y", "x"),
        sampler=partial(_sample_disp, build=parallel_prhr, gap="rh_gap",
                        order=("a2", "a3", "a1"), reflect=True),
        box={"f_shape": (0.4, 2.0), "scale": (0.5, 2.0), "rh_gap": (0.05, 1.0),
             "a1": (0.2, 2.0), "a2": (0.2, 2.0), "a3": (0.2, 2.0),
             "sum_gap": (0.05, 0.8)}),
    "C2": Theorem(
        fields=_OUTLIERS, grids=_DISP_PARALLEL_GRIDS,
        sides=partial(_single_baseline_sides, kind=PARALLEL_PRHR, outliers=True),
        hypothesis=_PARALLEL_DISP_ROWS, conclusion=("disp", "y", "x")),
    "T3": Theorem(
        fields=_SYSTEMS, grids=("hr",), sides=partial(_split_sides, kind=SERIES_PHR),
        hypothesis=_BLOCK_ROWS, conclusion=("hr", "x", "y"),
        sampler=partial(_sample_mixed, build=mixed_series, lomax_front=False),
        box={"rate": (0.5, 2.0), "g_shape": (0.5, 2.5),
             "b1": (0.3, 1.5), "b2": (0.3, 1.5), "b3": (0.3, 1.5),
             "gap1": (0.05, 1.0), "gap2": (0.05, 1.0)}),
    "T4": Theorem(
        fields=_SYSTEMS, grids=("rh",), sides=partial(_split_sides, kind=PARALLEL_PRHR),
        hypothesis=_BLOCK_ROWS, conclusion=("rh", "y", "x"),
        sampler=partial(_sample_mixed, build=mixed_parallel, lomax_front=True),
        box={"rate": (0.5, 2.0), "f_shape": (0.5, 2.5),
             "b1": (0.3, 1.5), "b2": (0.3, 1.5), "b3": (0.3, 1.5),
             "gap1": (0.05, 1.0), "gap2": (0.05, 1.0)}),
    "T5": Theorem(
        fields=_SYSTEMS, grids=("star",), sides=_common_baseline_sides,
        hypothesis=_STAR_ROWS, conclusion=("star", "y", "x"), sampler=_sample_star,
        box={"p_shape": (0.5, 3.0), "a1": (0.3, 2.0), "a2": (0.3, 2.0),
             "sum_gap": (0.05, 1.0)}),
    "T6": Theorem(
        fields={"theta": "number", "alphas": "number_array", "alphas_star": "number_array"},
        grids=("rh",), sides=_lomax_maxima_sides,
        hypothesis=(("alpha_supermajorized_by_alpha_star",
                     lambda s: weak_supermajorizes(s["alphas"], s["alphas_star"])),),
        conclusion=("rh", "x", "y"), sampler=_sample_lomax_maxima,
        box={"theta": (0.5, 2.0), "b1": (0.5, 3.0), "b2": (0.5, 3.0),
             "b3": (0.5, 3.0), "shift": (0.1, 1.0), "mode": (0.0, 1.0)}),
    "T7": Theorem(
        **_DEPENDENT, sides=partial(_dependent_sides, **_MINIMA),
        sampler=partial(_sample_dependent, **_MINIMA_DRAW),
        box={"theta1": (0.5, 3.0), "theta_frac": (0.3, 1.0), "rate_f": (0.5, 2.0),
             "rate_gap": (0.05, 1.0), "m1": (0.2, 1.5), "m2": (0.2, 1.5),
             "shift": (0.05, 0.8)}),
    "T8": Theorem(
        **_DEPENDENT, sides=partial(_dependent_sides, **_MAXIMA),
        sampler=partial(_sample_dependent, **_MAXIMA_DRAW),
        box={"theta1": (0.5, 2.0), "theta_gap": (0.0, 1.5), "g_shape": (0.6, 2.0),
             "shape_gap": (0.05, 1.0), "scale": (0.5, 2.0),
             "m1": (0.2, 1.5), "m2": (0.2, 1.5), "shift": (0.05, 0.8)}),
    "Ex1": Theorem(
        fields={"shape": "number", "rates_x": "number_array", "rates_y": "number_array"},
        optional=tuple(DEFAULT_EX1), hypothesis=_DEFAULT_ROWS,
        sides=partial(_variance_sides, defaults=DEFAULT_EX1,
                      vectors=("rates_x", "rates_y"),
                      baseline=lambda k, sc: Weibull(sc["shape"], k),
                      closed_form=lambda ks, sc: weibull_min_variance(ks, sc["shape"]),
                      reference=REFERENCE_WEIBULL_VARIANCES, ordering=">")),
    "Ex2": Theorem(
        fields={"alphas_x": "number_array", "alphas_y": "number_array"},
        optional=tuple(DEFAULT_EX2), hypothesis=_DEFAULT_ROWS,
        sides=partial(_variance_sides, defaults=DEFAULT_EX2,
                      vectors=("alphas_x", "alphas_y"),
                      baseline=lambda a, sc: Lomax(a, 1.0),
                      closed_form=lambda alphas, sc: lomax_min_moments(alphas)[1],
                      reference=REFERENCE_LOMAX_VARIANCES, ordering="<")),
}

# One distinct callable per id: a tracer that wraps checks by identity can
# then tell the ids apart.
CHECKS = {tid: partial(_run) for tid in THEOREMS}
SCAN_IDS = tuple(tid for tid, theorem in THEOREMS.items() if theorem.sampler is not None)


def run_case(case: TheoremCase) -> TheoremReport:
    return CHECKS[case.id](case)
