"""Theorem harness: the theorem registry, hypothesis predicates, conclusions.

Every theorem/corollary is encoded as a pair (hypothesis predicate,
conclusion check) and evaluated on concrete parameter configurations.  A
report is *inconsistent* when the hypothesis is satisfied but the conclusion
check fails outright; an inconclusive conclusion is reported separately and
never counts as a failure.  Conclusion checks reuse the order-checker
verdicts verbatim; the harness never reimplements order logic.

`THEOREMS` is the one list of theorem ids.  Each entry holds the scenario
fields with the schema `$def` that validates each, the grid keys its check
reads, the check, the conclusion as (relation, A, B), and, for scannable
theorems, the sampler and the box of its knobs; `CHECKS`, the loader's
scenario and grid checks and the scan all read it.  Adding a theorem is
adding one entry.  The paper proves most results twice, for series minima
(PHR) and parallel maxima (PRHR): each such pair is one check and one
sampler here, and the entries pass the side as data.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import orders
from .copulas import (Clayton, DependentMax, DependentMin, ShiftedSystem,
                      compose_phi_psi, is_log_concave, is_log_convex,
                      super_additive_check)
from .distributions import (Distribution, Exponential, Lomax, ParetoI,
                            ReflectedDFR, Weibull, classify_ageing)
from .errors import ParameterDomainError
from .grids import GridSpec
from .majorization import weak_submajorizes, weak_supermajorizes
from .orders import FAILS, HOLDS, OrderVerdict
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

    def grid(self, key: str, **defaults) -> GridSpec:
        if key in self.grids:
            return self.grids[key]
        defaults.setdefault("n", self.n)
        return GridSpec(**defaults)

    def to_json(self) -> dict:
        return {"id": self.id, "scenario": _scenario_to_json(self.scenario),
                "n": self.n}


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


def _report(case: TheoremCase, conditions: dict, verdict: OrderVerdict) -> TheoremReport:
    hyp = all(bool(v) for v in conditions.values())
    consistent = (not hyp) or verdict.outcome != FAILS
    return TheoremReport(
        id=case.id,
        conditions=conditions,
        hypothesis_satisfied=hyp,
        conclusion=verdict.to_json(),
        conclusion_outcome=verdict.outcome,
        consistent=consistent,
        case=case.to_json(),
    )


def _conclude(case: TheoremCase, sides: dict, grid: GridSpec | None = None,
              mirrored: bool = False) -> OrderVerdict:
    """Check the registry's conclusion A <=_relation B for this case, where
    `sides` maps "x" and "y" to the objects compared; `mirrored` swaps A and
    B.  Without `grid`, the case's grid named after the relation is used."""
    rel, a, b = THEOREMS[case.id].conclusion
    if mirrored:
        a, b = b, a
    if grid is None:
        grid = case.grid(rel, kind="u" if rel in (orders.DISP, orders.STAR) else "x")
    return orders.CHECKERS[rel](sides[a], sides[b], grid)


def _order_stats(sx: SystemSpec, sy: SystemSpec) -> dict:
    return {"x": OrderStatDist(sx), "y": OrderStatDist(sy)}


def _pair(case: TheoremCase, kind: str) -> tuple[SystemSpec, SystemSpec]:
    sx, sy = case.scenario["system_x"], case.scenario["system_y"]
    if sx.kind != kind or sy.kind != kind:
        raise ParameterDomainError(f"{case.id} needs two {kind} systems")
    return sx, sy


# -- dispersive ordering for series minima and parallel maxima -------------

def _expand_outliers(baseline: Distribution, spec: dict, kind: str) -> SystemSpec:
    p, q = int(spec["p"]), int(spec["q"])
    if p < 1 or q < 0:
        raise ParameterDomainError("outlier blocks need p >= 1, q >= 0")
    props = [float(spec["a1"])] * p + [float(spec["a2"])] * q
    comps = tuple((baseline, v) for v in props)
    return SystemSpec(kind, comps)


def _check_disp(case: TheoremCase, *, kind: str, ageing: str,
                baseline_order: tuple, ageing_first: bool = False,
                outliers: bool = False) -> TheoremReport:
    """Single-baseline systems of `kind`: sum(beta) >= sum(alpha), F0 of
    class `ageing` and the baselines ordered as `baseline_order`
    (relation, A, B) imply Y <=_disp X.  For series minima that is F0 DFR
    and G0 <=_hr F0; for parallel maxima F0 IRHR and F0 <=_rh G0.  The
    multiple-outlier corollaries (`outliers`) first expand their two-block
    parameter vectors to full vectors."""
    sc = case.scenario
    if outliers:
        sx, sy = (_expand_outliers(sc[f"baseline_{s}"], sc[f"outlier_{s}"], kind)
                  for s in "xy")
    else:
        sx, sy = _pair(case, kind)
    f0, g0 = sx.same_baseline(), sy.same_baseline()
    if f0 is None or g0 is None:
        raise ParameterDomainError(f"{case.id} needs single-baseline systems")
    sums = {"sum_beta_ge_sum_alpha": sy.prop_sum() >= sx.prop_sum()}
    aged = {f"baseline_x_{ageing.lower()}":
            ageing in classify_ageing(f0, case.grid("ageing", n=128))}
    conditions = {**aged, **sums} if ageing_first else {**sums, **aged}
    rel, lo, hi = baseline_order
    base = {"x": f0, "y": g0}
    conditions[f"baseline_{lo}_{rel}_le_baseline_{hi}"] = orders.CHECKERS[rel](
        base[lo], base[hi], case.grid(rel)).holds
    return _report(case, conditions, _conclude(case, _order_stats(sx, sy)))


# -- mixed-baseline block systems ----------------------------------------

def _split_sums(s: SystemSpec) -> tuple[float, float]:
    if s.split is None:
        raise ParameterDomainError("mixed-baseline theorem needs split systems")
    return s.front_sum(), s.back_sum()


def _check_mixed(case: TheoremCase, *, kind: str) -> TheoremReport:
    """Mixed-baseline systems of `kind`: strict blockwise sum dominance of
    the X parameters implies X_min <=_hr Y_min (series) or X_max >=_rh Y_max
    (parallel)."""
    sx, sy = _pair(case, kind)
    fx, bx = _split_sums(sx)
    fy, by = _split_sums(sy)
    conditions = {
        "front_sum_alpha_gt_beta": fx > fy,
        "back_sum_alpha_gt_beta": bx > by,
    }
    return _report(case, conditions, _conclude(case, _order_stats(sx, sy)))


# -- star order for minima ------------------------------------------------

def _xr_decreasing(baseline: Distribution, grid: GridSpec) -> bool:
    eps = 1e-3
    n = grid.n
    xs = [baseline.quantile(eps + i * (1.0 - 2 * eps) / (n - 1)) for i in range(n)]
    vals = [x * baseline.hazard(x) for x in xs]
    prev = vals[0]
    for v in vals[1:]:
        if v > prev + grid.tau_mono * (1.0 + abs(prev)):
            return False
        prev = v
    return True


def _check_star(case: TheoremCase) -> TheoremReport:
    """Same-baseline series minima: sum(alpha) <= sum(beta) and x*r(x)
    decreasing imply X_min >=_* Y_min."""
    sx, sy = _pair(case, SERIES_PHR)
    f = sx.same_baseline()
    g = sy.same_baseline()
    if f is None or g is None or str(f) != str(g):
        raise ParameterDomainError(f"{case.id} needs one common baseline")
    conditions = {
        "sum_alpha_le_sum_beta": sx.prop_sum() <= sy.prop_sum(),
        "x_hazard_decreasing": _xr_decreasing(f, case.grid("xr", n=128)),
    }
    return _report(case, conditions, _conclude(case, _order_stats(sx, sy)))


# -- reversed hazard order for Lomax maxima -------------------------------

def _check_lomax_maxima(case: TheoremCase) -> TheoremReport:
    """Parallel Lomax maxima: alpha weakly supermajorized by alpha* implies
    X_max <=_rh Y_max.  The proof rests on g(a) = a/(u**a - 1) being convex
    and decreasing in a for u > 1; those properties hold for every case and
    are certified once, by the acceptance suite's Schur criterion."""
    theta = float(case.scenario["theta"])
    alphas = [float(v) for v in case.scenario["alphas"]]
    alphas_star = [float(v) for v in case.scenario["alphas_star"]]
    if len(alphas) != len(alphas_star):
        raise ParameterDomainError(f"{case.id} needs equal-length shape vectors")
    conditions = {
        "alpha_supermajorized_by_alpha_star": weak_supermajorizes(alphas, alphas_star),
    }
    sx = SystemSpec(PARALLEL_PRHR, tuple((Lomax(a, theta), 1.0) for a in alphas))
    sy = SystemSpec(PARALLEL_PRHR, tuple((Lomax(a, theta), 1.0) for a in alphas_star))
    return _report(case, conditions, _conclude(case, _order_stats(sx, sy)))


# -- dependent models ------------------------------------------------------

def _dep_grid(case, systems_) -> GridSpec:
    if "dep" in case.grids:
        return case.grids["dep"]
    los, his = [], []
    for s in systems_:
        qlo, qhi = s.baseline.quantile(0.01), s.baseline.quantile(0.99)
        los.append(qlo - max(s.shifts))
        his.append(qhi - min(s.shifts))
    return GridSpec(kind="x", lo=min(los), hi=max(his), n=case.n)


def _check_dependent(case: TheoremCase, *, extreme: type, ageing: dict,
                     compose_low_first: bool) -> TheoremReport:
    """Shifted systems coupled by Archimedean copulas; `extreme` is
    DependentMin (minima, J1) or DependentMax (maxima, J2).

    Log-convex branch: mu weakly submajorized by mu*, psi_x log-convex,
    baseline_x of class `ageing["log_convex"]` (IFR for minima, IRHR for
    maxima), baseline_y <=_st baseline_x and a super-additive phi o psi imply
    the Y extreme <=_st the X extreme.  The log-concave branch mirrors it:
    supermajorized, log-concave, `ageing["log_concave"]`, and X and Y trade
    places in the baseline order and the conclusion.  Write (low, high) for
    the baseline order's (A, B): the composition is phi_high o psi_low for
    minima and phi_low o psi_high for maxima (`compose_low_first`)."""
    sc = case.scenario
    gen = {"x": sc["generator_x"], "y": sc["generator_y"]}
    base = {"x": sc["baseline_x"], "y": sc["baseline_y"]}
    mu = tuple(float(v) for v in sc["shifts_x"])
    mu_star = tuple(float(v) for v in sc["shifts_y"])
    branch = sc.get("branch", "log_convex")
    if branch not in ("log_convex", "log_concave"):
        raise ParameterDomainError(f"unknown branch {branch!r}")
    convex = branch == "log_convex"
    shifted = {"x": ShiftedSystem(base["x"], mu, gen["x"]),
               "y": ShiftedSystem(base["y"], mu_star, gen["y"])}
    ag = classify_ageing(base["x"], case.grid("ageing", n=128))
    low, high = ("y", "x") if convex else ("x", "y")
    outer, inner = (low, high) if compose_low_first else (high, low)
    majorizes = weak_submajorizes if convex else weak_supermajorizes
    curvature = is_log_convex if convex else is_log_concave
    conditions = {
        f"mu_{'sub' if convex else 'super'}majorized_by_mu_star": majorizes(mu, mu_star),
        f"generator_x_{branch}": curvature(gen["x"]),
        f"baseline_x_{ageing[branch].lower()}": ageing[branch] in ag,
        f"baseline_{low}_st_le_baseline_{high}": orders.check_st(
            base[low], base[high], case.grid("st")).holds,
        "composition_super_additive": super_additive_check(
            compose_phi_psi(gen[outer], gen[inner]))[0],
    }
    verdict = _conclude(case, {s: extreme(shifted[s]) for s in "xy"},
                        _dep_grid(case, shifted.values()), mirrored=not convex)
    return _report(case, conditions, verdict)


# -- worked examples -------------------------------------------------------

def _check_variances(case: TheoremCase, *, defaults: dict, vectors: tuple,
                     baseline: Callable, closed_form: Callable,
                     reference: tuple, ordering: str) -> TheoremReport:
    """Variances of two series minima on per-component baselines
    `baseline(param, scenario)`: closed form vs reference values vs the
    quadrature oracle, plus the variance-ordering sign."""
    sc = {**defaults, **case.scenario}
    params = [[float(v) for v in sc[key]] for key in vectors]
    var_x, var_y = (closed_form(p, sc) for p in params)
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
    return TheoremReport(case.id, {"default_configuration": True}, True,
                         conclusion, HOLDS if ok else FAILS, ok, case.to_json())


# -- scan samplers ---------------------------------------------------------
# A sampler maps knob values (already rescaled into the box) to a scenario.
# With `violate` set it builds a configuration that breaks the hypothesis.

def _sample_disp(v, violate, *, build, gap, order, reflect=False):
    f_shape, scale = v["f_shape"], v["scale"]
    # A larger shape on the same scale: G0 <=_hr F0, and after reflection
    # onto (-inf, 0], F0 <=_rh G0.
    g_shape = f_shape * (1.0 + v[gap])
    alphas = (v["a1"], v["a2"], v["a3"])
    target = sum(alphas) * (1.0 + v["sum_gap"])
    if violate:
        target = sum(alphas) * (1.0 - 0.4 * v["sum_gap"] - 0.05)
    raw = tuple(v[k] for k in order)
    betas = tuple(b * target / sum(raw) for b in raw)
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
    fsum = sum(front_y) * gap1
    bsum = sum(back_y) * gap2
    return {
        "system_x": build(f, (0.4 * fsum, 0.6 * fsum), g, (bsum,)),
        "system_y": build(f, front_y, g, back_y),
    }


def _sample_star(v, violate):
    # Pareto baseline has x*r(x) constant; a Weibull shape > 1 baseline
    # violates the decreasing-x*r(x) hypothesis instead.
    baseline = ParetoI(v["p_shape"]) if not violate else Weibull(1.4, 1.0)
    alphas = (v["a1"], v["a2"])
    target = sum(alphas) * (1.0 + v["sum_gap"])
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
        mean = sum(star) / len(star)
        alphas = (mean,) * len(star)  # mean vector is majorized by star
    else:
        alphas = tuple(b + v["shift"] for b in star)
    return {"theta": v["theta"], "alphas": alphas, "alphas_star": tuple(star)}


def _dependent_scenario(v, violate, generators, baselines):
    mu = (v["m1"], v["m2"])
    if violate:
        mu_star = tuple(m - 0.9 * min(mu) for m in mu)  # breaks submajorization
    else:
        mu_star = tuple(m + v["shift"] for m in mu)
    return {
        "generator_x": generators[0],
        "generator_y": generators[1],
        "baseline_x": baselines[0],
        "baseline_y": baselines[1],
        "shifts_x": mu,
        "shifts_y": mu_star,
        "branch": "log_convex",
    }


def _sample_dependent_minima(v, violate):
    theta1 = v["theta1"]
    theta2 = theta1 * v["theta_frac"]  # theta1 >= theta2 keeps phi1 o psi2 super-additive
    rate_f = v["rate_f"]
    rate_g = rate_f * (1.0 + v["rate_gap"])  # baseline_y <=_st baseline_x
    return _dependent_scenario(v, violate,
                               (Clayton(theta1, dim=2), Clayton(theta2, dim=2)),
                               (Exponential(rate_f), Exponential(rate_g)))


def _sample_dependent_maxima(v, violate):
    theta1 = v["theta1"]
    theta2 = theta1 * (1.0 + v["theta_gap"])  # theta2 >= theta1: phi2 o psi1 super-additive
    a_g = v["g_shape"]
    a_f = a_g * (1.0 + v["shape_gap"])  # baseline_y <=_st baseline_x
    scale = v["scale"]
    return _dependent_scenario(v, violate,
                               (Clayton(theta1, dim=2), Clayton(theta2, dim=2)),
                               (ReflectedDFR(Lomax(a_f, scale)),
                                ReflectedDFR(Lomax(a_g, scale))))


# -- the registry ----------------------------------------------------------

@dataclass(frozen=True)
class Theorem:
    """Everything the package knows about one theorem id."""

    fields: dict  # scenario field -> name of the schema $def that validates it
    check: Callable[[TheoremCase], TheoremReport]
    grids: tuple = ()  # keys of TheoremCase.grids the check reads
    optional: tuple = ()  # scenario fields a case may leave out
    conclusion: tuple | None = None  # (relation, A, B), A and B "x" or "y"
    sampler: Callable | None = None  # (knob values, violate) -> scenario
    box: dict | None = None  # knob -> (lo, hi); sorted(box) fixes the random stream


_SYSTEMS = {"system_x": "system", "system_y": "system"}
_OUTLIERS = {"baseline_x": "dist", "baseline_y": "dist",
             "outlier_x": "outlier_block", "outlier_y": "outlier_block"}
_DEPENDENT = {"generator_x": "generator", "generator_y": "generator",
              "baseline_x": "dist", "baseline_y": "dist",
              "shifts_x": "number_array", "shifts_y": "number_array",
              "branch": "branch"}
_DISP_SERIES = partial(_check_disp, kind=SERIES_PHR, ageing="DFR",
                       baseline_order=("hr", "y", "x"))
_DISP_PARALLEL = partial(_check_disp, kind=PARALLEL_PRHR, ageing="IRHR",
                         baseline_order=("rh", "x", "y"), ageing_first=True)
_MINIMA = {"extreme": DependentMin, "compose_low_first": False,
           "ageing": {"log_convex": "IFR", "log_concave": "DFR"}}
_MAXIMA = {"extreme": DependentMax, "compose_low_first": True,
           "ageing": {"log_convex": "IRHR", "log_concave": "DRHR"}}

THEOREMS = {
    "T1": Theorem(
        fields=_SYSTEMS, grids=("ageing", "hr", "disp"), check=_DISP_SERIES,
        conclusion=("disp", "y", "x"),
        sampler=partial(_sample_disp, build=series_phr, gap="hr_gap",
                        order=("a3", "a1", "a2")),
        box={"f_shape": (0.4, 2.0), "scale": (0.5, 2.0), "hr_gap": (0.05, 1.0),
             "a1": (0.2, 2.0), "a2": (0.2, 2.0), "a3": (0.2, 2.0),
             "sum_gap": (0.05, 0.8)}),
    "C1": Theorem(
        fields=_OUTLIERS, grids=("ageing", "hr", "disp"),
        check=partial(_DISP_SERIES, outliers=True), conclusion=("disp", "y", "x")),
    "T2": Theorem(
        fields=_SYSTEMS, grids=("ageing", "rh", "disp"), check=_DISP_PARALLEL,
        conclusion=("disp", "y", "x"),
        sampler=partial(_sample_disp, build=parallel_prhr, gap="rh_gap",
                        order=("a2", "a3", "a1"), reflect=True),
        box={"f_shape": (0.4, 2.0), "scale": (0.5, 2.0), "rh_gap": (0.05, 1.0),
             "a1": (0.2, 2.0), "a2": (0.2, 2.0), "a3": (0.2, 2.0),
             "sum_gap": (0.05, 0.8)}),
    "C2": Theorem(
        fields=_OUTLIERS, grids=("ageing", "rh", "disp"),
        check=partial(_DISP_PARALLEL, outliers=True), conclusion=("disp", "y", "x")),
    "T3": Theorem(
        fields=_SYSTEMS, grids=("hr",), check=partial(_check_mixed, kind=SERIES_PHR),
        conclusion=("hr", "x", "y"),
        sampler=partial(_sample_mixed, build=mixed_series, lomax_front=False),
        box={"rate": (0.5, 2.0), "g_shape": (0.5, 2.5),
             "b1": (0.3, 1.5), "b2": (0.3, 1.5), "b3": (0.3, 1.5),
             "gap1": (0.05, 1.0), "gap2": (0.05, 1.0)}),
    "T4": Theorem(
        fields=_SYSTEMS, grids=("rh",), check=partial(_check_mixed, kind=PARALLEL_PRHR),
        conclusion=("rh", "y", "x"),
        sampler=partial(_sample_mixed, build=mixed_parallel, lomax_front=True),
        box={"rate": (0.5, 2.0), "f_shape": (0.5, 2.5),
             "b1": (0.3, 1.5), "b2": (0.3, 1.5), "b3": (0.3, 1.5),
             "gap1": (0.05, 1.0), "gap2": (0.05, 1.0)}),
    "T5": Theorem(
        fields=_SYSTEMS, grids=("xr", "star"), check=_check_star,
        conclusion=("star", "y", "x"), sampler=_sample_star,
        box={"p_shape": (0.5, 3.0), "a1": (0.3, 2.0), "a2": (0.3, 2.0),
             "sum_gap": (0.05, 1.0)}),
    "T6": Theorem(
        fields={"theta": "positive", "alphas": "positive_array",
                "alphas_star": "positive_array"},
        grids=("rh",), check=_check_lomax_maxima, conclusion=("rh", "x", "y"),
        sampler=_sample_lomax_maxima,
        box={"theta": (0.5, 2.0), "b1": (0.5, 3.0), "b2": (0.5, 3.0),
             "b3": (0.5, 3.0), "shift": (0.1, 1.0), "mode": (0.0, 1.0)}),
    "T7": Theorem(
        fields=_DEPENDENT, optional=("branch",), grids=("ageing", "st", "dep"),
        check=partial(_check_dependent, **_MINIMA), conclusion=("st", "y", "x"),
        sampler=_sample_dependent_minima,
        box={"theta1": (0.5, 3.0), "theta_frac": (0.3, 1.0), "rate_f": (0.5, 2.0),
             "rate_gap": (0.05, 1.0), "m1": (0.2, 1.5), "m2": (0.2, 1.5),
             "shift": (0.05, 0.8)}),
    "T8": Theorem(
        fields=_DEPENDENT, optional=("branch",), grids=("ageing", "st", "dep"),
        check=partial(_check_dependent, **_MAXIMA), conclusion=("st", "y", "x"),
        sampler=_sample_dependent_maxima,
        box={"theta1": (0.5, 2.0), "theta_gap": (0.0, 1.5), "g_shape": (0.6, 2.0),
             "shape_gap": (0.05, 1.0), "scale": (0.5, 2.0),
             "m1": (0.2, 1.5), "m2": (0.2, 1.5), "shift": (0.05, 0.8)}),
    "Ex1": Theorem(
        fields={"shape": "positive", "rates_x": "positive_array",
                "rates_y": "positive_array"},
        optional=tuple(DEFAULT_EX1),
        check=partial(_check_variances, defaults=DEFAULT_EX1,
                      vectors=("rates_x", "rates_y"),
                      baseline=lambda k, sc: Weibull(float(sc["shape"]), k),
                      closed_form=lambda ks, sc: weibull_min_variance(ks, float(sc["shape"])),
                      reference=REFERENCE_WEIBULL_VARIANCES, ordering=">")),
    "Ex2": Theorem(
        fields={"alphas_x": "positive_array", "alphas_y": "positive_array"},
        optional=tuple(DEFAULT_EX2),
        check=partial(_check_variances, defaults=DEFAULT_EX2,
                      vectors=("alphas_x", "alphas_y"),
                      baseline=lambda a, sc: Lomax(a, 1.0),
                      closed_form=lambda alphas, sc: lomax_min_moments(alphas)[1],
                      reference=REFERENCE_LOMAX_VARIANCES, ordering="<")),
}

# One distinct callable per id: a tracer that wraps checks by identity can
# then tell the ids apart.
CHECKS = {tid: theorem.check for tid, theorem in THEOREMS.items()}
SCAN_IDS = tuple(tid for tid, theorem in THEOREMS.items() if theorem.sampler is not None)


def run_case(case: TheoremCase) -> TheoremReport:
    return CHECKS[case.id](case)
