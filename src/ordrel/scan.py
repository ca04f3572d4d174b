"""Configuration scans over the theorem harness.

A scan draws parameter configurations from a named box of scalar knobs
(random with a fixed seed, or a deterministic lattice), builds one
TheoremCase per configuration and aggregates consistency counts.  Samplers
deliberately mix hypothesis-violating configurations in (about 30%), so the
vacuity tracking is exercised while most cases remain non-vacuous.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import systems
from .copulas import Clayton, Independence, ShiftedSystem
from .distributions import Exponential, Lomax, ParetoI, ReflectedDFR, Weibull
from .errors import ConfigError, ParameterDomainError
from .harness import TheoremCase, TheoremReport, run_case
from .orders import FAILS, INCONCLUSIVE
from .systems import mixed_parallel, mixed_series, parallel_prhr, series_phr

SCAN_GRID_N = 96  # per-check grid resolution during scans


# Each sampler maps a knob dict (name -> float in [0,1], rescaled through the
# box) to a scenario.  The knob "violate" > 0.7 flips the construction so the
# hypothesis fails.

def _rescale(knobs, box):
    out = {}
    for name, (lo, hi) in box.items():
        out[name] = lo + knobs[name] * (hi - lo)
    return out


def _sample_T1(v, violate):
    f_shape, scale = v["f_shape"], v["scale"]
    g_shape = f_shape * (1.0 + v["hr_gap"])  # same scale => G0 <=_hr F0
    alphas = (v["a1"], v["a2"], v["a3"])
    target = sum(alphas) * (1.0 + v["sum_gap"])
    if violate:
        target = sum(alphas) * (1.0 - 0.4 * v["sum_gap"] - 0.05)
    raw = (v["a3"], v["a1"], v["a2"])
    betas = tuple(b * target / sum(raw) for b in raw)
    return {
        "system_x": series_phr(Lomax(f_shape, scale), alphas),
        "system_y": series_phr(Lomax(g_shape, scale), betas),
    }


_BOX_T1 = {
    "f_shape": (0.4, 2.0), "scale": (0.5, 2.0), "hr_gap": (0.05, 1.0),
    "a1": (0.2, 2.0), "a2": (0.2, 2.0), "a3": (0.2, 2.0),
    "sum_gap": (0.05, 0.8),
}


def _sample_T2(v, violate):
    f_shape, scale = v["f_shape"], v["scale"]
    g_shape = f_shape * (1.0 + v["rh_gap"])  # F0 <=_rh G0 on (-inf, 0]
    alphas = (v["a1"], v["a2"], v["a3"])
    target = sum(alphas) * (1.0 + v["sum_gap"])
    if violate:
        target = sum(alphas) * (1.0 - 0.4 * v["sum_gap"] - 0.05)
    raw = (v["a2"], v["a3"], v["a1"])
    betas = tuple(b * target / sum(raw) for b in raw)
    return {
        "system_x": parallel_prhr(ReflectedDFR(Lomax(f_shape, scale)), alphas),
        "system_y": parallel_prhr(ReflectedDFR(Lomax(g_shape, scale)), betas),
    }


_BOX_T2 = {
    "f_shape": (0.4, 2.0), "scale": (0.5, 2.0), "rh_gap": (0.05, 1.0),
    "a1": (0.2, 2.0), "a2": (0.2, 2.0), "a3": (0.2, 2.0),
    "sum_gap": (0.05, 0.8),
}


def _mixed_props(v, violate):
    front_y = (v["b1"],)
    back_y = (v["b2"], v["b3"])
    gap1, gap2 = 1.0 + v["gap1"], 1.0 + v["gap2"]
    if violate:
        gap1 = 1.0 / (1.0 + v["gap1"]) * 0.9  # front sum drops below beta's
    fsum = sum(front_y) * gap1
    bsum = sum(back_y) * gap2
    front_x = (0.4 * fsum, 0.6 * fsum)
    back_x = (bsum,)
    return front_x, back_x, front_y, back_y


def _sample_T3(v, violate):
    f = Exponential(v["rate"])
    g = Lomax(v["g_shape"], 1.0)
    front_x, back_x, front_y, back_y = _mixed_props(v, violate)
    return {
        "system_x": mixed_series(f, front_x, g, back_x),
        "system_y": mixed_series(f, front_y, g, back_y),
    }


_BOX_T3 = {
    "rate": (0.5, 2.0), "g_shape": (0.5, 2.5),
    "b1": (0.3, 1.5), "b2": (0.3, 1.5), "b3": (0.3, 1.5),
    "gap1": (0.05, 1.0), "gap2": (0.05, 1.0),
}


def _sample_T4(v, violate):
    f = Lomax(v["f_shape"], 1.0)
    g = Exponential(v["rate"])
    front_x, back_x, front_y, back_y = _mixed_props(v, violate)
    return {
        "system_x": mixed_parallel(f, front_x, g, back_x),
        "system_y": mixed_parallel(f, front_y, g, back_y),
    }


_BOX_T4 = {
    "rate": (0.5, 2.0), "f_shape": (0.5, 2.5),
    "b1": (0.3, 1.5), "b2": (0.3, 1.5), "b3": (0.3, 1.5),
    "gap1": (0.05, 1.0), "gap2": (0.05, 1.0),
}


def _sample_T5(v, violate):
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


_BOX_T5 = {
    "p_shape": (0.5, 3.0), "a1": (0.3, 2.0), "a2": (0.3, 2.0),
    "sum_gap": (0.05, 1.0),
}


def _sample_T6(v, violate):
    star = sorted((v["b1"], v["b2"], v["b3"]))
    if violate:
        alphas = tuple(b - 0.25 * v["shift"] for b in star)
    elif v["mode"] < 0.5:
        mean = sum(star) / len(star)
        alphas = (mean,) * len(star)  # mean vector is majorized by star
    else:
        alphas = tuple(b + v["shift"] for b in star)
    return {"theta": v["theta"], "alphas": alphas, "alphas_star": tuple(star)}


_BOX_T6 = {
    "theta": (0.5, 2.0), "b1": (0.5, 3.0), "b2": (0.5, 3.0), "b3": (0.5, 3.0),
    "shift": (0.1, 1.0), "mode": (0.0, 1.0),
}


def _sample_T7(v, violate):
    theta1 = v["theta1"]
    theta2 = theta1 * v["theta_frac"]  # theta1 >= theta2 keeps phi1 o psi2 super-additive
    rate_f = v["rate_f"]
    rate_g = rate_f * (1.0 + v["rate_gap"])  # baseline_y <=_st baseline_x
    mu = (v["m1"], v["m2"])
    if violate:
        mu_star = tuple(m - 0.9 * min(mu) for m in mu)  # breaks submajorization
    else:
        mu_star = tuple(m + v["shift"] for m in mu)
    return {
        "generator_x": Clayton(theta1, dim=2),
        "generator_y": Clayton(theta2, dim=2),
        "baseline_x": Exponential(rate_f),
        "baseline_y": Exponential(rate_g),
        "shifts_x": mu,
        "shifts_y": mu_star,
        "branch": "log_convex",
    }


_BOX_T7 = {
    "theta1": (0.5, 3.0), "theta_frac": (0.3, 1.0), "rate_f": (0.5, 2.0),
    "rate_gap": (0.05, 1.0), "m1": (0.2, 1.5), "m2": (0.2, 1.5),
    "shift": (0.05, 0.8),
}


def _sample_T8(v, violate):
    theta1 = v["theta1"]
    theta2 = theta1 * (1.0 + v["theta_gap"])  # theta2 >= theta1: phi2 o psi1 super-additive
    a_g = v["g_shape"]
    a_f = a_g * (1.0 + v["shape_gap"])  # baseline_y <=_st baseline_x
    scale = v["scale"]
    mu = (v["m1"], v["m2"])
    if violate:
        mu_star = tuple(m - 0.9 * min(mu) for m in mu)
    else:
        mu_star = tuple(m + v["shift"] for m in mu)
    return {
        "generator_x": Clayton(theta1, dim=2),
        "generator_y": Clayton(theta2, dim=2),
        "baseline_x": ReflectedDFR(Lomax(a_f, scale)),
        "baseline_y": ReflectedDFR(Lomax(a_g, scale)),
        "shifts_x": mu,
        "shifts_y": mu_star,
        "branch": "log_convex",
    }


_BOX_T8 = {
    "theta1": (0.5, 2.0), "theta_gap": (0.0, 1.5), "g_shape": (0.6, 2.0),
    "shape_gap": (0.05, 1.0), "scale": (0.5, 2.0),
    "m1": (0.2, 1.5), "m2": (0.2, 1.5), "shift": (0.05, 0.8),
}


SAMPLERS = {
    "T1": (_sample_T1, _BOX_T1),
    "T2": (_sample_T2, _BOX_T2),
    "T3": (_sample_T3, _BOX_T3),
    "T4": (_sample_T4, _BOX_T4),
    "T5": (_sample_T5, _BOX_T5),
    "T6": (_sample_T6, _BOX_T6),
    "T7": (_sample_T7, _BOX_T7),
    "T8": (_sample_T8, _BOX_T8),
}

_VIOLATE_PERIOD = 10
_VIOLATE_COUNT = 3  # 3 of every 10 configurations break the hypothesis


@dataclass(frozen=True)
class ScanResult:
    id: str
    strategy: str
    seed: int
    budget: int
    reports: tuple[TheoremReport, ...]
    counts: dict = field(default_factory=dict)

    @property
    def inconsistent(self) -> tuple[TheoremReport, ...]:
        return tuple(r for r in self.reports if not r.consistent)

    def to_json(self) -> dict:
        return {
            "id": self.id, "strategy": self.strategy, "seed": self.seed,
            "budget": self.budget, "counts": self.counts,
            "reports": [r.to_json() for r in self.reports],
        }


def _knob_stream(names, strategy, seed, budget):
    if strategy == "random":
        rng = random.Random(seed)
        for _ in range(budget):
            yield {name: rng.random() for name in names}
    elif strategy == "grid":
        k = 1
        while k ** len(names) < budget:
            k += 1
        levels = [(i + 0.5) / k for i in range(k)]
        produced = 0
        for combo in itertools.product(levels, repeat=len(names)):
            if produced >= budget:
                return
            yield dict(zip(names, combo))
            produced += 1
    else:
        raise ParameterDomainError(f"unknown strategy {strategy!r}")


def scan(theorem_id: str, box: dict | None = None, strategy: str = "random",
         budget: int = 100, seed: int = 0, grid_n: int = SCAN_GRID_N) -> ScanResult:
    """Evaluate `budget` configurations of one theorem.

    Any inconsistent report (hypothesis satisfied and conclusion fails) is a
    release-blocking artifact bug or a genuine finding; full reproduction
    data rides along in each report.  `box` overrides some of the theorem's
    knob ranges; an unknown knob or a range with lo > hi is a ConfigError,
    raised before any case runs.
    """
    if theorem_id not in SAMPLERS:
        raise ParameterDomainError(
            f"no scan sampler for {theorem_id!r}; choose from {sorted(SAMPLERS)}")
    sampler, default_box = SAMPLERS[theorem_id]
    box = box or {}
    unknown = sorted(set(box) - set(default_box))
    if unknown:
        raise ConfigError(f"{theorem_id} box has unknown knobs {unknown}; "
                          f"choose from {sorted(default_box)}")
    for name, (lo, hi) in box.items():
        if not lo <= hi:
            raise ConfigError(f"{theorem_id} box {name!r} has lo {lo!r} above hi {hi!r}")
    box = {**default_box, **box}
    reports = []
    counts = {"total": 0, "satisfied_holds": 0, "vacuous": 0,
              "inconsistent": 0, "inconclusive": 0}
    for idx, knobs in enumerate(_knob_stream(sorted(box), strategy, seed, budget)):
        violate = (idx % _VIOLATE_PERIOD) >= (_VIOLATE_PERIOD - _VIOLATE_COUNT)
        scenario = sampler(_rescale(knobs, box), violate)
        case = TheoremCase(theorem_id, scenario, n=grid_n)
        rep = run_case(case)
        reports.append(rep)
        counts["total"] += 1
        if not rep.hypothesis_satisfied:
            counts["vacuous"] += 1
        elif rep.conclusion_outcome == INCONCLUSIVE:
            counts["inconclusive"] += 1
        elif rep.conclusion_outcome == FAILS:
            counts["inconsistent"] += 1
        else:
            counts["satisfied_holds"] += 1
    return ScanResult(theorem_id, strategy, seed, budget, tuple(reports), counts)
