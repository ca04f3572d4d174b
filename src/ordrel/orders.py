"""Numerical checkers for the six stochastic orders.

Each checker works on any pair of objects exposing the distribution surface
(baseline distributions, order-statistic distributions, or the dependent
min/max wrappers).  Verdicts are three-valued: a tail or degeneracy guard can
make a check inconclusive, so numerical trouble never masquerades as a
mathematical violation.  Ties at the tolerance resolve toward "holds" since
all six orders are non-strict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SupportError
from .grids import GridSpec

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

ST, HR, RH, LR, DISP, STAR = "st", "hr", "rh", "lr", "disp", "star"

_TINY = 1e-300


@dataclass(frozen=True)
class OrderVerdict:
    relation: str
    outcome: str
    witness: tuple[float, float, float] | None  # (point, lhs, rhs)
    grid: GridSpec

    @property
    def holds(self) -> bool:
        return self.outcome == HOLDS

    def to_json(self) -> dict:
        out = {"relation": self.relation, "outcome": self.outcome,
               "grid": self.grid.to_json()}
        if self.witness is not None:
            out["witness"] = {"x": self.witness[0], "lhs": self.witness[1],
                              "rhs": self.witness[2]}
        return out


def _x_grid(A, B, grid: GridSpec | None) -> tuple[GridSpec, list[float]]:
    if grid is None:
        grid = GridSpec(kind="x")
    lo = max(A.support[0], B.support[0])
    hi = min(A.support[1], B.support[1])
    if hi <= lo:
        raise SupportError("supports do not overlap")
    return grid, grid.x_points((A, B))


def _u_grid(grid: GridSpec | None) -> tuple[GridSpec, list[float]]:
    if grid is None:
        grid = GridSpec(kind="u")
    return grid, grid.u_points()


def _check_pointwise(relation, xs, lhs_fn, rhs_fn, grid) -> OrderVerdict:
    """Holds iff lhs(x) <= rhs(x) + tau_pt at every usable point."""
    usable = 0
    for x in xs:
        try:
            lhs, rhs = lhs_fn(x), rhs_fn(x)
        except SupportError:
            continue
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            continue
        usable += 1
        if lhs > rhs + grid.tau_pt * (1.0 + abs(rhs)):
            return OrderVerdict(relation, FAILS, (x, lhs, rhs), grid)
    if usable == 0:
        return OrderVerdict(relation, INCONCLUSIVE, None, grid)
    return OrderVerdict(relation, HOLDS, None, grid)


def _monotone_violation(xs, values, tau) -> tuple[float, float, float] | None:
    """First adjacent pair where the sequence decreases beyond tolerance."""
    for i in range(1, len(values)):
        a, b = values[i - 1], values[i]
        if b < a - tau * (1.0 + max(abs(a), abs(b))):
            return (xs[i], b, a)
    return None


def check_st(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_st B: sf_A(x) <= sf_B(x) everywhere."""
    grid, xs = _x_grid(A, B, grid)
    return _check_pointwise(ST, xs, A.sf, B.sf, grid)


def _ratio_and_rate_check(relation, A, B, grid, num_fn, den_fn, rate_a, rate_b,
                          rate_sign) -> OrderVerdict:
    """Shared body of the hr and rh checks.

    Runs both equivalent formulations: monotonicity of the ratio
    num(x)/den(x) and the pointwise rate comparison.  Disagreement between
    the two is reported as inconclusive rather than silently choosing one.
    """
    grid, xs = _x_grid(A, B, grid)
    ratio_xs, ratios = [], []
    for x in xs:
        den = den_fn(x)
        if den < _TINY:
            continue
        ratio_xs.append(x)
        ratios.append(num_fn(x) / den)
    ratio_viol = None
    if len(ratios) >= 2:
        ratio_viol = _monotone_violation(ratio_xs, ratios, grid.tau_mono)

    rate_viol = None
    rate_usable = 0
    for x in xs:
        try:
            ra, rb = rate_a(x), rate_b(x)
        except SupportError:
            continue
        if not (math.isfinite(ra) and math.isfinite(rb)):
            continue
        rate_usable += 1
        lhs, rhs = (rb, ra) if rate_sign > 0 else (ra, rb)
        # rate_sign > 0: need ra >= rb; else ra <= rb
        if lhs > rhs + grid.tau_pt * (1.0 + abs(rhs)):
            rate_viol = (x, ra, rb)
            break

    ratio_ok = ratio_viol is None and len(ratios) >= 2
    rate_ok = rate_viol is None and rate_usable >= 2
    if ratio_ok and rate_ok:
        return OrderVerdict(relation, HOLDS, None, grid)
    if not ratio_ok and not rate_ok and ratio_viol is not None and rate_viol is not None:
        return OrderVerdict(relation, FAILS, rate_viol, grid)
    witness = ratio_viol or rate_viol
    return OrderVerdict(relation, INCONCLUSIVE, witness, grid)


def check_hr(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_hr B: sf_B/sf_A increasing, equivalently hazard_A >= hazard_B."""
    return _ratio_and_rate_check(HR, A, B, grid, B.sf, A.sf,
                                 A.hazard, B.hazard, rate_sign=+1)


def check_rh(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_rh B: cdf_B/cdf_A increasing, equivalently
    rev_hazard_A <= rev_hazard_B."""
    return _ratio_and_rate_check(RH, A, B, grid, B.cdf, A.cdf,
                                 A.rev_hazard, B.rev_hazard, rate_sign=-1)


def check_lr(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_lr B: pdf_B/pdf_A non-decreasing."""
    grid, xs = _x_grid(A, B, grid)
    rxs, ratios = [], []
    for x in xs:
        fa, fb = A.pdf(x), B.pdf(x)
        if fa < _TINY or not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        rxs.append(x)
        ratios.append(fb / fa)
    if len(ratios) < 2:
        return OrderVerdict(LR, INCONCLUSIVE, None, grid)
    viol = _monotone_violation(rxs, ratios, grid.tau_mono)
    if viol is not None:
        return OrderVerdict(LR, FAILS, viol, grid)
    return OrderVerdict(LR, HOLDS, None, grid)


def check_disp(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_disp B: quantile_B(u) - quantile_A(u) non-decreasing in u."""
    grid, us = _u_grid(grid)
    try:
        qas, qbs = A.quantiles(us), B.quantiles(us)
    except (SupportError, OverflowError):
        return OrderVerdict(DISP, INCONCLUSIVE, None, grid)
    diffs = []
    for qa, qb in zip(qas, qbs):
        if not (math.isfinite(qa) and math.isfinite(qb)):
            return OrderVerdict(DISP, INCONCLUSIVE, None, grid)
        diffs.append(qb - qa)
    viol = _monotone_violation(us, diffs, grid.tau_mono)
    if viol is not None:
        return OrderVerdict(DISP, FAILS, viol, grid)
    return OrderVerdict(DISP, HOLDS, None, grid)


def check_star(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_* B: quantile_B(u)/quantile_A(u) non-decreasing in u.

    Undefined unless both quantile functions are strictly positive on the
    u-grid (the star order is a scale-free comparison of positive lifetimes).
    """
    grid, us = _u_grid(grid)
    ratios = []
    for qa, qb in zip(A.quantiles(us), B.quantiles(us)):
        if qa <= 0.0 or qb <= 0.0:
            raise SupportError("star order needs strictly positive quantiles")
        if not (math.isfinite(qa) and math.isfinite(qb)):
            return OrderVerdict(STAR, INCONCLUSIVE, None, grid)
        ratios.append(qb / qa)
    viol = _monotone_violation(us, ratios, grid.tau_mono)
    if viol is not None:
        return OrderVerdict(STAR, FAILS, viol, grid)
    return OrderVerdict(STAR, HOLDS, None, grid)


CHECKERS = {
    ST: check_st,
    HR: check_hr,
    RH: check_rh,
    LR: check_lr,
    DISP: check_disp,
    STAR: check_star,
}
