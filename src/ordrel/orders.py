"""Numerical checkers for the six stochastic orders.

Each checker works on any pair of objects exposing the distribution surface
(baseline distributions, order-statistic distributions, or the dependent
min/max wrappers).  hr and rh read it through `rate_sweep`, which gives the
sf or cdf column and the rate column of a side on a whole grid (in parts of
`_SWEEP_POINTS` points on a large grid).
Verdicts are three-valued: a tail or degeneracy guard can make a check
inconclusive, so numerical trouble never masquerades as a mathematical
violation.  Ties at the tolerance resolve toward "holds" since all six
orders are non-strict.

Three bodies carry the six checks.  One pointwise rule (`_exceeds`, within
``tau_pt``) judges st and the rate form of hr/rh.  One monotone rule
(`grids.first_decrease`, within ``tau_mono``) judges the ratio form of
hr/rh, lr and the quantile spreads.  One quantile-order body
(`_check_quantile_spread`) serves disp and star, which differ only in the
spread passed in: the difference of the quantiles for disp, their ratio for
star.  Each side's quantiles are one `Distribution.column`, read in one
pass: an undefined (None) or non-finite quantile makes the check
inconclusive.

st reads only the grid points it needs.  Both survival functions are
non-increasing, so sf_A(x_i) <= sf_B(x_j) (within ``tau_pt``) with i < j
means the rule holds at every grid point between x_i and x_j.  `check_st`
reads both ends of the grid and bisects, left first, every interval that
bracket leaves open, down to neighbouring points.  It stops at the first
point in grid order that violates the rule or where A.sf or B.sf raised.
Its verdict and witness are those of the rule read at every point left to
right, except that an error at a point inside a bracketed interval is
never raised, as that point is never read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SupportError
from .grids import GridSpec, first_decrease

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

ST, HR, RH, LR, DISP, STAR = "st", "hr", "rh", "lr", "disp", "star"

_TINY = 1e-300
# Grid points per sweep in the hr/rh checks: a large grid is swept in parts,
# so that a check stops sweeping once both formulations have failed.
_SWEEP_POINTS = 256


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


def _exceeds(small: float, large: float, tau: float) -> bool:
    """The one pointwise rule: `small` <= `large` within tau*(1 + |large|)
    fails."""
    return small > large + tau * (1.0 + abs(large))


def _pointwise(xs, fas, fbs, tau: float, a_larger: bool = False):
    """`_exceeds` over the paired values ``fas`` and ``fbs`` (in step with
    ``xs``): fa(x) <= fb(x), or >= with `a_larger`, skipping points where
    either is None (undefined) or not finite.  Returns the number of usable
    points and the first violation (x, fa(x), fb(x)), or None."""
    usable = 0
    isfinite = math.isfinite
    for x, va, vb in zip(xs, fas, fbs):
        if va is None or vb is None or not (isfinite(va) and isfinite(vb)):
            continue
        usable += 1
        if _exceeds(vb, va, tau) if a_larger else _exceeds(va, vb, tau):
            return usable, (x, va, vb)
    return usable, None


def _verdict(relation, grid, viol, decided: bool) -> OrderVerdict:
    """Fails at ``viol``, else holds if the rule had its points, else inconclusive."""
    outcome = FAILS if viol else HOLDS if decided else INCONCLUSIVE
    return OrderVerdict(relation, outcome, viol, grid)


def _sf_pair(A, B, x):
    """(sf_A(x), sf_B(x)), A's read first, each None where it raises
    SupportError."""
    try:
        va = A.sf(x)
    except SupportError:
        va = None
    try:
        vb = B.sf(x)
    except SupportError:
        vb = None
    return va, vb


def check_st(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_st B: sf_A(x) <= sf_B(x) everywhere, by the pointwise rule at
    the grid points that the sf brackets leave open (module docstring)."""
    grid, xs = _x_grid(A, B, grid)
    tau, n = grid.tau_pt, len(xs)
    isfinite = math.isfinite
    fas, fbs = [None] * n, [None] * n  # both sides' sf at the usable points read
    usable, viol, error = False, None, None
    # (i, j): the points strictly between i and j are open, leftmost on top;
    # -1 and n lie outside the grid, so the two ends are read first
    stack = [(-1, n)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        if i >= 0 and j < n:
            fa, fb = fas[i], fbs[j]
            if fa is not None and fb is not None and not _exceeds(fa, fb, tau):
                continue  # sf_A(x) <= sf_A(x_i) and sf_B(x_j) <= sf_B(x) between them
        k = 0 if i < 0 else n - 1 if j == n else (i + j) // 2
        x = xs[k]
        try:
            va, vb = _sf_pair(A, B, x)
        except Exception as exc:  # any error is an event: raised unless an earlier one is found
            viol, error, stack = None, exc, [(i, k)]
            continue
        if va is not None and vb is not None and isfinite(va) and isfinite(vb):
            usable = True
            fas[k], fbs[k] = va, vb
            if _exceeds(va, vb, tau):
                viol, error, stack = (x, va, vb), None, [(i, k)]
                continue
        stack += ((k, j), (i, k))
    if error is not None:
        try:
            raise error
        finally:
            error = None  # the traceback holds this frame: no cycle through it
    return _verdict(ST, grid, viol, usable)


def _ratio_and_rate_check(relation, A, B, grid, rate, a_larger: bool) -> OrderVerdict:
    """Shared body of the hr and rh checks, on `rate_sweep`s of A and B:
    the value columns sf (hr) or cdf (rh) and the rate columns, swept
    `_SWEEP_POINTS` grid points at a time until both formulations fail.

    Runs both equivalent formulations: monotonicity of the ratio
    value_B(x)/value_A(x) and the pointwise rate comparison, where A's rate
    is the larger side when `a_larger`.  Disagreement between the two is
    reported as inconclusive rather than silently choosing one.
    """
    grid, xs = _x_grid(A, B, grid)
    ratio_xs, ratios = [], []
    ratio_viol = rate_viol = None
    rate_usable = 0
    for i in range(0, len(xs), _SWEEP_POINTS):
        part = xs[i:i + _SWEEP_POINTS]
        dens, rate_a = A.rate_sweep(rate, part)
        nums, rate_b = B.rate_sweep(rate, part)
        seen = max(len(ratios) - 1, 0)  # the new adjacent pairs start here
        for x, den, num in zip(part, dens, nums):
            if den < _TINY:
                continue
            ratio_xs.append(x)
            ratios.append(num / den)
        if ratio_viol is None:
            ratio_viol = first_decrease(ratio_xs[seen:], ratios[seen:], grid.tau_mono)
        if rate_viol is None:
            usable, rate_viol = _pointwise(part, rate_a, rate_b, grid.tau_pt, a_larger)
            rate_usable += usable
        if ratio_viol is not None and rate_viol is not None:
            break  # both formulations have failed: the rest cannot change the verdict

    ratio_ok = ratio_viol is None and len(ratios) >= 2
    rate_ok = rate_viol is None and rate_usable >= 2
    if ratio_ok and rate_ok:
        return OrderVerdict(relation, HOLDS, None, grid)
    if ratio_viol is not None and rate_viol is not None:
        return OrderVerdict(relation, FAILS, rate_viol, grid)
    return OrderVerdict(relation, INCONCLUSIVE, ratio_viol or rate_viol, grid)


def check_hr(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_hr B: sf_B/sf_A increasing, equivalently hazard_A >= hazard_B."""
    return _ratio_and_rate_check(HR, A, B, grid, "hazard", a_larger=True)


def check_rh(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_rh B: cdf_B/cdf_A increasing, equivalently
    rev_hazard_A <= rev_hazard_B."""
    return _ratio_and_rate_check(RH, A, B, grid, "rev_hazard", a_larger=False)


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
    return _verdict(LR, grid, first_decrease(rxs, ratios, grid.tau_mono), len(ratios) >= 2)


def _differences(qas, qbs) -> list[float]:
    return [qb - qa for qa, qb in zip(qas, qbs)]


def _positive_ratios(qas, qbs) -> list[float]:
    # the star order is a scale-free comparison of positive lifetimes
    if min(qas) <= 0.0 or min(qbs) <= 0.0:
        raise SupportError("star order needs strictly positive quantiles")
    return [qb / qa for qa, qb in zip(qas, qbs)]


def _check_quantile_spread(relation, A, B, grid, spread) -> OrderVerdict:
    """The one quantile-order body: spread(quantiles_A, quantiles_B) must
    be non-decreasing on the u-grid, whose quantiles each side gives as one
    `Distribution.column`.  A quantile that overflows, is undefined (None,
    on which `math.isfinite` raises TypeError) or is not finite makes the
    check inconclusive."""
    if grid is None:
        grid = GridSpec(kind="u")
    us = grid.u_points()
    try:
        qas, qbs = A.column("quantile", us), B.column("quantile", us)
        finite = all(map(math.isfinite, qas)) and all(map(math.isfinite, qbs))
    except (SupportError, OverflowError, TypeError):
        finite = False
    viol = first_decrease(us, spread(qas, qbs), grid.tau_mono) if finite else None
    return _verdict(relation, grid, viol, finite)


def check_disp(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_disp B: quantile_B(u) - quantile_A(u) non-decreasing in u."""
    return _check_quantile_spread(DISP, A, B, grid, _differences)


def check_star(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_* B: quantile_B(u)/quantile_A(u) non-decreasing in u.

    Undefined unless both quantile functions are strictly positive on the
    u-grid: a non-positive quantile raises SupportError.
    """
    return _check_quantile_spread(STAR, A, B, grid, _positive_ratios)


CHECKERS = {
    ST: check_st,
    HR: check_hr,
    RH: check_rh,
    LR: check_lr,
    DISP: check_disp,
    STAR: check_star,
}
