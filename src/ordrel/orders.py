"""Numerical checkers for the six stochastic orders.

Each checker works on any pair of objects exposing the distribution surface
(baseline distributions, order-statistic distributions, or the dependent
min/max wrappers).  hr and rh read it through `rate_sweep`, which gives the
sf or cdf column and the rate column of a side on a grid; lr reads each
side's pdf column, and disp and star each side's `quantile_parts`.
Verdicts are three-valued: a tail or degeneracy guard can make a check
inconclusive, so numerical trouble never masquerades as a mathematical
violation.  Ties at the tolerance resolve toward "holds" since all six
orders are non-strict.  Every verdict comes from `_verdict`: it fails at
a violation, else holds if the rule had its points, else is inconclusive.

Two rules judge the six checks.  One pointwise rule (`_exceeds`, within
``tau_pt``) judges st and the rate form of hr/rh.  One monotone rule
(`grids.first_decrease`, within ``tau_mono``) judges the ratio form of
hr/rh, lr and the quantile spreads.  One quantile-order body
(`_check_quantile_spread`) serves disp and star, which differ only in the
spread passed in: the difference of the quantiles for disp, their ratio for
star.  hr and rh read each part once for their two forms, the ratio and
the rate comparison, which meet in `_verdict`.

Every check reads its grid in grid order and stops once its verdict is
decided, so a pair that fails early reads a few points, not the grid.  hr,
rh, lr, disp and star read `_SWEEP_POINTS` grid points at a time, and judge
each part by the monotone rule from the last value of the part before it;
a grid of at most `_SWEEP_POINTS` points is one part.  hr and rh stop once
both forms have failed, lr and the quantile spreads at the part with their
first decrease.  lr skips a point where a pdf is unusable, so the parts
after its first decrease cannot change its verdict.  An unusable quantile
(undefined, not finite, or raising) in a part read makes disp and star
inconclusive, and so does an unusable quantile at the grid's last u,
which a grid of more than one part reads first: a quantile function is
non-decreasing and so overflows at its top end.  st reads
fewer points still.  Both survival functions are non-increasing, so
sf_A(x_i) <= sf_B(x_j) (within ``tau_pt``) with i < j means the rule holds
at every grid point between x_i and x_j.  `check_st` reads both ends of the
grid and bisects, left first, every interval that bracket leaves open, down
to neighbouring points, and stops at the first point in grid order that
violates the rule or where A.sf or B.sf raised.  Each check's verdict and
witness are those of its rule read at every point left to right, except
that an error at a point never read is never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import SupportError, defined_at
from .grids import GridSpec, first_decrease

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

ST, HR, RH, LR, DISP, STAR = "st", "hr", "rh", "lr", "disp", "star"

_TINY = 1e-300
# Grid points per part: a large grid is read in parts, in grid order, so
# that a check stops reading once its verdict is decided.
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


def _verdict(relation, grid, viol, decided: bool, unsure=None) -> OrderVerdict:
    """The one verdict rule: fails at ``viol``, else holds if the rule had
    its points, else inconclusive (at ``unsure``, if given)."""
    outcome = FAILS if viol else HOLDS if decided else INCONCLUSIVE
    return OrderVerdict(relation, outcome, viol or (None if decided else unsure), grid)


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
            va, vb = defined_at(A.sf, x), defined_at(B.sf, x)  # A's first
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

    Runs both equivalent formulations in one pass over each part:
    monotonicity of the ratio value_B(x)/value_A(x) and the pointwise rate
    comparison, where A's rate is the larger side when `a_larger`, up to
    its first violation.  Both failing fails at the rate witness; a
    disagreement is inconclusive, at the ratio witness if there is one,
    rather than silently choosing one formulation.
    """
    grid, xs = _x_grid(A, B, grid)
    tau_pt, isfinite = grid.tau_pt, math.isfinite
    ratio_xs, ratios = [], []
    ratio_viol, rate_viol, rate_usable = None, None, 0
    for i in range(0, len(xs), _SWEEP_POINTS):
        part = xs[i:i + _SWEEP_POINTS]
        dens, rates_a = A.rate_sweep(rate, part)
        nums, rates_b = B.rate_sweep(rate, part)
        seen = max(len(ratios) - 1, 0)  # the new adjacent pairs start here
        for x, den, num, ra, rb in zip(part, dens, nums, rates_a, rates_b):
            if not den < _TINY:
                ratio_xs.append(x)
                ratios.append(num / den)
            if (rate_viol is None and ra is not None and rb is not None
                    and isfinite(ra) and isfinite(rb)):
                rate_usable += 1
                if _exceeds(rb, ra, tau_pt) if a_larger else _exceeds(ra, rb, tau_pt):
                    rate_viol = (x, ra, rb)
        if ratio_viol is None:
            ratio_viol = first_decrease(ratio_xs[seen:], ratios[seen:], grid.tau_mono)
        if ratio_viol is not None and rate_viol is not None:
            break  # both formulations have failed: the rest cannot change the verdict
    held = ratio_viol is None and rate_viol is None and len(ratios) >= 2 and rate_usable >= 2
    return _verdict(relation, grid, ratio_viol and rate_viol, held, ratio_viol or rate_viol)


def check_hr(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_hr B: sf_B/sf_A increasing, equivalently hazard_A >= hazard_B."""
    return _ratio_and_rate_check(HR, A, B, grid, "hazard", a_larger=True)


def check_rh(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_rh B: cdf_B/cdf_A increasing, equivalently
    rev_hazard_A <= rev_hazard_B."""
    return _ratio_and_rate_check(RH, A, B, grid, "rev_hazard", a_larger=False)


def check_lr(A, B, grid: GridSpec | None = None) -> OrderVerdict:
    """A <=_lr B: pdf_B/pdf_A non-decreasing, on both sides' pdf columns,
    skipping points where either pdf is undefined or not finite, or A's
    is below `_TINY`.  The columns are read `_SWEEP_POINTS` grid points at
    a time, up to the part with the first decrease.  A skipped point is no
    event, so lr needs no end rule: its verdict and witness are those of
    the whole columns."""
    grid, xs = _x_grid(A, B, grid)
    rxs, ratios, viol = [], [], None
    isfinite = math.isfinite
    for i in range(0, len(xs), _SWEEP_POINTS):
        part = xs[i:i + _SWEEP_POINTS]
        seen = max(len(ratios) - 1, 0)  # the new adjacent pairs start here
        for x, fa, fb in zip(part, A.column("pdf", part), B.column("pdf", part)):
            if fa is None or fb is None or fa < _TINY or not (isfinite(fa) and isfinite(fb)):
                continue
            rxs.append(x)
            ratios.append(fb / fa)
        viol = first_decrease(rxs[seen:], ratios[seen:], grid.tau_mono)
        if viol is not None:
            break
    return _verdict(LR, grid, viol, len(ratios) >= 2)


def _differences(qas, qbs) -> list[float]:
    return [qb - qa for qa, qb in zip(qas, qbs)]


def _positive_ratios(qas, qbs) -> list[float]:
    # the star order is a scale-free comparison of positive lifetimes
    if min(qas) <= 0.0 or min(qbs) <= 0.0:
        raise SupportError("star order needs strictly positive quantiles")
    return [qb / qa for qa, qb in zip(qas, qbs)]


def _read_quantiles(read_a, read_b):
    """The quantile lists that ``read_a()`` and ``read_b()`` return, in
    that order, or None where a quantile in one of them overflows, is
    undefined (None, on which `math.isfinite` raises TypeError) or is not
    finite."""
    try:
        qas, qbs = read_a(), read_b()
        if all(map(math.isfinite, qas)) and all(map(math.isfinite, qbs)):
            return qas, qbs
    except (SupportError, OverflowError, TypeError):
        pass
    return None


def _check_quantile_spread(relation, A, B, grid, spread) -> OrderVerdict:
    """The one quantile-order body: spread(quantiles_A, quantiles_B) must
    be non-decreasing on the u-grid.  Both sides' quantiles are drawn from
    their `Distribution.quantile_parts` `_SWEEP_POINTS` points at a time,
    A's before B's, and each part is judged by the monotone rule from the
    last spread of the part before it, up to the part with the first
    decrease.  An unusable quantile in a part (`_read_quantiles`) makes the
    check inconclusive.  A grid of more than one part first reads both
    sides' quantiles at its last u, each a one-point column: if either is
    unusable the check is inconclusive.  A quantile function is
    non-decreasing, so it overflows at its top end: a usable last u means
    every point is usable, and a violation, or a refusal of the spread
    (SupportError), in an early part is that of the whole columns."""
    if grid is None:
        grid = GridSpec(kind=grid_kind(relation))
    us = grid.u_points()
    if len(us) > _SWEEP_POINTS and _read_quantiles(
            partial(A.column, "quantile", us[-1:]), partial(B.column, "quantile", us[-1:])) is None:
        return _verdict(relation, grid, None, False)
    read_a = partial(next, A.quantile_parts(us, _SWEEP_POINTS))
    read_b = partial(next, B.quantile_parts(us, _SWEEP_POINTS))
    last = []  # the last spread of the part before
    for i in range(0, len(us), _SWEEP_POINTS):
        read = _read_quantiles(read_a, read_b)
        if read is None:
            return _verdict(relation, grid, None, False)
        values = last + spread(*read)
        viol = first_decrease(us[i - len(last):i + _SWEEP_POINTS], values, grid.tau_mono)
        if viol is not None:
            return _verdict(relation, grid, viol, False)
        last = values[-1:]
    return _verdict(relation, grid, None, True)


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


def grid_kind(key: str) -> str:
    """The kind of grid a relation's check (or a theorem's grid `key`)
    reads: disp and star compare quantiles on a u-grid; every other key
    is an x-grid."""
    return "u" if key in (DISP, STAR) else "x"
