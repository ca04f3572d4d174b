"""Minima and maxima of heterogeneous independent PHR/PRHR components.

A series system of PHR components has survival prod_i sf_i(x)**a_i; a
parallel system of PRHR components has cdf prod_i cdf_i(x)**a_i.  The two
sides share one body per quantity; what differs (sf or cdf, hazard or
rev_hazard, the tail and the support end) is data in the ``_SIDES`` table.
When all components share one baseline the product collapses to a single
power, which gives closed-form quantiles.  Mixed-baseline systems invert
the cumulative hazard -log sf (series) or log cdf (parallel) by safeguarded
Newton steps, whose derivative is the system's rate sum.  The quantile
``column`` sweeps a u-grid, and ``quantile_parts`` sweeps it a part at a
time: a shared-baseline system computes its exponent once and applies the
closed form to each u; a mixed-baseline one solves for each u, and in parts
solves a part's roots only when the part is drawn, so the disp and star
checkers, which stop at their first violation, run no solve past the last
part they read, and every root drawn is the column's bit for bit.  It seeds
its first solve from its components' quantiles, which bracket the root, and
starts each later solve from a root predicted by the last (up to three)
solves: their targets and roots extrapolated to the new target by Newton
divided differences (`_predict`), or the previous root where that
prediction is undefined or leaves the support; a one-point column, which is
``quantile``, predicts nothing.  A shared-baseline column where some level
1-(1-u)**(1/sum p) or u**(1/sum p) rounds off, so that its baseline has no
quantile there, is solved as a mixed one.
``rate_sweep`` gives a system's sf or cdf and its own rate (hazard for
series, rev_hazard for parallel) on a whole grid, sweeping each baseline
once, for the hr and rh checkers; the other rate is swept point by point.
The pdf column, which the lr checker reads (the Weibull minima of the
large-grid-oracle benchmark), is product times rate sum from that one
sweep.  Every other column is the base class's per-point one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .distributions import Distribution, _bad_prob, dist_from_json
from .errors import (MomentUndefinedError, ParameterDomainError, SupportError, check_count,
                     check_positive, check_real)
from .quadrature import adaptive_quad
from .special import bisect_increasing, left_sum

SERIES_PHR = "series_phr"
PARALLEL_PRHR = "parallel_prhr"


@dataclass(frozen=True)
class SystemSpec:
    """A series (PHR) or parallel (PRHR) system.

    ``split`` optionally partitions the components into a front block on one
    baseline and a back block on another; `front_sum` and `back_sum` add the
    parameters of a split system's blocks for the mixed-baseline hypotheses.
    """

    kind: str
    components: tuple[tuple[Distribution, float], ...]
    split: int | None = None

    def __post_init__(self):
        if self.kind not in (SERIES_PHR, PARALLEL_PRHR):
            raise ParameterDomainError(f"unknown system kind {self.kind!r}")
        if not self.components:
            raise ParameterDomainError("system needs at least one component")
        for _, prop in self.components:
            check_positive("prop", prop)
        if self.split is not None:
            check_count("split", self.split, 1)
            if self.split >= len(self.components):
                raise ParameterDomainError("split must partition the component list")
            blocks = (self.components[: self.split], self.components[self.split:])
            if any(len({b for b, _ in block}) > 1 for block in blocks):
                raise ParameterDomainError("each split block must share one baseline")

    @property
    def props(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.components)

    def prop_sum(self) -> float:
        return left_sum(self.props)

    def front_sum(self) -> float:
        return left_sum(self.props[: self.split])

    def back_sum(self) -> float:
        return left_sum(self.props[self.split:])

    def same_baseline(self) -> Distribution | None:
        first = self.components[0][0]
        if all(b == first for b, _ in self.components[1:]):
            return first
        return None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "components": [{"baseline": b.to_json(), "prop": p} for b, p in self.components],
        }
        if self.split is not None:
            out["split"] = self.split
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SystemSpec":
        try:
            comps = tuple(
                (dist_from_json(c["baseline"]), check_real("prop", c["prop"]))
                for c in obj["components"])
            return cls(kind=obj["kind"], components=comps, split=obj.get("split"))
        except (KeyError, TypeError) as exc:
            cause = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ParameterDomainError(f"bad system spec {obj!r}: {cause}") from exc


def _single_baseline(kind, baseline, props, split=None) -> SystemSpec:
    return SystemSpec(kind, tuple((baseline, check_real("prop", p)) for p in props), split)


def _mixed(kind, front, front_props, back, back_props) -> SystemSpec:
    """A system split after its front block, on one baseline per block."""
    front_props = tuple(front_props)
    comps = tuple((front, check_real("prop", p)) for p in front_props)
    comps += tuple((back, check_real("prop", p)) for p in back_props)
    return SystemSpec(kind, comps, split=len(front_props))


series_phr = partial(_single_baseline, SERIES_PHR)
parallel_prhr = partial(_single_baseline, PARALLEL_PRHR)
mixed_series = partial(_mixed, SERIES_PHR)
mixed_parallel = partial(_mixed, PARALLEL_PRHR)


# What differs between the two sides, by kind: the baseline value the
# system multiplies, the rate it sums, the tail where that rate is
# undefined, and the end of the component support ends it takes.
_SIDES = {
    SERIES_PHR: ("sf", "hazard", "right tail", min),
    PARALLEL_PRHR: ("cdf", "rev_hazard", "left tail", max),
}


def _predict(ys, xs, y):
    """The root at target y extrapolated from the last (up to three) solved
    targets ys and roots xs: Newton's divided-difference polynomial through
    them, of degree <= 2, so one solve predicts its own root.  nan where two
    of those targets repeat."""
    x2, y2 = xs[-1], ys[-1]
    if len(ys) == 1:
        return x2
    try:
        d12 = (x2 - xs[-2]) / (y2 - ys[-2])
        if len(ys) == 2:
            return x2 + d12 * (y - y2)
        d012 = (d12 - (xs[-2] - xs[-3]) / (ys[-2] - ys[-3])) / (y2 - ys[-3])
    except ZeroDivisionError:
        return math.nan
    return x2 + (y - y2) * (d12 + d012 * (y - ys[-2]))


class OrderStatDist(Distribution):
    """Distribution of the min (series) or max (parallel) of a SystemSpec.

    Exposes the same functional surface as a baseline distribution, so the
    order checkers treat systems and plain distributions interchangeably.
    Both sides share one body per quantity, with the side's row of `_SIDES`
    as data: `_product` multiplies the baselines' sf (series) or cdf
    (parallel), `_rate_sum` adds p * hazard or rev_hazard left to right
    (`left_sum` inlined, as it runs at every point), and `_log_value` is
    -log sf or log cdf, the increasing function a mixed solve inverts.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        value, self._rate, self._tail, self._end = _SIDES[spec.kind]
        self._series = value == "sf"
        self._comps = spec.components
        self._shared = spec.same_baseline()
        self._support = (self._end([b.support[0] for b, _ in self._comps]),
                         self._end([b.support[1] for b, _ in self._comps]))

    @property
    def support(self):
        return self._support

    def _product(self, x):
        series = self._series
        out = 1.0
        for b, p in self._comps:
            v = b.sf(x) if series else b.cdf(x)
            if v == 0.0:
                return 0.0
            out *= v ** p
        return out

    def _rate_sum(self, x):
        series = self._series
        total = 0.0
        for b, p in self._comps:
            total += p * (b.hazard(x) if series else b.rev_hazard(x))
        return total

    def _log_value(self, x):
        v = self._product(x)
        if self._series:
            return -math.log(v) if v > 0.0 else math.inf
        return math.log(v) if v > 0.0 else -math.inf

    def _own_rate(self, x):
        if self._product(x) <= 0.0:
            raise SupportError(self._tail)
        return self._rate_sum(x)

    def sf(self, x):
        v = self._product(x)
        return v if self._series else 1.0 - v

    def cdf(self, x):
        v = self._product(x)
        return 1.0 - v if self._series else v

    def pdf(self, x):
        lo, hi = self.support
        if not (lo <= x <= hi):
            return 0.0
        v = self._product(x)
        return v * self._rate_sum(x) if v > 0.0 else 0.0

    def hazard(self, x):
        return self._own_rate(x) if self._series else super().hazard(x)

    def rev_hazard(self, x):
        return super().rev_hazard(x) if self._series else self._own_rate(x)

    def rate_sweep(self, rate, xs):
        """`Distribution.rate_sweep`.  A system sweeps only its own rate
        (hazard for series, rev_hazard for parallel) component by component:
        each distinct baseline sweeps that rate once, and the product and
        the rate sum follow `_product` and `_rate_sum` in their arithmetic
        order.  The product multiplies from 1.0 in component order (a zero
        factor keeps it at 0.0, as the early return of `_product` does) and
        each point's rate adds p * rate left to right, as `_rate_sum` does.
        The other rate is the base-class per-point sweep."""
        if rate != self._rate:
            return super().rate_sweep(rate, xs)
        columns = {}
        for b, _ in self._comps:
            if b not in columns:
                columns[b] = b.rate_sweep(rate, xs)
        product, totals = [1.0] * len(xs), [0.0] * len(xs)
        for b, p in self._comps:
            values, rates = columns[b]
            product = [v * s ** p for v, s in zip(product, values)]
            totals = [None if t is None or r is None else t + p * r
                      for t, r in zip(totals, rates)]
        return product, [None if v <= 0.0 else t for v, t in zip(product, totals)]

    def column(self, name, us):
        """`Distribution.column`.  The pdf column is `pdf` at every point:
        product times rate sum from one `rate_sweep` of the own rate, 0.0
        off the closed support or where the product is 0, None where the rate
        sum is undefined.  The quantile column is one sweep, which raises
        what a solve raises.  Each u maps to the component level t =
        1-(1-u)**(1/sum p) (series) or u**(1/sum p) (parallel).  A
        shared-baseline system reads its baseline's quantile column at the
        levels t.  Where its baseline has no quantile at some t (t rounds to
        0 or 1, or 1-t to 1 for a reflection), it solves, as a
        mixed-baseline system does: the cumulative hazard (series) or log
        cdf (parallel) for each u, with the rate sum as derivative.  The
        first solve starts inside [min_i Q_i(t), max_i Q_i(t)] over the
        component quantiles Q_i, which holds the root (`_seed`), so a mixed
        system computes only its level t.  Each later solve starts where
        `_predict` extrapolates the last (up to three) targets and roots to
        its own target, or from the previous root where that prediction is
        undefined or leaves the support.  A start is only a guess, so
        neither it nor the order of ``us`` matters beyond the solver
        tolerances."""
        if name == "pdf":
            lo, hi = self.support
            product, totals = self.rate_sweep(self._rate, us)
            return [0.0 if not (lo <= x <= hi) or v <= 0.0 else None if t is None else v * t
                    for x, v, t in zip(us, product, totals)]
        if name != "quantile":
            return super().column(name, us)
        closed = self._closed_form(us)
        return closed if closed is not None else self._solve(us, [], [])

    def quantile_parts(self, us, size):
        """`Distribution.quantile_parts`.  A shared-baseline system slices
        its closed-form column, computed at the first draw.  A solved column
        solves each part's roots when the part is drawn, from the roots
        before them, so a reader that stops early runs no solve past its
        last part, and the roots it draws are the column's bit for bit."""
        closed = self._closed_form(us)
        roots, targets = [], []
        for k in range(0, len(us), size):
            yield (closed[k:k + size] if closed is not None
                   else self._solve(us[k:k + size], roots, targets)[k:])

    def _closed_form(self, us):
        """Refuse a u outside (0, 1).  A shared-baseline system's quantiles
        at ``us``: its baseline's quantile column at the levels t; None for
        a mixed-baseline system, and where a level rounds off, so that the
        baseline has no quantile there."""
        for u in us:
            if not 0.0 < u < 1.0:
                _bad_prob(u)
        if self._shared is None:
            return None
        p = 1.0 / self.spec.prop_sum()
        try:
            return self._shared.column(
                "quantile", [1.0 - (1.0 - u) ** p if self._series else u ** p for u in us])
        except ParameterDomainError:  # a level rounds off: no baseline quantile there
            return None

    def _solve(self, us, out, targets):
        """``out``, extended by the solved quantiles at ``us`` (and
        ``targets`` by their targets).  Each solve starts from the roots
        before it, so a column solved in consecutive slices has the roots
        of one sweep, bit for bit."""
        series = self._series
        p = 1.0 / self.spec.prop_sum()
        lo, hi = self.support
        for u in us:
            target = -math.log1p(-u) if series else math.log(u)
            if out:
                guess = _predict(targets, out, target)
                if not lo < guess < hi:  # also a nan prediction
                    guess = out[-1]
            else:
                guess = self._seed(1.0 - (1.0 - u) ** p if series else u ** p)
            targets.append(target)
            out.append(bisect_increasing(self._log_value, target, guess, lo_bound=lo,
                                         hi_bound=hi, dfn=self._rate_sum))
        return out

    def _seed(self, t):
        """The middle of [min_i Q_i(t), max_i Q_i(t)].  At the low end every
        component has sf_i >= 1-t (cdf_i <= t), so the system has
        sf >= (1-t)**sum p = 1-u (cdf <= u); the high end gives the reverse,
        so the root lies in between.  It skips a component quantile that
        overflows or has no level (1-t rounds to 1 for a reflection); where
        t rounds to 0 or 1, or no component quantile is left finite, it is
        the middle of the support clipped to [-1, 1]."""
        qs = []
        if 0.0 < t < 1.0:
            for b in dict.fromkeys(b for b, _ in self._comps):
                try:
                    q = b.quantile(t)
                except (OverflowError, ParameterDomainError):
                    continue
                if math.isfinite(q):
                    qs.append(q)
        if not qs:
            lo, hi = self.support
            return 0.5 * (max(lo, -1.0) + min(hi, 1.0))
        return 0.5 * (min(qs) + max(qs))

    def to_json(self):
        return self.spec.to_json()

    def tail_exponents(self):
        """(left, right): on its own tail (right for series, left for
        parallel) the product multiplies the decay rates; on the other the
        heaviest component tail dominates."""
        lefts, rights = zip(*(b.tail_exponents() for b, _ in self._comps))
        props = [p for _, p in self._comps]
        if self._series:
            return (min(lefts), left_sum([p * e for p, e in zip(props, rights)]))
        return (left_sum([p * e for p, e in zip(props, lefts)]), min(rights))


# -- module-level operations ----------------------------------------------

def weibull_min_variance(ks, a: float) -> float:
    """Variance of the minimum of independent Weibull lifetimes with common
    shape a and rates ks: (1/sum k)**(2/a) * (G(2/a+1) - G(1/a+1)**2)."""
    ks = list(ks)
    if not ks:
        raise ParameterDomainError("weibull_min_variance needs at least one rate")
    for v in (a, *ks):
        check_positive("shape and rates", v)
    total = left_sum(ks)
    g2 = math.gamma(2.0 / a + 1.0)
    g1 = math.gamma(1.0 / a + 1.0)
    return (1.0 / total) ** (2.0 / a) * (g2 - g1 * g1)


def lomax_min_moments(alphas) -> tuple[float, float]:
    """Mean and variance of the minimum of independent Lomax lifetimes with
    scale 1 and shapes alphas (exists for sum > 1 resp. sum > 2)."""
    alphas = list(alphas)
    if not alphas:
        raise ParameterDomainError("lomax_min_moments needs at least one shape")
    for a in alphas:
        check_positive("shape", a)
    total = left_sum(alphas)
    if total <= 1.0:
        raise MomentUndefinedError(
            f"mean needs sum(alphas) > 1, got {total}", threshold=1.0)
    mean = 1.0 / (total - 1.0)
    if total <= 2.0:
        raise MomentUndefinedError(
            f"variance needs sum(alphas) > 2, got {total}", threshold=2.0)
    var = total / ((total - 2.0) * (total - 1.0) ** 2)
    return mean, var


def numeric_moment(o: OrderStatDist, order: int) -> float:
    """Raw moment E[X**order] by adaptive quadrature of x**order dF."""
    if order not in (1, 2):
        raise ParameterDomainError("only first and second moments supported")
    left, right = o.tail_exponents()
    if min(left, right) <= order:
        raise MomentUndefinedError(
            f"moment of order {order} diverges (tail exponents {left:g}, "
            f"{right:g})", threshold=float(order))
    lo, hi = o.support
    return adaptive_quad(lambda x: x ** order * o.pdf(x), lo, hi)


def numeric_mean_variance(o: OrderStatDist) -> tuple[float, float]:
    m1 = numeric_moment(o, 1)
    m2 = numeric_moment(o, 2)
    return m1, m2 - m1 * m1
