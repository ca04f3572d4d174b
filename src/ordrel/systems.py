"""Minima and maxima of heterogeneous independent PHR/PRHR components.

A series system of PHR components has survival prod_i sf_i(x)**a_i; a
parallel system of PRHR components has cdf prod_i cdf_i(x)**a_i.  When all
components share one baseline the product collapses to a single power, which
gives closed-form quantiles.  Mixed-baseline systems invert the cumulative
hazard -log sf (series) or log cdf (parallel) by safeguarded Newton steps,
whose derivative is the system's rate sum; ``quantiles`` sweeps a u-grid and
starts each solve from the previous root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Distribution, _check_prob, dist_from_json
from .errors import MomentUndefinedError, ParameterDomainError, SupportError
from .quadrature import adaptive_quad
from .special import bisect_increasing

SERIES_PHR = "series_phr"
PARALLEL_PRHR = "parallel_prhr"


@dataclass(frozen=True)
class SystemSpec:
    """A series (PHR) or parallel (PRHR) system.

    ``split`` optionally partitions the components into a front block on one
    baseline and a back block on another, which keeps blockwise parameter
    sums O(1) for the mixed-baseline hypothesis checks.
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
            if not (prop > 0.0 and math.isfinite(prop)):
                raise ParameterDomainError("proportionality parameters must be positive")
        if self.split is not None:
            if not (0 < self.split < len(self.components)):
                raise ParameterDomainError("split must partition the component list")
            fkeys = {str(b) for b, _ in self.components[: self.split]}
            bkeys = {str(b) for b, _ in self.components[self.split:]}
            if len(fkeys) > 1 or len(bkeys) > 1:
                raise ParameterDomainError("each split block must share one baseline")

    @property
    def props(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.components)

    def prop_sum(self) -> float:
        return sum(self.props)

    def front_sum(self) -> float:
        if self.split is None:
            return self.prop_sum()
        return sum(p for _, p in self.components[: self.split])

    def back_sum(self) -> float:
        if self.split is None:
            return 0.0
        return sum(p for _, p in self.components[self.split:])

    def same_baseline(self) -> Distribution | None:
        first = self.components[0][0]
        if all(str(b) == str(first) for b, _ in self.components[1:]):
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
                (dist_from_json(c["baseline"]), float(c["prop"])) for c in obj["components"]
            )
            return cls(kind=obj["kind"], components=comps, split=obj.get("split"))
        except (KeyError, TypeError) as exc:
            raise ParameterDomainError(f"bad system spec: {obj!r}") from exc


def series_phr(baseline: Distribution, props, split: int | None = None) -> SystemSpec:
    return SystemSpec(SERIES_PHR, tuple((baseline, float(p)) for p in props), split)


def parallel_prhr(baseline: Distribution, props, split: int | None = None) -> SystemSpec:
    return SystemSpec(PARALLEL_PRHR, tuple((baseline, float(p)) for p in props), split)


def mixed_series(front: Distribution, front_props, back: Distribution, back_props) -> SystemSpec:
    comps = tuple((front, float(p)) for p in front_props)
    comps += tuple((back, float(p)) for p in back_props)
    return SystemSpec(SERIES_PHR, comps, split=len(tuple(front_props)))


def mixed_parallel(front: Distribution, front_props, back: Distribution, back_props) -> SystemSpec:
    comps = tuple((front, float(p)) for p in front_props)
    comps += tuple((back, float(p)) for p in back_props)
    return SystemSpec(PARALLEL_PRHR, comps, split=len(tuple(front_props)))


class OrderStatDist(Distribution):
    """Distribution of the min (series) or max (parallel) of a SystemSpec.

    Exposes the same functional surface as a baseline distribution, so the
    order checkers treat systems and plain distributions interchangeably.
    """

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self._shared = spec.same_baseline()

    @property
    def family(self):  # type: ignore[override]
        return f"orderstat[{self.spec.kind}]"

    @property
    def support(self):
        los = [b.support[0] for b, _ in self.spec.components]
        his = [b.support[1] for b, _ in self.spec.components]
        if self.spec.kind == SERIES_PHR:
            return (min(los), min(his))
        return (max(los), max(his))

    # -- series (minimum) ------------------------------------------------
    def _min_sf(self, x):
        out = 1.0
        for b, p in self.spec.components:
            s = b.sf(x)
            if s == 0.0:
                return 0.0
            out *= s ** p
        return out

    def _min_rate(self, x):
        return sum(p * b.hazard(x) for b, p in self.spec.components)

    def _cum_hazard(self, x):
        s = self._min_sf(x)
        return -math.log(s) if s > 0.0 else math.inf

    # -- parallel (maximum) ----------------------------------------------
    def _max_cdf(self, x):
        out = 1.0
        for b, p in self.spec.components:
            c = b.cdf(x)
            if c == 0.0:
                return 0.0
            out *= c ** p
        return out

    def _max_rate(self, x):
        return sum(p * b.rev_hazard(x) for b, p in self.spec.components)

    def _log_cdf(self, x):
        c = self._max_cdf(x)
        return math.log(c) if c > 0.0 else -math.inf

    # -- common surface ---------------------------------------------------
    def sf(self, x):
        if self.spec.kind == SERIES_PHR:
            return self._min_sf(x)
        return 1.0 - self._max_cdf(x)

    def cdf(self, x):
        if self.spec.kind == SERIES_PHR:
            return 1.0 - self._min_sf(x)
        return self._max_cdf(x)

    def pdf(self, x):
        lo, hi = self.support
        if not (lo < x < hi):
            return 0.0
        if self.spec.kind == SERIES_PHR:
            s = self._min_sf(x)
            return s * self._min_rate(x) if s > 0.0 else 0.0
        c = self._max_cdf(x)
        return c * self._max_rate(x) if c > 0.0 else 0.0

    def hazard(self, x):
        if self.spec.kind == SERIES_PHR:
            if self._min_sf(x) <= 0.0:
                raise SupportError("right tail")
            return self._min_rate(x)
        return super().hazard(x)

    def rev_hazard(self, x):
        if self.spec.kind == PARALLEL_PRHR:
            if self._max_cdf(x) <= 0.0:
                raise SupportError("left tail")
            return self._max_rate(x)
        return super().rev_hazard(x)

    def quantile(self, u):
        base = self._shared
        if base is None:
            return self.quantiles((u,))[0]
        _check_prob(u)
        total = self.spec.prop_sum()
        if self.spec.kind == SERIES_PHR:
            # sf0(x)**total = 1-u
            return base.quantile(1.0 - (1.0 - u) ** (1.0 / total))
        return base.quantile(u ** (1.0 / total))

    def quantiles(self, us):
        """Quantiles in one sweep.  A mixed-baseline system solves the
        cumulative hazard (series) or log cdf (parallel) for each u, with
        the rate sum as derivative, starting from the previous root.  That
        root is only a guess, so the order of ``us`` does not matter beyond
        the solver tolerances."""
        if self._shared is not None:
            return super().quantiles(us)
        series = self.spec.kind == SERIES_PHR
        if series:
            fn, rate = self._cum_hazard, self._min_rate
        else:
            fn, rate = self._log_cdf, self._max_rate
        lo, hi = self.support
        guess = 0.5 * (max(lo, -1.0) + min(hi, 1.0))
        out = []
        for u in us:
            _check_prob(u)
            target = -math.log1p(-u) if series else math.log(u)
            guess = bisect_increasing(fn, target, guess, lo_bound=lo, hi_bound=hi, dfn=rate)
            out.append(guess)
        return out

    def tail_exponent(self):
        exps = []
        for b, p in self.spec.components:
            t = b.tail_exponent()
            exps.append(p * t if self.spec.kind == SERIES_PHR else t)
        if self.spec.kind == SERIES_PHR:
            return sum(exps)  # survival product multiplies the decay rates
        return min(exps)  # the heaviest component tail dominates the max


# -- module-level operations ----------------------------------------------

def lomax_g(alpha: float, u: float) -> float:
    """g(alpha) = alpha / (u**alpha - 1) for u = x/theta + 1 > 1."""
    if u <= 1.0:
        raise ParameterDomainError(f"lomax_g needs u > 1, got {u}")
    return alpha / (u ** alpha - 1.0)


def lomax_parallel_rev_hazard(alphas, theta: float, x: float) -> float:
    """Closed-form reversed hazard of the max of Lomax(alpha_i, theta)
    components: (1/(x+theta)) * sum_i g(alpha_i)."""
    if x <= 0.0:
        raise ParameterDomainError("closed form needs x > 0 (u > 1)")
    if theta <= 0.0:
        raise ParameterDomainError("theta must be positive")
    u = x / theta + 1.0
    return sum(lomax_g(a, u) for a in alphas) / (x + theta)


def weibull_min_variance(ks, a: float) -> float:
    """Variance of the minimum of independent Weibull lifetimes with common
    shape a and rates ks: (1/sum k)**(2/a) * (G(2/a+1) - G(1/a+1)**2)."""
    ks = list(ks)
    if a <= 0.0 or any(k <= 0.0 for k in ks):
        raise ParameterDomainError("shape and rates must be positive")
    total = sum(ks)
    g2 = math.gamma(2.0 / a + 1.0)
    g1 = math.gamma(1.0 / a + 1.0)
    return (1.0 / total) ** (2.0 / a) * (g2 - g1 * g1)


def lomax_min_moments(alphas) -> tuple[float, float]:
    """Mean and variance of the minimum of independent Lomax lifetimes with
    scale 1 and shapes alphas (exists for sum > 1 resp. sum > 2)."""
    alphas = list(alphas)
    if any(a <= 0.0 for a in alphas):
        raise ParameterDomainError("shapes must be positive")
    total = sum(alphas)
    if total <= 1.0:
        raise MomentUndefinedError(
            f"mean needs sum(alphas) > 1, got {total}", threshold=1.0)
    mean = 1.0 / (total - 1.0)
    if total <= 2.0:
        raise MomentUndefinedError(
            f"variance needs sum(alphas) > 2, got {total}", threshold=2.0)
    var = total / ((total - 2.0) * (total - 1.0) ** 2)
    return mean, var


def numeric_moment(o: OrderStatDist, order: int, rtol: float = 1e-9) -> float:
    """Raw moment E[X**order] by adaptive quadrature of x**order dF."""
    if order not in (1, 2):
        raise ParameterDomainError("only first and second moments supported")
    if o.tail_exponent() <= order:
        raise MomentUndefinedError(
            f"moment of order {order} diverges (tail exponent "
            f"{o.tail_exponent():g})", threshold=float(order))
    lo, hi = o.support
    return adaptive_quad(lambda x: x ** order * o.pdf(x), lo, hi, rtol=rtol)


def numeric_mean_variance(o: OrderStatDist) -> tuple[float, float]:
    m1 = numeric_moment(o, 1)
    m2 = numeric_moment(o, 2)
    return m1, m2 - m1 * m1
