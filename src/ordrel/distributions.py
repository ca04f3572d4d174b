"""Baseline lifetime distributions.

Each family exposes the full functional surface used by the order checkers:
cdf, sf, pdf, quantile, hazard and reversed hazard, plus a numeric ageing
classifier (IFR/DFR/IRHR/DRHR).  All objects are immutable and every method
is a pure function of its arguments.  `Distribution.rate_sweep` evaluates
a rate and its sf or cdf over a whole grid in one call, equal bit for bit
to the per-point methods; where the rate is the base-class formula
pdf/value it divides by the column already in hand.

Densities that diverge at a support edge (Weibull shape < 1 at the origin)
evaluate to ``math.inf`` there, which doubles as the "unbounded" flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomainError, SupportError
from .grids import GridSpec, first_decrease


class Distribution:
    """Common surface for all lifetime distributions."""

    family = "abstract"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def sf(self, x: float) -> float:
        raise NotImplementedError

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def quantile(self, u: float) -> float:
        raise NotImplementedError

    def quantiles(self, us) -> list[float]:
        """Quantiles at each probability in ``us``, in the same order."""
        return [self.quantile(u) for u in us]

    def hazard(self, x: float) -> float:
        s = self.sf(x)
        if s <= 0.0:
            raise SupportError(f"sf({x}) = 0: hazard undefined in the right tail")
        return self.pdf(x) / s

    def rev_hazard(self, x: float) -> float:
        c = self.cdf(x)
        if c <= 0.0:
            raise SupportError(f"cdf({x}) = 0: reversed hazard undefined in the left tail")
        return self.pdf(x) / c

    def rate_sweep(self, rate: str, xs) -> tuple[list[float], list[float | None]]:
        """The columns (sf, hazard) for `rate` "hazard", or (cdf,
        rev_hazard) for "rev_hazard", at every point of ``xs``, with None
        where the per-point rate raises SupportError.  A class whose rate
        is the base-class formula (looked up by name, so wrappers installed
        on the classes keep the test valid) gets it as pdf/value from the
        value column; any other rate is called point by point."""
        value = self.sf if rate == "hazard" else self.cdf
        values = [value(x) for x in xs]
        formula = getattr(type(self), rate) is getattr(Distribution, rate)
        fn = self.pdf if formula else getattr(self, rate)
        column = list(defined(fn, xs))
        if formula:
            column = [None if v <= 0.0 or d is None else d / v for v, d in zip(values, column)]
        return values, column

    def tail_exponent(self) -> float:
        """Power-law decay exponent of the right tail; inf for light tails."""
        return math.inf

    def to_json(self) -> dict:
        raise NotImplementedError


def defined(fn, xs):
    """``fn`` at each point of ``xs``, lazily, with None where it raises
    SupportError (a value undefined at that point)."""
    for x in xs:
        try:
            yield fn(x)
        except SupportError:
            yield None


def _check_prob(u: float):
    if not (0.0 < u < 1.0):
        raise ParameterDomainError(f"probability must lie in (0,1), got {u}")


def _check_pos(name: str, v: float):
    if not (v > 0.0 and math.isfinite(v)):
        raise ParameterDomainError(f"{name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float
    family = "exponential"

    def __post_init__(self):
        _check_pos("rate", self.rate)

    @property
    def support(self):
        return (0.0, math.inf)

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return math.exp(-self.rate * x)

    def pdf(self, x):
        if x < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def quantile(self, u):
        _check_prob(u)
        return -math.log1p(-u) / self.rate

    def hazard(self, x):
        if self.sf(x) <= 0.0:
            raise SupportError("right tail")
        return self.rate

    def to_json(self):
        return {"family": "exponential", "params": {"rate": self.rate}}


@dataclass(frozen=True)
class Weibull(Distribution):
    """Survival exp(-rate * x**shape); shape < 1 gives a DFR baseline."""

    shape: float
    rate: float
    family = "weibull"

    def __post_init__(self):
        _check_pos("shape", self.shape)
        _check_pos("rate", self.rate)

    @property
    def support(self):
        return (0.0, math.inf)

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x ** self.shape)

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return math.exp(-self.rate * x ** self.shape)

    def pdf(self, x):
        if x < 0.0:
            return 0.0
        if x == 0.0:
            if self.shape < 1.0:
                return math.inf  # unbounded at the origin
            return self.rate if self.shape == 1.0 else 0.0
        return (self.shape * self.rate * x ** (self.shape - 1.0)
                * math.exp(-self.rate * x ** self.shape))

    def quantile(self, u):
        _check_prob(u)
        return (-math.log1p(-u) / self.rate) ** (1.0 / self.shape)

    def hazard(self, x):
        if x < 0.0:
            raise SupportError("hazard needs x >= 0")
        if x == 0.0:
            return self.pdf(0.0)  # the limit at the origin, as sf(0) = 1
        return self.shape * self.rate * x ** (self.shape - 1.0)

    def to_json(self):
        return {"family": "weibull", "params": {"shape": self.shape, "rate": self.rate}}


@dataclass(frozen=True)
class Lomax(Distribution):
    """Pareto type II: survival (1 + x/scale)**(-shape) on [0, inf)."""

    shape: float
    scale: float = 1.0
    family = "lomax"

    def __post_init__(self):
        _check_pos("shape", self.shape)
        _check_pos("scale", self.scale)

    @property
    def support(self):
        return (0.0, math.inf)

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return 1.0 - (1.0 + x / self.scale) ** (-self.shape)

    def sf(self, x):
        if x <= 0.0:
            return 1.0
        return (1.0 + x / self.scale) ** (-self.shape)

    def pdf(self, x):
        if x < 0.0:
            return 0.0
        return (self.shape / self.scale) * (1.0 + x / self.scale) ** (-self.shape - 1.0)

    def quantile(self, u):
        _check_prob(u)
        return self.scale * ((1.0 - u) ** (-1.0 / self.shape) - 1.0)

    def hazard(self, x):
        if x < 0.0:
            raise SupportError("hazard needs x >= 0")
        return self.shape / (self.scale + x)

    def tail_exponent(self):
        return self.shape

    def to_json(self):
        return {"family": "lomax", "params": {"shape": self.shape, "scale": self.scale}}


@dataclass(frozen=True)
class ParetoI(Distribution):
    """Classical Pareto on [1, inf): survival x**(-shape)."""

    shape: float
    family = "pareto1"

    def __post_init__(self):
        _check_pos("shape", self.shape)

    @property
    def support(self):
        return (1.0, math.inf)

    def cdf(self, x):
        if x <= 1.0:
            return 0.0
        return 1.0 - x ** (-self.shape)

    def sf(self, x):
        if x <= 1.0:
            return 1.0
        return x ** (-self.shape)

    def pdf(self, x):
        if x < 1.0:
            return 0.0
        return self.shape * x ** (-self.shape - 1.0)

    def quantile(self, u):
        _check_prob(u)
        return (1.0 - u) ** (-1.0 / self.shape)

    def hazard(self, x):
        if x < 1.0:
            raise SupportError("hazard needs x >= 1")
        return self.shape / x

    def tail_exponent(self):
        return self.shape

    def to_json(self):
        return {"family": "pareto1", "params": {"shape": self.shape}}


@dataclass(frozen=True)
class ReflectedDFR(Distribution):
    """Distribution of -X for a DFR lifetime X on [0, inf).

    A decreasing hazard reflected about the origin becomes an increasing
    reversed hazard on (-inf, 0], which is the device used to obtain an
    IRHR baseline (no IRHR distribution exists on all of [0, inf)).
    By construction rev_hazard(x) = inner.hazard(-x) exactly.
    """

    inner: Distribution
    family = "reflected_dfr"

    def __post_init__(self):
        lo, hi = self.inner.support
        if lo < 0.0 or not math.isinf(hi):
            raise ParameterDomainError("reflection expects a lifetime on [0, inf)")

    @property
    def support(self):
        lo, _hi = self.inner.support
        return (-math.inf, -lo)

    def cdf(self, x):
        return self.inner.sf(-x)

    def sf(self, x):
        return self.inner.cdf(-x)

    def pdf(self, x):
        return self.inner.pdf(-x)

    def quantile(self, u):
        _check_prob(u)
        return -self.inner.quantile(1.0 - u)

    def hazard(self, x):
        return self.inner.rev_hazard(-x)

    def rev_hazard(self, x):
        return self.inner.hazard(-x)

    def to_json(self):
        return {"family": "reflected_dfr", "params": {"inner": self.inner.to_json()}}


_FAMILIES = {
    "exponential": lambda p: Exponential(rate=p["rate"]),
    "weibull": lambda p: Weibull(shape=p["shape"], rate=p["rate"]),
    "lomax": lambda p: Lomax(shape=p["shape"], scale=p.get("scale", 1.0)),
    "pareto1": lambda p: ParetoI(shape=p["shape"]),
    "reflected_dfr": lambda p: ReflectedDFR(inner=dist_from_json(p["inner"])),
}


def dist_from_json(obj: dict) -> Distribution:
    """Build a distribution from {"family": ..., "params": {...}}."""
    try:
        family = obj["family"]
        params = obj.get("params", {})
        builder = _FAMILIES[family]
    except (KeyError, TypeError) as exc:
        raise ParameterDomainError(f"bad distribution spec: {obj!r}") from exc
    return builder(params)


@dataclass(frozen=True)
class AgeingClass:
    """Numeric ageing classification over an evaluation grid."""

    flags: frozenset[str]  # subset of {"IFR", "DFR", "IRHR", "DRHR"}
    grid: tuple[float, ...]

    def __contains__(self, flag: str) -> bool:
        return flag in self.flags


def ageing_points(d: Distribution, grid: GridSpec) -> list[float]:
    """The points at which the ageing of ``d`` is judged.  A bounded x-grid
    must lie in the support and is used as is; any other grid gives
    ``grid.n`` quantiles on [eps, 1-eps], which keep clear of both support
    edges."""
    if grid.kind == "x" and grid.lo is not None and grid.hi is not None:
        lo, hi = d.support
        if grid.lo < lo or grid.hi > hi:
            raise SupportError("ageing grid extends outside the support")
        return grid.x_points()
    eps, n = grid.eps, grid.n
    return [d.quantile(eps + i * (1.0 - 2 * eps) / (n - 1)) for i in range(n)]


def classify_ageing(d: Distribution, grid: GridSpec | None = None) -> AgeingClass:
    """Classify IFR/DFR (hazard) and IRHR/DRHR (reversed hazard) at the
    grid's `ageing_points`: a class holds when `grids.first_decrease` finds
    no drop beyond ``tau_mono`` in the rate (for DFR/DRHR, in the negated
    rate), so a constant hazard carries both flags.  A rate undefined at
    some point (a bounded grid that starts or ends at a support edge)
    carries neither of its two flags."""
    if grid is None:
        grid = GridSpec(kind="x", n=128)
    xs = ageing_points(d, grid)
    flags = set()
    for rate, up_flag, down_flag in ((d.hazard, "IFR", "DFR"),
                                     (d.rev_hazard, "IRHR", "DRHR")):
        try:
            values = [rate(x) for x in xs]
        except SupportError:
            continue
        if first_decrease(xs, values, grid.tau_mono) is None:
            flags.add(up_flag)
        if first_decrease(xs, [-v for v in values], grid.tau_mono) is None:
            flags.add(down_flag)
    return AgeingClass(flags=frozenset(flags), grid=tuple(xs))
