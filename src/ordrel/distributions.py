"""Baseline lifetime distributions.

Each family exposes the full functional surface used by the order checkers:
cdf, sf, pdf, quantile, hazard and reversed hazard.  Each family states
its ageing classes on its whole support (`ageing_classes`) and its x*r(x)
trend (`xr_decreasing`) in closed form, and every ageing condition a
theorem row reads is what a distribution states: `classify_ageing`
returns its IFR/DFR/IRHR/DRHR flags and `xr_non_increasing` its x*r(x)
trend, and each refuses a distribution that states nothing.
All objects are immutable and every method is a pure function of its
arguments.  `Distribution.column` is the one way to evaluate a method over
a whole grid.  A family keeps a kernel, one comprehension equal bit for
bit to the per-point method, only for a column a benchmark workload reads:
exponential and Lomax sf, cdf, pdf, hazard and quantile; Weibull sf,
hazard and quantile; Pareto I quantile.  The quantile has no other
formula: `quantile(u)` is the one-point column for every class.
`rate_sweep` gives a rate and its sf or cdf on a grid; where the rate is
the base-class formula pdf/value it divides by the column in hand.
`stated_order(rel, a, b)` gives a <=_rel b on the whole support where the
class of both states it in closed form (`Distribution.stated_le`):
exponential and Lomax st and hr, and a reflected pair's st and rh, read
from its inner pair; any other pair states nothing (None).  A
family's JSON form is its ``family`` and its dataclass fields, and
`dist_from_json` builds it back from its family table.

Densities that diverge at a support edge (Weibull shape < 1 at the origin)
evaluate to ``math.inf`` there, which doubles as the "unbounded" flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomainError, SupportError, check_positive, defined_at, stated


class Distribution:
    """Common surface for all lifetime distributions."""

    family = "abstract"
    # Closed forms, where the class knows them: the ageing flags that hold
    # on the whole support, and whether x*r(x) is non-increasing there.
    # None: unstated, which `classify_ageing` and `xr_non_increasing` refuse.
    ageing_classes: frozenset[str] | None = None
    xr_decreasing: bool | None = None

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
        """The one-point quantile column."""
        return self.column("quantile", (u,))[0]

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

    def column(self, name: str, points) -> list:
        """The per-point method `name` ("sf", "cdf", "pdf", "hazard",
        "rev_hazard" or "quantile") at every point of ``points``, with None
        where it is undefined (`errors.defined_at`).  A family overrides
        this with a kernel for each column a workload reads; a class with
        neither a quantile kernel nor a per-point quantile has no quantile."""
        if name == "quantile" and type(self).quantile is Distribution.quantile:
            raise NotImplementedError(f"{type(self).__name__} has no quantile")
        fn = getattr(self, name)
        return [defined_at(fn, x) for x in points]

    def quantile_parts(self, us, bounds):
        """A reader of the quantile column at ``us`` for a checker that may
        stop early: each call returns the next part, the column at
        ``us[i:j]`` for the next (i, j) of ``bounds``, consecutive parts
        that tile ``us`` in order.  Here the first call computes (and
        raises) the whole column and each call slices it; a mixed-baseline
        system solves each part when it is read."""
        parts, column = iter(bounds), []

        def read():
            i, j = next(parts)
            if i == 0:
                column[:] = self.column("quantile", us)
            return column[i:j]
        return read

    def rate_sweep(self, rate: str, xs) -> tuple[list[float], list[float | None]]:
        """The columns (sf, hazard) for `rate` "hazard", or (cdf,
        rev_hazard) for "rev_hazard", at every point of ``xs``, with None
        where the per-point rate raises SupportError.  A class whose rate
        is the base-class formula (looked up by name, so wrappers installed
        on the classes keep the test valid) gets it as pdf/value from the
        value column; any other rate is its own column."""
        values = self.column("sf" if rate == "hazard" else "cdf", xs)
        if getattr(type(self), rate) is not getattr(Distribution, rate):
            return values, self.column(rate, xs)
        return values, [None if v <= 0.0 or d is None else d / v
                        for v, d in zip(values, self.column("pdf", xs))]

    def tail_exponents(self) -> tuple[float, float]:
        """Power-law decay exponents of the (left, right) tails; inf for a
        light or bounded tail."""
        return (math.inf, math.inf)

    def stated_le(self, rel: str, other: "Distribution") -> bool | None:
        """self <=_rel other on the whole support, for ``other`` of this
        class, where the class states it in closed form; None otherwise."""
        return None

    def to_json(self) -> dict:
        """{"family": ..., "params": {...}}, with the family's dataclass
        fields as params (a distribution as its JSON); `dist_from_json` reads it."""
        return {"family": self.family, "params": {
            k: v.to_json() if isinstance(v, Distribution) else v
            for k, v in self.__dict__.items()}}


def _bad_prob(u: float):
    raise ParameterDomainError(f"probability must lie in (0,1), got {u}")


def _product_ge(a, b, c, d) -> bool:
    """a*b >= c*d exactly: rounding keeps a strict order of the two
    products, and a tie of the rounded products is settled in rationals
    (imported here: `fractions` loads `decimal`, which no CLI call needs)."""
    p, q = a * b, c * d
    if p != q:
        return p > q
    from fractions import Fraction
    return Fraction(a) * Fraction(b) >= Fraction(c) * Fraction(d)


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float
    family = "exponential"
    support = (0.0, math.inf)
    ageing_classes = frozenset({"IFR", "DFR", "DRHR"})  # a constant hazard
    xr_decreasing = False

    def __post_init__(self):
        check_positive("rate", self.rate)

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

    def hazard(self, x):
        if x < 0.0:
            raise SupportError("hazard needs x >= 0")
        return self.rate

    def stated_le(self, rel, other):
        """A constant hazard: A <=_st B and A <=_hr B iff rate_A >= rate_B."""
        return self.rate >= other.rate if rel in ("st", "hr") else None

    def column(self, name, points):
        rate, exp = self.rate, math.exp
        if name == "sf":
            return [1.0 if x <= 0.0 else exp(-rate * x) for x in points]
        if name == "cdf":
            expm1 = math.expm1
            return [0.0 if x <= 0.0 else -expm1(-rate * x) for x in points]
        if name == "pdf":
            return [0.0 if x < 0.0 else rate * exp(-rate * x) for x in points]
        if name == "hazard":
            return [None if x < 0.0 else rate for x in points]
        if name == "quantile":
            log1p = math.log1p
            return [-log1p(-u) / rate if 0.0 < u < 1.0 else _bad_prob(u) for u in points]
        return super().column(name, points)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Survival exp(-rate * x**shape); shape < 1 gives a DFR baseline."""

    shape: float
    rate: float
    family = "weibull"
    support = (0.0, math.inf)
    xr_decreasing = False  # x*r(x) = shape*rate*x**shape

    @property
    def ageing_classes(self):
        """The hazard shape*rate*x**(shape-1) falls for shape < 1 and rises
        for shape > 1; shape 1 is the exponential."""
        if self.shape == 1.0:
            return Exponential.ageing_classes
        return frozenset({"DFR" if self.shape < 1.0 else "IFR", "DRHR"})

    def __post_init__(self):
        check_positive("shape", self.shape)
        check_positive("rate", self.rate)

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

    def hazard(self, x):
        if x < 0.0:
            raise SupportError("hazard needs x >= 0")
        if x == 0.0:
            return self.pdf(0.0)  # the limit at the origin, as sf(0) = 1
        return self.shape * self.rate * x ** (self.shape - 1.0)

    def column(self, name, points):
        shape, rate, exp = self.shape, self.rate, math.exp
        if name == "sf":
            return [1.0 if x <= 0.0 else exp(-rate * x ** shape) for x in points]
        if name == "hazard":
            at0, k, power = self.pdf(0.0), shape * rate, shape - 1.0
            return [None if x < 0.0 else at0 if x == 0.0 else k * x ** power
                    for x in points]
        if name == "quantile":
            log1p, power = math.log1p, 1.0 / shape
            return [(-log1p(-u) / rate) ** power if 0.0 < u < 1.0 else _bad_prob(u)
                    for u in points]
        return super().column(name, points)


@dataclass(frozen=True)
class Lomax(Distribution):
    """Pareto type II: survival (1 + x/scale)**(-shape) on [0, inf)."""

    shape: float
    scale: float = 1.0
    family = "lomax"
    support = (0.0, math.inf)
    ageing_classes = frozenset({"DFR", "DRHR"})  # hazard shape/(scale + x)
    xr_decreasing = False  # x*r(x) = shape*x/(scale + x)

    def __post_init__(self):
        check_positive("shape", self.shape)
        check_positive("scale", self.scale)

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

    def hazard(self, x):
        if x < 0.0:
            raise SupportError("hazard needs x >= 0")
        return self.shape / (self.scale + x)

    def stated_le(self, rel, other):
        """hazard_A - hazard_B has the sign of the line (shape_A - shape_B)*x
        + shape_A*scale_B - shape_B*scale_A on x >= 0, so A <=_hr B iff both
        coefficients are >= 0; A <=_st B iff the same, as d/dx of
        log(sf_B/sf_A), which is 0 at x = 0, is that hazard difference."""
        if rel not in ("st", "hr"):
            return None
        return self.shape >= other.shape and _product_ge(self.shape, other.scale,
                                                         other.shape, self.scale)

    def column(self, name, points):
        shape, scale = self.shape, self.scale
        if name == "sf":
            return [1.0 if x <= 0.0 else (1.0 + x / scale) ** -shape for x in points]
        if name == "cdf":
            return [0.0 if x <= 0.0 else 1.0 - (1.0 + x / scale) ** -shape for x in points]
        if name == "pdf":
            k, power = shape / scale, -shape - 1.0
            return [0.0 if x < 0.0 else k * (1.0 + x / scale) ** power for x in points]
        if name == "hazard":
            return [None if x < 0.0 else shape / (scale + x) for x in points]
        if name == "quantile":
            power = -1.0 / shape
            return [scale * ((1.0 - u) ** power - 1.0) if 0.0 < u < 1.0 else _bad_prob(u)
                    for u in points]
        return super().column(name, points)

    def tail_exponents(self):
        return (math.inf, self.shape)


@dataclass(frozen=True)
class ParetoI(Distribution):
    """Classical Pareto on [1, inf): survival x**(-shape)."""

    shape: float
    family = "pareto1"
    support = (1.0, math.inf)
    ageing_classes = frozenset({"DFR", "DRHR"})  # hazard shape/x
    xr_decreasing = True  # x*r(x) = shape

    def __post_init__(self):
        check_positive("shape", self.shape)

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

    def hazard(self, x):
        if x < 1.0:
            raise SupportError("hazard needs x >= 1")
        return self.shape / x

    def column(self, name, points):
        if name == "quantile":
            power = -1.0 / self.shape
            return [(1.0 - u) ** power if 0.0 < u < 1.0 else _bad_prob(u) for u in points]
        return super().column(name, points)

    def tail_exponents(self):
        return (math.inf, self.shape)


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

    def hazard(self, x):
        return self.inner.rev_hazard(-x)

    def rev_hazard(self, x):
        return self.inner.hazard(-x)

    _REFLECTED = {"sf": "cdf", "cdf": "sf", "pdf": "pdf",
                  "hazard": "rev_hazard", "rev_hazard": "hazard"}
    # -X <=_st -Y iff Y <=_st X, and -X <=_rh -Y iff Y <=_hr X
    _MIRRORED_ORDER = {"st": "st", "rh": "hr"}
    # each ageing flag of the inner read at -x (a rate that rises in -x
    # falls in x); x*r(x) states nothing
    _MIRRORED_CLASS = {"DFR": "IRHR", "IFR": "DRHR", "DRHR": "IFR", "IRHR": "DFR"}

    def tail_exponents(self):
        return self.inner.tail_exponents()[::-1]

    def stated_le(self, rel, other):
        mirrored = self._MIRRORED_ORDER.get(rel)
        return None if mirrored is None else stated_order(mirrored, other.inner, self.inner)

    @property
    def ageing_classes(self):
        inner = self.inner.ageing_classes
        return None if inner is None else frozenset(self._MIRRORED_CLASS[c] for c in inner)

    def column(self, name, points):
        """The inner column of the mirrored method at the negated points, or
        minus the inner quantiles at 1-u; the inner checks of the levels
        before a bad u come first, as 1-u rounds to 1 for u < 2**-53."""
        if name != "quantile":
            return self.inner.column(self._REFLECTED[name], [-x for x in points])
        levels = []
        for u in points:
            if not 0.0 < u < 1.0:
                self.inner.column("quantile", levels)
                _bad_prob(u)
            levels.append(1.0 - u)
        return [None if q is None else -q for q in self.inner.column("quantile", levels)]


_FAMILIES = {cls.family: cls for cls in (Exponential, Weibull, Lomax, ParetoI, ReflectedDFR)}


def dist_from_json(obj: dict) -> Distribution:
    """Build a distribution from {"family": ..., "params": {...}}, the form
    `Distribution.to_json` writes (params: the family's constructor arguments,
    a dict param a nested spec), or refuse it with its cause."""
    try:
        if not {"family", "params"}.issuperset(obj):
            raise TypeError("a spec takes only the keys family and params")
        cls = _FAMILIES[obj.get("family")]
        return cls(**{k: dist_from_json(v) if isinstance(v, dict) else v
                      for k, v in obj.get("params", {}).items()})
    except (KeyError, TypeError, AttributeError) as exc:
        cause = f"unknown family {exc}" if isinstance(exc, KeyError) else exc
        raise ParameterDomainError(f"bad distribution spec {obj!r}: {cause}") from exc


def stated_order(rel: str, a: Distribution, b: Distribution) -> bool | None:
    """a <=_rel b on the whole support where the class of both states it in
    closed form (`Distribution.stated_le`); None for a pair of two classes
    or a relation their class states nothing of."""
    return a.stated_le(rel, b) if type(a) is type(b) else None


def classify_ageing(d: Distribution) -> frozenset[str]:
    """The flags among IFR/DFR (hazard) and IRHR/DRHR (reversed hazard)
    that ``d`` states on its whole support (`ageing_classes`)."""
    return stated(d, "ageing_classes", "ageing classes")


def xr_non_increasing(d: Distribution) -> bool:
    """x*r(x) non-increasing (T5's condition, the generalized failure rate
    of Lariviere 2006), as ``d`` states it (`xr_decreasing`)."""
    return stated(d, "xr_decreasing", "x*r(x) trend")
