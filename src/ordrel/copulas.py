"""Archimedean generators and the dependent-model survival functions.

Shipped generators: independence (psi = exp(-x)), Clayton (theta > 0) and
Frank (theta != 0; theta < 0 is only 2-monotone, so only in dimension 2).
The T7/T8 generator rows read closed forms where they apply: independence,
Clayton and Frank with theta > 0 are completely monotone, so psi is a
Laplace transform (Bernstein) and ln psi is convex (Hoelder); Frank with
theta < 0 is log-concave, independence (ln psi = -x) both.  Within one
family, and with independence as theta = 0 against either, phi_a o psi_b
is super-additive exactly when theta_a >= theta_b.  A generator that
states no curvature is refused; only Clayton x Frank goes to a numeric check.

phi(0) is represented by the saturating sentinel ``math.inf`` with
psi(inf) = 0, so a vanished survival term never poisons the generator sum.

J1 and J2, the survival functions of the dependent minimum and maximum,
are one generator sum over the baseline's sf or cdf, and share the rest.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distributions import Distribution
from .errors import ParameterDomainError, check_positive, check_real, stated


class Generator:
    """Archimedean generator psi with inverse phi.  `log_curvature` holds the
    branches ln psi satisfies (None: refused), `theta_kin` the families whose
    phi o psi with it is super-additive iff theta_outer >= theta_inner."""

    family = "abstract"
    dim: int
    log_curvature: frozenset | None = None
    theta_kin: frozenset = frozenset()

    def psi(self, x: float) -> float:
        raise NotImplementedError

    def phi(self, u: float) -> float:
        raise NotImplementedError

    def to_json(self) -> dict:
        """{"family": ..., **fields}, the form `generator_from_json` reads."""
        return {"family": self.family, **self.__dict__}


def _check_psi_arg(x: float):
    if x < 0.0:
        raise ParameterDomainError(f"psi needs x >= 0, got {x}")


def _check_phi_arg(u: float):
    if not (0.0 <= u <= 1.0):
        raise ParameterDomainError(f"phi needs u in [0,1], got {u}")


def _check_normal_theta(family: str, theta: float):
    """Refuse a theta that is not a finite normal float: with a subnormal
    theta, theta*x and theta*ln(u) round to 0 or to a subnormal, and psi
    and phi read 1.0 or raise."""
    if not sys.float_info.min <= abs(check_real(f"{family} theta", theta)) < math.inf:
        raise ParameterDomainError(f"{family} needs a finite normal theta, got {theta}")


@dataclass(frozen=True)
class Independence(Generator):
    dim: int = 2
    family = "independence"
    theta = 0.0  # the theta -> 0 limit of Clayton and Frank
    log_curvature = frozenset({"log_convex", "log_concave"})
    theta_kin = frozenset({"independence", "clayton", "frank"})

    def psi(self, x):
        _check_psi_arg(x)
        return math.exp(-x)

    def phi(self, u):
        _check_phi_arg(u)
        if u == 0.0:
            return math.inf
        return -math.log(u)


@dataclass(frozen=True)
class Clayton(Generator):
    theta: float
    dim: int = 2
    family = "clayton"
    log_curvature = frozenset({"log_convex"})
    theta_kin = frozenset({"clayton", "independence"})

    def __post_init__(self):
        check_positive("Clayton theta", self.theta)
        _check_normal_theta("Clayton", self.theta)

    def psi(self, x):
        _check_psi_arg(x)
        # log1p (expm1 in phi) keeps a tiny theta, where 1 + theta*x rounds to 1
        return math.exp(-math.log1p(self.theta * x) / self.theta)  # 0.0 at inf

    def phi(self, u):
        _check_phi_arg(u)
        if u == 0.0:
            return math.inf
        return math.expm1(-self.theta * math.log(u)) / self.theta


_LN2 = math.log(2.0)


def _log_one_minus_exp(a):
    """log|1 - e^-a|, without cancellation on either side of a = ln 2."""
    if a > _LN2:
        return math.log1p(-math.exp(-a))
    return math.log(abs(math.expm1(-a)))


@dataclass(frozen=True)
class Frank(Generator):
    theta: float
    dim: int = 2
    family = "frank"
    theta_kin = frozenset({"frank", "independence"})

    def __post_init__(self):
        _check_normal_theta("Frank", self.theta)
        if self.theta < 0.0 and self.dim > 2:
            raise ParameterDomainError("Frank with theta < 0 is only 2-monotone: dim 2")

    log_curvature = property(
        lambda self: frozenset({"log_convex" if self.theta > 0.0 else "log_concave"}))

    def psi(self, x):
        _check_psi_arg(x)
        t = self.theta
        w = -math.expm1(-t) * math.exp(-x)
        if w <= 0.5:
            # psi(inf) = 0 and psi >= 0; rounding can lift psi(0) a hair above 1
            return min(1.0, -math.log1p(-w) / t)
        # theta > 0 and 1 - w would cancel: it is (1 - e^-x) + e^(-x-theta),
        # a sum of two positive terms; psi(0) = 1 even where e^-theta underflows
        return 1.0 if x == 0.0 else min(1.0, -math.log(-math.expm1(-x) + math.exp(-x - t)) / t)

    def phi(self, u):
        _check_phi_arg(u)
        if u == 0.0:
            return math.inf
        t = self.theta
        tu = t * u
        # -log(expm1(-t*u) / expm1(-t)) as a difference of logs: the ratio
        # rounds near 1 for large t; below the normal floats t*u loses its
        # bits (or is 0), where log|1 - e^-(t*u)| is log|t| + log u
        if abs(tu) < sys.float_info.min:
            return _log_one_minus_exp(t) - (math.log(abs(t)) + math.log(u))
        return _log_one_minus_exp(t) - _log_one_minus_exp(tu)


_GEN_FAMILIES = {cls.family: cls for cls in (Independence, Clayton, Frank)}


def generator_from_json(obj: dict) -> Generator:
    """Build a generator from {"family": ..., **fields}, the form
    `Generator.to_json` writes: every other key is a constructor argument,
    so a key the family does not take is an error."""
    try:
        cls = _GEN_FAMILIES[obj["family"]]
        return cls(**{k: v for k, v in obj.items() if k != "family"})
    except (KeyError, TypeError) as exc:
        raise ParameterDomainError(f"bad generator spec: {obj!r}") from exc


SUPER_ADDITIVE_TAU = 1e-9
SUPER_ADDITIVE_X_MAX = 10.0
SUPER_ADDITIVE_N = 48


def is_log_convex(g: Generator) -> bool:
    """ln psi is convex, as ``g`` states it (`log_curvature`); refused
    where it states none."""
    return "log_convex" in stated(g, "log_curvature", "log curvature")


def is_log_concave(g: Generator) -> bool:
    """ln psi is concave, as ``g`` states it; refused where it states none."""
    return "log_concave" in stated(g, "log_curvature", "log curvature")


def composition_super_additive(outer: Generator, inner: Generator) -> bool:
    """phi_outer o psi_inner super-additive: theta_outer >= theta_inner where
    each has the other's family in its `theta_kin`, else the numeric check."""
    if outer.family in inner.theta_kin and inner.family in outer.theta_kin:
        return outer.theta >= inner.theta
    return super_additive_check(compose_phi_psi(outer, inner))[0]


def compose_phi_psi(outer: Generator, inner: Generator):
    """The composition phi_outer(psi_inner(x)) used in the generator-swap
    super-additivity condition."""
    def h(x: float) -> float:
        return outer.phi(inner.psi(x))

    return h


def super_additive_check(h) -> tuple[bool, tuple | None]:
    """Check h(x+y) >= h(x) + h(y) within ``SUPER_ADDITIVE_TAU`` on the sum
    lattice: x and y run over n = ``SUPER_ADDITIVE_N`` points k*step in [0,
    ``SUPER_ADDITIVE_X_MAX``/2], so x+y is again a multiple of step and h is
    evaluated once at each of the 2n-1 points k*step.  The tolerance is
    relative to 1 + |h(x) + h(y)|.

    Returns (ok, witness); witness is (x, y, h(x+y), h(x)+h(y)) on failure.
    """
    x_max, n = SUPER_ADDITIVE_X_MAX, SUPER_ADDITIVE_N
    xs = [k * x_max / (2 * (n - 1)) for k in range(2 * n - 1)]
    hs = [h(x) for x in xs]
    tau = SUPER_ADDITIVE_TAU  # a local: the pair loop reads it ~1,000 times
    for i in range(n):
        for j in range(i, n):
            lhs = hs[i + j]
            rhs = hs[i] + hs[j]
            if lhs < rhs - tau * (1.0 + abs(rhs)):
                return False, (xs[i], xs[j], lhs, rhs)
    return True, None


@dataclass(frozen=True)
class ShiftedSystem:
    """Dependent lifetimes Y_i = X - mu_i coupled by an Archimedean
    survival copula."""

    baseline: Distribution
    shifts: tuple[float, ...]
    generator: Generator

    def __post_init__(self):
        if len(self.shifts) != self.generator.dim:
            raise ParameterDomainError(
                f"generator dimension {self.generator.dim} != "
                f"{len(self.shifts)} shifts")
        if len(self.shifts) < 2:
            raise ParameterDomainError("need at least two components")


def _generator_sum(s: ShiftedSystem, x: float, value: str) -> float:
    """psi(sum_k phi(v(x + mu_k))), with v the baseline's `value` ("sf" or
    "cdf"); 0.0 at the first phi that is inf."""
    g, v = s.generator, getattr(s.baseline, value)
    total = 0.0
    for mu in s.shifts:
        p = g.phi(v(x + mu))  # g.phi per term: binding it costs more than it saves
        if math.isinf(p):
            return 0.0
        total += p
    return g.psi(total)


def j1(s: ShiftedSystem, x: float) -> float:
    """Survival function of min(Y_1, ..., Y_n):
    psi(sum_k phi(sf(x + mu_k)))."""
    return _generator_sum(s, x, "sf")


def j2(s: ShiftedSystem, x: float) -> float:
    """Survival function of max(Y_1, ..., Y_n):
    1 - psi(sum_k phi(cdf(x + mu_k)))."""
    return 1.0 - _generator_sum(s, x, "cdf")


class _DependentExtreme:
    """Support and cdf = 1 - sf of the dependent minimum and maximum of a
    ShiftedSystem; each subclass's sf calls `j1` or `j2` by name."""

    def __init__(self, system: ShiftedSystem):
        self.system = system

    @property
    def support(self):
        lo, hi = self.system.baseline.support
        mn, mx = min(self.system.shifts), max(self.system.shifts)
        return (lo - mx, hi - mn)

    def cdf(self, x):
        return 1.0 - self.sf(x)


class DependentMin(_DependentExtreme):
    """Minimal distribution surface (sf/cdf/support) for J1, so the order
    checkers can consume dependent minima."""

    def sf(self, x):
        return j1(self.system, x)


class DependentMax(_DependentExtreme):
    """Distribution surface for J2 (survival of the dependent maximum)."""

    def sf(self, x):
        return j2(self.system, x)
