"""Evaluation grids for the numerical order checkers, and the one
monotone rule they all judge by (`first_decrease`)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import COUNT_CEILING, ParameterDomainError, check_count, check_positive, check_real

DEFAULT_TAU_MONO = 1e-9
DEFAULT_TAU_PT = 1e-9
DEFAULT_EPS = 1e-3


def check_grid_size(n):
    """Refuse (ParameterDomainError) a grid size that is no count from 64 to
    `errors.COUNT_CEILING`."""
    check_count("grid size n", n, 64, " points", COUNT_CEILING)


def first_decrease(xs, values, tau: float, start: int = 1) -> tuple[float, float, float] | None:
    """The one monotone rule: the first adjacent pair (a, b) of ``values``
    with b < a - tau*(1 + max(|a|, |b|)), as (x at b, b, a), or None.  The
    non-increasing test is this test on the negated values (exact).  A
    reader that judges its values a part at a time passes the index of the
    part's first value as ``start``: the pairs from (values[start - 1],
    values[start]) on are judged, the ones before were."""
    start = max(start, 1)
    a = values[start - 1] if start <= len(values) else None
    for i in range(start, len(values)):
        b = values[i]
        if b < a and b < a - tau * (1.0 + max(abs(a), abs(b))):
            return (xs[i], b, a)
        a = b
    return None


@dataclass(frozen=True)
class GridSpec:
    """Either an x-grid (explicit or quantile-derived bounds) or a u-grid.

    kind="x": n points on [lo, hi]; lo/hi of None means "derive from the
    quantiles of the distributions under comparison".
    kind="u": n probability points on (eps, 1-eps).
    A field of the other kind (lo or hi on a u-grid, an eps other than
    ``DEFAULT_EPS`` on an x-grid) is refused, as it would be dropped.
    """

    kind: str = "x"  # "x" | "u"
    lo: float | None = None
    hi: float | None = None
    eps: float = DEFAULT_EPS
    n: int = 512
    tau_mono: float = DEFAULT_TAU_MONO
    tau_pt: float = DEFAULT_TAU_PT

    def __post_init__(self):
        if self.kind not in ("x", "u"):
            raise ParameterDomainError(f"unknown grid kind {self.kind!r}")
        check_grid_size(self.n)
        for name, v in (("lo", self.lo), ("hi", self.hi)):
            if v is not None:
                check_real(name, v)
        if not (0.0 < check_real("eps", self.eps) < 0.5):
            raise ParameterDomainError("eps must lie in (0, 0.5)")
        if self.kind == "u" and (self.lo is not None or self.hi is not None):
            raise ParameterDomainError(
                f"a u-grid takes no lo or hi, got lo={self.lo}, hi={self.hi}")
        if self.kind == "x" and self.eps != DEFAULT_EPS:
            raise ParameterDomainError(f"an x-grid takes no eps, got {self.eps}")
        check_positive("tau_mono", self.tau_mono)
        check_positive("tau_pt", self.tau_pt)

    def _points(self, lo: float, hi: float) -> list[float]:
        step = (hi - lo) / (self.n - 1)
        return [lo + i * step for i in range(self.n)]

    def u_points(self) -> list[float]:
        if self.kind != "u":
            raise ParameterDomainError("u_points requires a u-grid")
        return self._points(self.eps, 1.0 - self.eps)

    def x_points(self, dists=()) -> list[float]:
        """Grid points; bounds fall back to the pointwise quantile envelope
        of ``dists`` at probability 1e-4 / 1-1e-4."""
        if self.kind != "x":
            raise ParameterDomainError("x_points requires an x-grid")
        lo, hi = self.lo, self.hi
        if lo is None or hi is None:
            if not dists:
                raise ParameterDomainError("grid bounds unset and no distributions given")
            qlo = min(d.quantile(1e-4) for d in dists)
            qhi = max(d.quantile(1.0 - 1e-4) for d in dists)
            lo = qlo if lo is None else lo
            hi = qhi if hi is None else hi
        if not 0.0 < hi - lo < math.inf:  # NaN, an infinite bound, hi <= lo, overflow
            raise ParameterDomainError(f"bad grid bounds [{lo}, {hi}]")
        return self._points(lo, hi)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "n": self.n,
               "tau_mono": self.tau_mono, "tau_pt": self.tau_pt}
        if self.kind == "x":
            out["lo"] = self.lo
            out["hi"] = self.hi
        else:
            out["eps"] = self.eps
        return out
