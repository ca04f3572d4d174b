"""Adaptive Gauss-Kronrod quadrature.

A G7/K15 rule with interval bisection, on a bounded interval or a half-line.
[a, inf) is mapped to the unit interval with x = a + t/(1-t), and (-inf, b]
as its mirror image, which keeps the heavy Lomax-type tails integrable on a
finite computational domain.
"""

import math

from .errors import OrdrelError

ATOL = 1e-12  # absolute error target, for integrals near 0
RTOL = 1e-9  # relative error target
MAX_PANELS = 2000  # panels before the integral is taken to diverge

# Kronrod-15 abscissae (non-negative half) and weights
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
# Gauss-7 weights, aligned with _XK indices 1, 3, 5, 7
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


class QuadratureError(OrdrelError):
    """Adaptive subdivision failed to converge (suspected divergence)."""


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One G7/K15 panel on [a, b]: returns (kronrod, |kronrod - gauss|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    resk = 0.0
    resg = 0.0
    for i, x in enumerate(_XK):
        if x == 0.0:
            fv = f(c)
            resk += _WK[i] * fv
            resg += _WG[3] * fv
        else:
            f1 = f(c - h * x)
            f2 = f(c + h * x)
            resk += _WK[i] * (f1 + f2)
            if i % 2 == 1:
                resg += _WG[i // 2] * (f1 + f2)
    return resk * h, abs(resk - resg) * h


def adaptive_quad(f, a: float, b: float) -> float:
    """Integrate f over (a, b), either endpoint but not both infinite, to an
    error estimate of at most max(``ATOL``, ``RTOL`` * |total|)."""
    g, a, b = _transform(f, a, b)
    total, err = _gk15(g, a, b)
    stack = [(a, b, total, err)]
    n_panels = 1
    while err > max(ATOL, RTOL * abs(total)) and stack:
        if n_panels >= MAX_PANELS:
            raise QuadratureError(
                f"no convergence after {n_panels} panels (err={err:.3e}); "
                "integrand may diverge"
            )
        # split the panel with the largest error estimate
        stack.sort(key=lambda p: p[3])
        lo, hi, val, e = stack.pop()
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(g, lo, mid)
        v2, e2 = _gk15(g, mid, hi)
        total += (v1 + v2) - val
        err += (e1 + e2) - e
        stack.append((lo, mid, v1, e1))
        stack.append((mid, hi, v2, e2))
        n_panels += 1
    return total


def _transform(f, a: float, b: float):
    """Map a half-line onto [0, 1); a bounded interval stays.  (-inf, b] is
    the mirror of [-b, inf) through f(-x), bit for bit: negation is exact
    and rounding is symmetric in sign."""
    if math.isinf(a):
        if math.isinf(b):
            raise OrdrelError("adaptive_quad needs a finite endpoint")
        return _transform(lambda x: f(-x), -b, math.inf)
    if math.isinf(b):
        def g(t):
            d = 1.0 - t
            return f(a + t / d) / (d * d)

        return g, 0.0, 1.0 - 1e-14
    return f, a, b
