"""Float summation and scalar root finding.

``bisect_increasing`` inverts monotone functions that lack a closed-form
inverse, such as the cdf of a mixed-baseline system.  Given a derivative it
takes safeguarded Newton steps; without one it grows a bracket and bisects.
"""

import math

YTOL = 1e-12  # stop once |fn(x) - target| is below this
XTOL = 1e-10  # stop once the bracket or step is below XTOL * (1 + |x|)
MAX_ITER = 400  # the most evaluations of fn in one solve


def left_sum(values) -> float:
    """``values`` added left to right from 0.0; builtin ``sum`` compensates on Python 3.12+."""
    total = 0.0
    for v in values:
        total += v
    return total


def bisect_increasing(
    fn,
    target: float,
    guess: float,
    lo_bound: float = -math.inf,
    hi_bound: float = math.inf,
    dfn=None,
) -> float:
    """Solve fn(x) = target for a non-decreasing fn on [lo_bound, hi_bound].

    The solver keeps a bracket with fn(lo) <= target <= fn(hi), starting
    from ``guess``.  With a derivative ``dfn`` it takes the Newton step from
    the latest point whenever that step lands strictly inside the bracket.
    Otherwise it grows the bracket geometrically while one side is still
    open, or bisects.  A derivative that is 0, nan or inf, a non-finite
    ``fn`` value and a point on a bound also fall back to bracketing, so the
    guess and ``dfn`` only affect the speed.

    It stops when |fn(x) - target| < ``YTOL``, or when the bracket or the
    Newton step is narrower than ``XTOL`` * (1 + |x|), after at most
    ``MAX_ITER`` evaluations of ``fn``.  If fn stays above the target at
    lo_bound (below it at hi_bound), that bound is returned.
    """
    lo, hi = lo_bound, hi_bound
    has_lo = has_hi = False
    step = max(abs(guess), 1.0)
    x = guess
    for _ in range(MAX_ITER):
        y = fn(x)
        if abs(y - target) < YTOL:
            return x
        if y < target:
            if x >= hi_bound:
                return hi_bound
            lo, has_lo = x, True
        else:
            if x <= lo_bound:
                return lo_bound
            hi, has_hi = x, True
        if has_lo and has_hi and hi - lo < XTOL * (1.0 + abs(x)):
            return x
        if dfn is not None and math.isfinite(y) and lo_bound < x < hi_bound:
            d = dfn(x)
            if 0.0 < d < math.inf:
                nx = x - (y - target) / d
                if lo < nx < hi:
                    if abs(nx - x) < XTOL * (1.0 + abs(nx)):
                        return nx
                    x = nx
                    continue
        if not has_lo:
            x = max(hi - step, lo_bound)
            step *= 2.0
        elif not has_hi:
            x = min(lo + step, hi_bound)
            step *= 2.0
        else:
            x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi) if has_lo and has_hi else x
