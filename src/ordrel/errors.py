"""Exception types shared across the toolkit, the undefined-point rule
(`defined_at`), and the positive-parameter and count rules."""

import math


class OrdrelError(Exception):
    """Base class for all toolkit errors."""


class ParameterDomainError(OrdrelError, ValueError):
    """A shape/scale/rate parameter or function argument is out of domain."""


class SupportError(OrdrelError, ValueError):
    """Evaluation requested where the distribution degenerates (tail hit,
    zero survival/cdf, grid outside support, empty support overlap)."""


def defined_at(fn, x):
    """fn(x), or None where it raises SupportError (a value undefined at x)."""
    try:
        return fn(x)
    except SupportError:
        return None


class MomentUndefinedError(OrdrelError, ValueError):
    """A requested moment does not exist.  Carries the existence threshold."""

    def __init__(self, message: str, threshold: float | None = None):
        super().__init__(message)
        self.threshold = threshold


class ConfigError(OrdrelError, ValueError):
    """Malformed or schema-violating configuration input."""


def check_positive(name: str, v: float):
    """Refuse (ParameterDomainError) any v outside (0, inf), NaN included."""
    if not 0.0 < v < math.inf:
        raise ParameterDomainError(f"{name} must be strictly positive, got {v}")


def check_count(name: str, v, least: int, unit: str = ""):
    """Refuse (ParameterDomainError) a count v that is not an int of at
    least `least`: a float or a bool is no count, even where it equals one."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParameterDomainError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ParameterDomainError(f"{name} needs at least {least}{unit}, got {v}")
