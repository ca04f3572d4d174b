"""Exception types shared across the toolkit, the undefined-point rule
(`defined_at`), the stated-or-refuse rule (`stated`), and the real-number,
positive-parameter, integer and count rules."""

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


def stated(obj, attr: str, what: str):
    """``obj``'s closed form `attr`; ParameterDomainError where it is None."""
    value = getattr(obj, attr)
    if value is None:
        raise ParameterDomainError(f"{type(obj).__name__} states no {what}")
    return value


class MomentUndefinedError(OrdrelError, ValueError):
    """A requested moment does not exist.  Carries the existence threshold."""

    def __init__(self, message: str, threshold: float | None = None):
        super().__init__(message)
        self.threshold = threshold


class ConfigError(OrdrelError, ValueError):
    """Malformed or schema-violating configuration input."""


def is_real(v) -> bool:
    """The one real-number rule, JSON's number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_real(name: str, v) -> float:
    """v as a float; refuse (ParameterDomainError) a v that is no real
    number (`is_real`), such as a numeric string or True.  A float passes
    first, without the call: the checks run on every object built."""
    if not (type(v) is float or is_real(v)):
        raise ParameterDomainError(f"{name} must be a real number, got {v!r}")
    return float(v)


def check_positive(name: str, v):
    """Refuse (ParameterDomainError) a v that is no real number
    (`check_real`) or lies outside (0, inf), NaN included."""
    if not ((type(v) is float or is_real(v)) and 0.0 < v < math.inf):
        check_real(name, v)
        raise ParameterDomainError(f"{name} must be strictly positive, got {v}")


def check_integer(name: str, v):
    """Refuse (ParameterDomainError) a v that is not an int, or is a bool:
    a float or a bool is no integer, even where it equals one."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParameterDomainError(f"{name} must be an integer, got {v!r}")


def check_count(name: str, v, least: int, unit: str = ""):
    """Refuse (ParameterDomainError) a count v that is no integer
    (`check_integer`) or is below `least`."""
    check_integer(name, v)
    if v < least:
        raise ParameterDomainError(f"{name} needs at least {least}{unit}, got {v}")
