"""Exception types shared across the toolkit, the undefined-point rule
(`defined_at`), the stated-or-refuse rule (`stated`), the scenario-field
rule (`scenario_field`), and the real-number, positive-parameter, integer
and count rules."""

import math
from contextlib import contextmanager


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


@contextmanager
def scenario_field(tid: str, key: str, catch=ParameterDomainError, error=ParameterDomainError):
    """The one rule that names a scenario field in a refusal: an exception
    of a ``catch`` class raised inside becomes
    ``error("<tid> scenario field '<key>': <message>")``."""
    try:
        yield
    except catch as exc:
        raise error(f"{tid} scenario field {key!r}: {exc}") from exc


def is_real(v) -> bool:
    """The one real-number rule, JSON's number: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_real(name: str, v) -> float:
    """v as a float; refuse (ParameterDomainError) a v that is no real
    number (`is_real`), such as a numeric string or True, or an int past
    the float range.  A float passes first, without the call: the checks
    run on every object built."""
    if not (type(v) is float or is_real(v)):
        raise ParameterDomainError(f"{name} must be a real number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ParameterDomainError(f"{name} must lie in the float range, got an int "
                                   f"of {v.bit_length()} bits") from None


def check_positive(name: str, v):
    """Refuse (ParameterDomainError) a v that is no real number
    (`check_real`, which also refuses an int past the float range) or lies
    outside (0, inf), NaN included.  A float passes without the call."""
    if not 0.0 < (v if type(v) is float else check_real(name, v)) < math.inf:
        raise ParameterDomainError(f"{name} must be strictly positive, got {v}")


def check_integer(name: str, v):
    """Refuse (ParameterDomainError) a v that is not an int, or is a bool:
    a float or a bool is no integer, even where it equals one."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParameterDomainError(f"{name} must be an integer, got {v!r}")


# The most points a grid, or components an outlier block, may have: a
# count that a document states is built into a list of that length.
COUNT_CEILING = 2 ** 20


def check_count(name: str, v, least: int, unit: str = "", most: int | None = None):
    """Refuse (ParameterDomainError) a count v that is no integer
    (`check_integer`), is below `least` or, where given, above `most`."""
    check_integer(name, v)
    if v < least:
        raise ParameterDomainError(f"{name} needs at least {least}{unit}, got {v}")
    if most is not None and v > most:
        raise ParameterDomainError(f"{name} needs at most {most}{unit}, got {v}")
