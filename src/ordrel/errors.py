"""Exception types shared across the toolkit, and the positive-parameter rule."""

import math


class OrdrelError(Exception):
    """Base class for all toolkit errors."""


class ParameterDomainError(OrdrelError, ValueError):
    """A shape/scale/rate parameter or function argument is out of domain."""


class SupportError(OrdrelError, ValueError):
    """Evaluation requested where the distribution degenerates (tail hit,
    zero survival/cdf, grid outside support, empty support overlap)."""


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
