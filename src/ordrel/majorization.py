"""Majorization relations.

The three relations are one ascending prefix-sum test with a float
tolerance scaled by the vector magnitude: weak supermajorization is the
test itself, majorization is equal sums and the test, and weak
submajorization is the test on the negated vectors (negation is exact and
turns descending prefix sums into ascending ones).
"""

from __future__ import annotations

import math

from .errors import ParameterDomainError
from .special import left_sum

_REL_TOL = 1e-12


def _prep(a, b):
    a, b = list(a), list(b)
    if len(a) != len(b):
        raise ParameterDomainError("majorization compares equal-length vectors only")
    if len(a) < 2:
        raise ParameterDomainError("vectors need at least two entries")
    if not all(math.isfinite(v) for v in a + b):
        raise ParameterDomainError("vector entries must be finite")
    return a, b


def _tol(a, b):
    scale = max([abs(v) for v in a + b] + [1.0])
    return _REL_TOL * scale * len(a)


def _ascending_prefixes_dominate(a, b) -> bool:
    """Every ascending prefix sum of a is at least that of b, within the
    tolerance."""
    tol = _tol(a, b)
    ca = cb = 0.0
    for x, y in zip(sorted(a), sorted(b)):
        ca += x
        cb += y
        if ca < cb - tol:
            return False
    return True


def majorizes(a, b) -> bool:
    """a majorized by b (a < b in the majorization pre-order): equal sums and
    every ascending prefix sum of a at least that of b."""
    a, b = _prep(a, b)
    if abs(left_sum(a) - left_sum(b)) > _tol(a, b):
        return False
    return _ascending_prefixes_dominate(a, b)


def weak_submajorizes(a, b) -> bool:
    """a weakly submajorized by b: every descending prefix sum of a is at
    most that of b, i.e. -a is weakly supermajorized by -b."""
    a, b = _prep(a, b)
    return _ascending_prefixes_dominate([-v for v in a], [-v for v in b])


def weak_supermajorizes(a, b) -> bool:
    """a weakly supermajorized by b: every ascending prefix sum of a is at
    least that of b."""
    return _ascending_prefixes_dominate(*_prep(a, b))
