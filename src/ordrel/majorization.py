"""Majorization relations.

The three relations are one ascending prefix-sum test with a float
tolerance scaled by the vector magnitude: weak supermajorization is the
test itself, weak submajorization is the test on the negated vectors
(negation is exact and turns descending prefix sums into ascending ones),
and majorization is both weak relations: their full prefix sums bound the
sum of a by that of b from each side.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .errors import ParameterDomainError

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
    tolerance; each prefix sum adds left to right."""
    tol = _tol(a, b)
    return all(ca >= cb - tol for ca, cb in zip(accumulate(sorted(a)), accumulate(sorted(b))))


def majorizes(a, b) -> bool:
    """a majorized by b (a < b in the majorization pre-order): a is both
    weakly sub- and weakly supermajorized by b."""
    return weak_submajorizes(a, b) and weak_supermajorizes(a, b)


def weak_submajorizes(a, b) -> bool:
    """a weakly submajorized by b: every descending prefix sum of a is at
    most that of b, i.e. -a is weakly supermajorized by -b."""
    a, b = _prep(a, b)
    return _ascending_prefixes_dominate([-v for v in a], [-v for v in b])


def weak_supermajorizes(a, b) -> bool:
    """a weakly supermajorized by b: every ascending prefix sum of a is at
    least that of b."""
    return _ascending_prefixes_dominate(*_prep(a, b))
