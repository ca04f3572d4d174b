"""Majorization relations and numerical Schur-convexity certification.

The three relations are one ascending prefix-sum test with a float
tolerance scaled by the vector magnitude: weak supermajorization is the
test itself, majorization is equal sums and the test, and weak
submajorization is the test on the negated vectors (negation is exact and
turns descending prefix sums into ascending ones).

``schur_certify`` is a sampler, not a prover: "certified" means no
violation of the pairwise difference criterion

    Delta = (a_i - a_j) * (df/da_i - df/da_j)

was found across the sample (Delta >= 0 everywhere characterises a
Schur-convex function, Delta <= 0 a Schur-concave one).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import ParameterDomainError
from .special import left_sum

_REL_TOL = 1e-12
SCHUR_DELTA_TOL = 1e-7  # slack on the sign of a sampled Delta
SCHUR_SYMMETRY_TOL = 1e-8  # relative slack of the symmetry spot check


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


@dataclass(frozen=True)
class SchurCertificate:
    mode: str  # "convex" | "concave"
    verdict: str  # "certified" | "refuted" | "inconclusive"
    min_delta: float
    max_delta: float
    samples: int
    witness: tuple[tuple[float, ...], int, int, float] | None  # (point, i, j, delta)
    seed: int

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json(self) -> dict:
        out = {"mode": self.mode, "verdict": self.verdict,
               "min_delta": self.min_delta, "max_delta": self.max_delta,
               "samples": self.samples, "seed": self.seed}
        if self.witness is not None:
            out["witness"] = {"point": list(self.witness[0]), "i": self.witness[1],
                              "j": self.witness[2], "delta": self.witness[3]}
        return out


def _partial(f, a, i, h):
    up = list(a)
    dn = list(a)
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def schur_certify(f, region, mode: str = "convex", samples: int = 200,
                  seed: int = 0) -> SchurCertificate:
    """Sample the Schur criterion for f over a box region [(lo, hi), ...].

    A Delta below -``SCHUR_DELTA_TOL`` (convex) or above it (concave)
    refutes.  Symmetry of f is the caller's responsibility but is
    spot-checked on a few sampled permutations, within relative
    ``SCHUR_SYMMETRY_TOL``; an asymmetric f raises immediately.
    """
    if mode not in ("convex", "concave"):
        raise ParameterDomainError(f"unknown mode {mode!r}")
    region = [(float(lo), float(hi)) for lo, hi in region]
    n = len(region)
    if n < 2:
        raise ParameterDomainError("region must be at least 2-dimensional")
    rng = random.Random(seed)
    min_d, max_d = math.inf, -math.inf
    witness = None
    evaluated = 0
    for k in range(samples):
        a = [lo + rng.random() * (hi - lo) for lo, hi in region]
        if k < 5:
            # symmetry spot check on a random permutation
            perm = a[:]
            rng.shuffle(perm)
            if abs(f(a) - f(perm)) > SCHUR_SYMMETRY_TOL * (1.0 + abs(f(a))):
                raise ParameterDomainError("function is not symmetric on the region")
        for i, j in itertools.combinations(range(n), 2):
            hi_ = 1e-5 * (1.0 + abs(a[i]))
            hj_ = 1e-5 * (1.0 + abs(a[j]))
            di = _partial(f, a, i, hi_)
            dj = _partial(f, a, j, hj_)
            delta = (a[i] - a[j]) * (di - dj)
            if not math.isfinite(delta):
                continue
            evaluated += 1
            min_d = min(min_d, delta)
            max_d = max(max_d, delta)
            bad = delta < -SCHUR_DELTA_TOL if mode == "convex" else delta > SCHUR_DELTA_TOL
            if bad and witness is None:
                witness = (tuple(a), i, j, delta)
    if evaluated == 0:
        return SchurCertificate(mode, "inconclusive", math.nan, math.nan,
                                samples, None, seed)
    verdict = "refuted" if witness is not None else "certified"
    return SchurCertificate(mode, verdict, min_d, max_d, samples, witness, seed)

