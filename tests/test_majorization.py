"""Majorization relations."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from ordrel import (
    ParameterDomainError,
    majorizes,
    weak_submajorizes,
    weak_supermajorizes,
)

vecs = st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=5)


class TestRelations:
    def test_textbook_examples(self):
        # mean vector is majorized by anything with the same sum
        assert majorizes((2.0, 2.0, 2.0), (1.0, 2.0, 3.0))
        assert not majorizes((1.0, 2.0, 3.0), (2.0, 2.0, 2.0))
        # different sums never majorize
        assert not majorizes((1.0, 1.0), (1.0, 2.0))

    def test_weak_sub(self):
        # entrywise smaller (descending prefix sums smaller) qualifies
        assert weak_submajorizes((1.0, 2.0), (1.5, 2.5))
        assert not weak_submajorizes((1.5, 2.5), (1.0, 2.0))
        assert weak_submajorizes((2.0, 2.0), (1.0, 3.5))

    def test_weak_super(self):
        # entrywise larger (ascending prefix sums larger) qualifies
        assert weak_supermajorizes((1.5, 2.5), (1.0, 2.0))
        assert not weak_supermajorizes((1.0, 2.0), (1.5, 2.5))
        assert weak_supermajorizes((2.0, 2.0), (0.5, 3.0))

    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            majorizes((1.0,), (1.0,))
        with pytest.raises(ParameterDomainError):
            majorizes((1.0, 2.0), (1.0, 2.0, 3.0))
        with pytest.raises(ParameterDomainError):
            weak_submajorizes((float("nan"), 1.0), (1.0, 1.0))

    @given(vecs)
    def test_reflexive(self, a):
        assert majorizes(a, a)
        assert weak_submajorizes(a, a)
        assert weak_supermajorizes(a, a)

    @given(vecs)
    def test_permutation_invariant(self, a):
        assert majorizes(a, list(reversed(a)))

    @given(vecs)
    def test_majorization_implies_both_weak_forms(self, a):
        b = list(reversed(sorted(a)))
        if majorizes(a, b):
            assert weak_submajorizes(a, b)
            assert weak_supermajorizes(a, b)

    @given(vecs, st.floats(min_value=0.01, max_value=2.0))
    def test_shift_gives_weak_relations(self, a, c):
        up = [v + c for v in a]
        assert weak_submajorizes(a, up)
        assert weak_supermajorizes(up, a)

    def test_weak_forms_order_monotone_schur_convex_functions(self):
        # Marshall-Olkin 3.A.8: a weakly submajorized by b gives f(a) <= f(b)
        # for increasing Schur-convex f, a weakly supermajorized by b gives it
        # for decreasing Schur-convex f; the reversed pair is not implied.
        increasing = lambda a: sum(math.exp(x) for x in a)
        decreasing = lambda a: sum(math.exp(-x) for x in a)
        rng = random.Random(11)
        hits = {"sub": 0, "super": 0}
        for _ in range(600):
            n = rng.randint(2, 4)
            a = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            b = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            if weak_submajorizes(a, b):
                hits["sub"] += 1
                assert increasing(a) <= increasing(b) * (1.0 + 1e-12)
            if weak_supermajorizes(a, b):
                hits["super"] += 1
                assert decreasing(a) <= decreasing(b) * (1.0 + 1e-12)
        assert min(hits.values()) >= 50, hits
        # an increasing function is not ordered by supermajorization
        assert weak_supermajorizes((2.0, 3.0), (1.0, 2.0))
        assert not weak_submajorizes((2.0, 3.0), (1.0, 2.0))
        assert increasing((2.0, 3.0)) > increasing((1.0, 2.0))


def _old_tol(a, b):
    return 1e-12 * max([abs(v) for v in a + b] + [1.0]) * len(a)


def _old_majorizes(a, b):
    tol = _old_tol(a, b)
    if abs(sum(a) - sum(b)) > tol:
        return False
    sa, sb = sorted(a), sorted(b)
    ca = cb = 0.0
    for i in range(len(a) - 1):
        ca += sa[i]
        cb += sb[i]
        if ca < cb - tol:
            return False
    return True


def _old_weak_sub(a, b):
    tol = _old_tol(a, b)
    ca = cb = 0.0
    for x, y in zip(sorted(a, reverse=True), sorted(b, reverse=True)):
        ca += x
        cb += y
        if ca > cb + tol:
            return False
    return True


def _old_weak_super(a, b):
    tol = _old_tol(a, b)
    ca = cb = 0.0
    for x, y in zip(sorted(a), sorted(b)):
        ca += x
        cb += y
        if ca < cb - tol:
            return False
    return True


def _seeded_pairs(count, seed):
    """Random pairs, pairs on a coarse lattice (ties, equal sums) and pairs
    where b is a with a transfer between two entries (equal sums)."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 5)
        if k % 3 == 0:
            yield ([rng.uniform(-3.0, 3.0) for _ in range(n)],
                   [rng.uniform(-3.0, 3.0) for _ in range(n)])
        elif k % 3 == 1:
            yield ([rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)) for _ in range(n)],
                   [rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)) for _ in range(n)])
        else:
            a = [float(rng.randint(-4, 4)) for _ in range(n)]
            b = a[:]
            i, j = rng.sample(range(n), 2)
            t = float(rng.randint(-2, 2))
            b[i] += t
            b[j] -= t
            rng.shuffle(b)
            yield a, b


def test_relations_agree_with_the_prefix_loops():
    # the three relations share one ascending prefix test; each must give
    # the verdict of its own prefix loop
    relations = [(majorizes, _old_majorizes), (weak_submajorizes, _old_weak_sub),
                 (weak_supermajorizes, _old_weak_super)]
    seen = {rel.__name__: set() for rel, _ in relations}
    for a, b in _seeded_pairs(600, seed=5):
        for rel, old in relations:
            verdict = rel(a, b)
            assert verdict == old(a, b), (rel.__name__, a, b)
            seen[rel.__name__].add(verdict)
    assert all(v == {True, False} for v in seen.values()), seen


def _implication(f, a, b, monotonicity, tol=1e-9):
    """Weak-majorization implication for a monotone Schur-convex f:
    (relation used or None, whether f(a) <= f(b) was confirmed)."""
    if monotonicity == "increasing":
        relation = "submajorize" if weak_submajorizes(a, b) else None
    else:
        relation = "supermajorize" if weak_supermajorizes(a, b) else None
    f_a, f_b = f(list(a)), f(list(b))
    confirmed = relation is not None and f_a <= f_b + tol * (1.0 + abs(f_b))
    return relation, confirmed


class TestImplication:
    def test_increasing_convex_uses_submajorization(self):
        f = lambda a: sum(x * x for x in a)
        relation, confirmed = _implication(f, (1.0, 2.0), (1.5, 2.5), "increasing")
        assert relation == "submajorize"
        assert confirmed and f([1.0, 2.0]) <= f([1.5, 2.5])

    def test_decreasing_convex_uses_supermajorization(self):
        f = lambda a: sum(1.0 / x for x in a)
        relation, confirmed = _implication(f, (2.0, 3.0), (1.0, 2.0), "decreasing")
        assert relation == "supermajorize"
        assert confirmed

    def test_not_applicable(self):
        f = lambda a: sum(a)
        relation, confirmed = _implication(f, (5.0, 5.0), (1.0, 1.0), "increasing")
        assert relation is None and not confirmed
