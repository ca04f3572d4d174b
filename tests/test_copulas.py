"""Archimedean generators, copula values and dependent systems."""

import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from ordrel import (
    Clayton,
    DependentMax,
    DependentMin,
    Exponential,
    Frank,
    Independence,
    Lomax,
    ParameterDomainError,
    ShiftedSystem,
    compose_phi_psi,
    is_log_concave,
    is_log_convex,
    j1,
    j2,
    super_additive_check,
)
from ordrel import copulas
from ordrel.copulas import Generator, composition_super_additive, generator_from_json
from conftest import (GENERATORS, SHIFTED_SYSTEMS, UnstatedClayton, copula_value,
                      numeric_log_curvature)

prob = st.floats(min_value=1e-6, max_value=1.0 - 1e-9)


class TestGenerators:
    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: repr(g))
    def test_roundtrip(self, g):
        for i in range(1, 100):
            u = i / 100.0
            assert g.psi(g.phi(u)) == pytest.approx(u, abs=1e-10)

    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: repr(g))
    def test_boundary_conventions(self, g):
        assert g.phi(1.0) == pytest.approx(0.0, abs=1e-14)
        assert math.isinf(g.phi(0.0))
        assert g.psi(0.0) == pytest.approx(1.0, abs=1e-14)
        assert g.psi(math.inf) == 0.0

    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: repr(g))
    def test_psi_decreasing(self, g):
        xs = [0.01 * i for i in range(1, 500)]
        vals = [g.psi(x) for x in xs]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_parameter_domains(self):
        with pytest.raises(ParameterDomainError):
            Clayton(0.0)
        with pytest.raises(ParameterDomainError):
            Clayton(-1.0)
        with pytest.raises(ParameterDomainError):
            Clayton(math.inf)
        with pytest.raises(ParameterDomainError):
            Clayton(math.nan)
        with pytest.raises(ParameterDomainError):
            Frank(0.0)
        with pytest.raises(ParameterDomainError):
            Independence().phi(1.5)
        with pytest.raises(ParameterDomainError):
            Independence().psi(-0.1)

    def test_negative_frank_is_a_generator_only_in_dimension_2(self):
        # theta < 0 makes psi 2-monotone, not 3-monotone
        assert Frank(-2.0).dim == 2 and Frank(2.0, dim=3).dim == 3
        for dim in (3, 4):
            with pytest.raises(ParameterDomainError, match="2-monotone"):
                Frank(-2.0, dim=dim)
            with pytest.raises(ParameterDomainError):
                generator_from_json({"family": "frank", "theta": -0.5, "dim": dim})

    @pytest.mark.parametrize("g", GENERATORS, ids=lambda g: repr(g))
    def test_json_roundtrip(self, g):
        g2 = generator_from_json(g.to_json())
        assert g2 == g

    def test_clayton_phi_overflow_raises(self):
        # psi(phi(0.7)) is 0.7 at theta = 2000, so a phi saturated to inf,
        # with psi(inf) = 0, would give a wrong answer instead of none
        with pytest.raises(OverflowError):
            Clayton(2000.0).phi(0.7)

    @given(prob, st.floats(min_value=0.1, max_value=5.0))
    def test_clayton_roundtrip_property(self, u, theta):
        g = Clayton(theta)
        assert g.psi(g.phi(u)) == pytest.approx(u, abs=1e-9)


class TestLogCurvature:
    def test_independence_is_log_linear(self):
        g = Independence()
        assert is_log_convex(g) and is_log_concave(g)

    def test_clayton_is_log_convex(self):
        for theta in (0.3, 1.0, 4.0):
            assert is_log_convex(Clayton(theta))
            assert not is_log_concave(Clayton(theta))

    def test_frank_sign_of_theta(self):
        assert is_log_convex(Frank(2.0))
        assert is_log_concave(Frank(-2.0))
        assert not is_log_convex(Frank(-2.0))


@pytest.fixture
def numeric_only(monkeypatch):
    """The numeric checks: the log-curvature oracle for each branch, and the
    super-additivity check, whose module name now raises, so a closed-form
    row that falls back to it fails."""
    checks = (lambda g: numeric_log_curvature(g, 1.0),
              lambda g: numeric_log_curvature(g, -1.0), super_additive_check)

    def forbidden(*args, **kwargs):
        raise AssertionError("a closed form went to a numeric check")

    monkeypatch.setattr(copulas, "super_additive_check", forbidden)
    return checks


class TestClosedForms:
    """The exact generator rows against the numeric checks, which stay the
    oracle.  At the numeric checks' tolerance the two differ only on
    inputs that the tolerance decides."""

    DRAW = {
        "clayton": lambda rng: Clayton(rng.uniform(0.1, 6.0)),
        "frank": lambda rng: Frank(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 6.0)),
    }

    @classmethod
    def _pairs(cls, family, count=1000):
        """(outer, inner) pairs: same-family pairs with every sixth one at
        theta_a = theta_b, and theta_a = theta_b(1 +- 1e-8), or independence
        against the family in both orders."""
        rng = random.Random(f"closed-form-{family}")
        if family == "independence":
            return [pair for i in range(count // 2) for pair in (
                (Independence(), cls.DRAW["clayton" if i % 2 else "frank"](rng)),
                (cls.DRAW["frank" if i % 2 else "clayton"](rng), Independence()))
            ] + [(Independence(), Independence())]
        pairs = []
        for i in range(count):
            a, b = cls.DRAW[family](rng), cls.DRAW[family](rng)
            scale = {1: 1.0, 2: 1.0 + 1e-8, 3: 1.0 - 1e-8}.get(i % 6)
            pairs.append((type(a)(b.theta * scale) if scale else a, b))
        return pairs

    @pytest.mark.parametrize("family", ["clayton", "frank", "independence"])
    def test_super_additivity_is_the_theta_order(self, numeric_only, monkeypatch, family):
        check = numeric_only[2]
        pairs = self._pairs(family)
        outcomes = {True: 0, False: 0}
        forgiven = 0
        for outer, inner in pairs:
            exact = composition_super_additive(outer, inner)
            assert exact == (outer.theta >= inner.theta)
            outcomes[exact] += 1
            h = compose_phi_psi(outer, inner)
            numeric = check(h)[0]
            if numeric != exact:
                # only a theta gap the tolerance hides, and the check forgives it
                assert numeric and 0 < inner.theta - outer.theta <= 2e-8 * abs(inner.theta)
                forgiven += 1
            with monkeypatch.context() as m:  # rounding alone is still forgiven
                m.setattr(copulas, "SUPER_ADDITIVE_TAU", 1e-13)
                assert check(h)[0] == exact, (outer, inner)
        assert len(pairs) >= 1000 and min(outcomes.values()) >= 300, outcomes
        assert forgiven <= len(pairs) // 20

    @pytest.mark.parametrize("family", ["clayton", "frank"])
    def test_log_curvature_is_stated(self, numeric_only, family):
        convex, concave, _ = numeric_only
        rng = random.Random(f"curvature-{family}")
        generators = [self.DRAW[family](rng) for _ in range(1000)] + [Independence()]
        for g in generators:
            assert copulas.is_log_convex(g) == convex(g)
            assert copulas.is_log_concave(g) == concave(g)

    def test_scan_box_is_covered(self):
        # T7/T8 scan Clayton theta up to 5.0
        thetas = [g.theta for pair in self._pairs("clayton") for g in pair]
        assert min(thetas) < 0.2 and max(thetas) > 5.5

    @pytest.mark.parametrize("g,convex,concave", [
        (Clayton(1e-8), (True, False), (True, True)),
        (Frank(1e-7), (True, False), (True, True)),
        (Frank(-1e-7), (False, True), (True, True)),
    ], ids=repr)
    def test_tolerance_limited_curvature_is_exact(self, g, convex, concave):
        # (convex, concave): the closed form, then what the numeric oracle reads
        assert (is_log_convex(g), is_log_concave(g)) == convex
        assert (numeric_log_curvature(g, 1.0), numeric_log_curvature(g, -1.0)) == concave

    @pytest.mark.parametrize("outer,inner", [
        (Frank(0.5), Frank(0.5 * (1.0 + 1e-8))),
        (Frank(-0.5 * (1.0 + 1e-8)), Frank(-0.5)),
    ], ids=repr)
    def test_tolerance_limited_super_additivity_is_exact(self, outer, inner):
        # theta_outer < theta_inner by 5e-9: fails, which the check forgives
        assert not composition_super_additive(outer, inner)
        assert super_additive_check(compose_phi_psi(outer, inner))[0]

    def test_pairs_without_a_closed_form_take_the_numeric_check(self, monkeypatch):
        calls = []

        def recording(name):
            original = getattr(copulas, name)
            monkeypatch.setattr(copulas, name, lambda *a: calls.append(name) or original(*a))

        for name in ("is_log_convex", "is_log_concave", "super_additive_check"):
            recording(name)
        for outer, inner in ((Clayton(2.0), Frank(1.0)), (Frank(-1.0), Clayton(0.5)),
                             (UnstatedClayton(2.0), Clayton(1.0)), (Clayton(2.0), UnstatedClayton(1.0))):
            expect = super_additive_check(compose_phi_psi(outer, inner))[0]
            calls.clear()
            assert composition_super_additive(outer, inner) == expect
            assert calls == ["super_additive_check"]
        for name in ("is_log_convex", "is_log_concave"):
            calls.clear()
            with pytest.raises(ParameterDomainError) as info:
                getattr(copulas, name)(UnstatedClayton(2.0))
            assert str(info.value) == "UnstatedClayton states no log curvature"
            assert calls == [name]
        assert Generator.log_curvature is None and Generator.theta_kin == frozenset()


class TestCopulaValues:
    def test_independence_is_product(self):
        g = Independence()
        assert copula_value(g, (0.3, 0.7)) == pytest.approx(0.21, rel=1e-12)

    def test_frechet_bounds(self):
        for g in GENERATORS:
            for u in ((0.2, 0.8), (0.5, 0.5), (0.9, 0.3)):
                c = copula_value(g, u)
                assert max(sum(u) - 1.0, 0.0) - 1e-9 <= c <= min(u) + 1e-9

    def test_zero_argument_absorbs(self):
        for g in GENERATORS:
            assert copula_value(g, (0.0, 0.5)) == 0.0

    def test_clayton_small_theta_near_independence(self):
        g = Clayton(1e-3)
        ind = Independence()
        for u1 in (0.2, 0.5, 0.8):
            for u2 in (0.2, 0.5, 0.8):
                assert copula_value(g, (u1, u2)) == pytest.approx(
                    copula_value(ind, (u1, u2)), abs=2e-4)


class TestSuperAdditivity:
    def test_clayton_pair_ordered_thetas(self):
        # phi_a(psi_b(x)) is super-additive exactly when theta_a >= theta_b
        ok, _ = super_additive_check(compose_phi_psi(Clayton(2.0), Clayton(1.0)))
        assert ok
        ok, witness = super_additive_check(compose_phi_psi(Clayton(1.0), Clayton(2.0)))
        assert not ok and witness is not None

    def test_identity_composition(self):
        g = Clayton(1.5)
        ok, _ = super_additive_check(compose_phi_psi(g, g))
        assert ok

    @staticmethod
    def _pairwise(h, x_max=10.0, n=48, tau=1e-9):
        """The check as first written: h(x+y) evaluated afresh for every
        grid pair."""
        xs = [i * x_max / (2 * (n - 1)) for i in range(n)]
        vals = [h(x) for x in xs]
        for i, x in enumerate(xs):
            for j in range(i, len(xs)):
                y = xs[j]
                lhs = h(x + y)
                rhs = vals[i] + vals[j]
                if lhs < rhs - tau * (1.0 + abs(rhs)):
                    return False, (x, y, lhs, rhs)
        return True, None

    @staticmethod
    def _draw_generator(rng):
        family = rng.choice(("clayton", "independence", "frank"))
        if family == "clayton":
            return Clayton(rng.uniform(0.2, 4.0))
        if family == "frank":
            return Frank(rng.uniform(0.2, 6.0))
        return Independence()

    @staticmethod
    def _edge_functions():
        """Functions h with infinite and NaN values on the lattice."""
        return [
            lambda x: math.inf if x > 3.0 else x * x,
            lambda x: math.inf if x == 0.0 else x * x,
            lambda x: -math.inf if x == 0.0 else x,
            lambda x: math.nan if 2.0 < x < 2.5 else x * x,
            lambda x: math.nan if x == 0.0 else x * x,
        ]

    def test_lattice_agrees_with_pairwise_check(self, monkeypatch):
        rng = random.Random(2024)
        outcomes = {True: 0, False: 0}
        pairs = [(Clayton(t1), Clayton(t2)) for t1, t2 in
                 ((rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0)) for _ in range(80))]
        pairs += [(b, a) for a, b in pairs]  # Clayton x Clayton in both orders
        pairs += [(self._draw_generator(rng), self._draw_generator(rng))
                  for _ in range(160)]
        pairs += [(g, g) for g in GENERATORS]  # phi(psi(x)) = x up to rounding
        functions = [compose_phi_psi(outer, inner) for outer, inner in pairs]
        functions += self._edge_functions()
        for h in functions:
            n = rng.choice((48, 48, 17, 64))
            x_max = 10.0 if n == 48 else rng.uniform(1.0, 20.0)
            monkeypatch.setattr(copulas, "SUPER_ADDITIVE_X_MAX", x_max)
            monkeypatch.setattr(copulas, "SUPER_ADDITIVE_N", n)
            ok, witness = super_additive_check(h)
            ok_ref, witness_ref = self._pairwise(h, x_max=x_max, n=n)
            assert ok == ok_ref, (h, n, x_max)
            outcomes[ok] += 1
            if not ok:
                x, y, lhs, rhs = witness
                assert (x, y, rhs) == (witness_ref[0], witness_ref[1], witness_ref[3])
                assert lhs == pytest.approx(witness_ref[2], rel=1e-12, abs=1e-12)
                step = x_max / (2 * (n - 1))
                k = round((x + y) / step)
                assert 0 <= k <= 2 * n - 2
                assert x + y == pytest.approx(k * step, rel=1e-12, abs=1e-12)
                assert lhs == h(k * x_max / (2 * (n - 1)))
        assert len(pairs) >= 300
        assert min(outcomes.values()) >= 50, outcomes

    @pytest.mark.parametrize("n", [48, 64, 5])
    @pytest.mark.parametrize("thetas", [(2.0, 1.0), (1.0, 2.0)], ids=["passes", "fails"])
    def test_h_evaluated_once_per_lattice_point(self, n, thetas, monkeypatch):
        monkeypatch.setattr(copulas, "SUPER_ADDITIVE_N", n)
        h = compose_phi_psi(Clayton(thetas[0]), Clayton(thetas[1]))
        seen = []

        def counting(x):
            seen.append(x)
            return h(x)

        ok, _ = super_additive_check(counting)
        assert ok == (thetas[0] >= thetas[1])
        assert len(seen) == len(set(seen)) == 2 * n - 1


class TestFrankNegativeTheta:
    @pytest.mark.parametrize("theta", [-5.0, -1.0, -0.3])
    def test_psi_stays_in_unit_interval(self, theta):
        g = Frank(theta)
        assert g.psi(0.0) == 1.0
        for i in range(200):
            x = 0.05 * i
            u = g.psi(x)
            assert 0.0 <= u <= 1.0
            assert g.phi(u) == pytest.approx(x, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("thetas", [(-0.3, -0.5), (-0.5, -0.3)])
    def test_super_additive_check_runs(self, thetas):
        ok, witness = super_additive_check(compose_phi_psi(*map(Frank, thetas)))
        assert ok or witness is not None


class TestFrankLargeTheta:
    # 1 - (1 - e^-theta) e^-x cancels near x = 0 for large theta, and
    # rounds to 0 there from theta ~ 37
    XS = [0.0] + [10.0 ** -k for k in range(20, 1, -1)] + [0.05 * i for i in range(1, 400)]

    @pytest.mark.parametrize("theta", [30.0, 37.0, 40.0, 100.0, 700.0])
    def test_psi_starts_at_one_and_decreases(self, theta):
        g = Frank(theta)
        assert g.psi(0.0) == 1.0
        ps = [g.psi(x) for x in self.XS]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(b <= a for a, b in zip(ps, ps[1:]))


class TestFrankPrecision:
    def test_tiny_theta_keeps_psi(self):
        # 1 - e^-theta rounds to 0 below theta ~ 1e-16; near 0 Frank is the
        # independence generator e^-x
        assert Frank(1e-17).psi(0.0) == 1.0
        g = Frank(1e-12)
        for i in range(400):
            x = 0.05 * i
            assert abs(g.psi(x) - math.exp(-x)) <= 1e-9

    @pytest.mark.parametrize("theta", [5e-324, -1e-310])
    def test_subnormal_theta_is_refused(self, theta):
        # t * u underflows to 0 in phi (a log of 0) and psi reads 1.0
        with pytest.raises(ParameterDomainError, match="normal theta"):
            Frank(theta)

    def test_smallest_normal_theta_round_trips(self):
        g = Frank(sys.float_info.min)
        for i in range(1, 1001):
            u = i / 1001
            assert abs(g.psi(g.phi(u)) - u) <= 1e-12, u

    @pytest.mark.parametrize("theta,u", [(0.02, 1e-323), (0.3, 5e-324), (-0.5, 5e-324),
                                         (1.0, 5e-324), (0.02, 1e-310)])
    def test_phi_at_a_subnormal_u(self, theta, u):
        # theta*u rounds to 0 or to a subnormal; phi(u) + ln u is the same
        # log|1 - e^-theta| - ln|theta| there as at u = 1e-300
        g = Frank(theta)
        v = g.phi(u)
        assert math.isfinite(v)
        assert v + math.log(u) == pytest.approx(g.phi(1e-300) + math.log(1e-300), abs=1e-12)

    @pytest.mark.parametrize("theta", [1e-300, 0.02, -0.5, 1.0, 40.0, -30.0])
    def test_phi_keeps_its_normal_range_bits(self, theta):
        # wherever theta*u is a normal float, phi is the difference of logs
        g, lome = Frank(theta), copulas._log_one_minus_exp
        us = [10.0 ** -k for k in range(0, 330, 7)] + [i / 97 for i in range(1, 97)]
        for u in us:
            if abs(theta * u) >= sys.float_info.min:
                assert g.phi(u) == lome(theta) - lome(theta * u), u

    @pytest.mark.parametrize("theta", [1e-12, 1.0, 40.0, 700.0, -2.0, -30.0])
    def test_phi_inverts_psi(self, theta):
        # the log of the ratio expm1(-theta u) / expm1(-theta) lost ~6e-4
        # of u at theta = 40
        g = Frank(theta)
        for i in range(1, 1001):
            u = i / 1001
            assert abs(g.psi(g.phi(u)) - u) <= 1e-12 * u, u


class TestClaytonPrecision:
    @pytest.mark.parametrize("theta", [1e-15, 1e-17])
    def test_tiny_theta_keeps_psi_and_phi(self, theta):
        # 1 + theta*x and u**-theta round to 1 near theta = 0, where
        # Clayton is the independence generator e^-x
        g = Clayton(theta)
        assert abs(g.psi(0.5) - math.exp(-0.5)) <= 1e-12
        assert abs(g.psi(g.phi(0.3)) - 0.3) <= 1e-12

    @pytest.mark.parametrize("theta", [5e-324, 1e-310])
    def test_subnormal_theta_is_refused(self, theta):
        # theta*x and theta*ln(u) round to 0 or the smallest subnormal:
        # psi(0.5) and phi(0.5) both read 1.0 at 5e-324
        with pytest.raises(ParameterDomainError, match="normal theta"):
            Clayton(theta)

    def test_smallest_normal_theta_round_trips(self):
        g = Clayton(sys.float_info.min)
        assert abs(g.psi(g.phi(0.5)) - 0.5) <= 1e-12
        assert abs(g.psi(0.5) - math.exp(-0.5)) <= 1e-12

    def test_phi_out_of_float_range_overflows(self):
        # expm1(-theta log u) leaves the float range for u < 0.7
        with pytest.raises(OverflowError, match="math range error"):
            Clayton(2000.0).phi(0.7)


class TestShiftedSystems:
    def test_dimension_must_match(self):
        with pytest.raises(ParameterDomainError):
            ShiftedSystem(Exponential(1.0), (0.1, 0.2, 0.3), Clayton(1.0, dim=2))
        with pytest.raises(ParameterDomainError):
            ShiftedSystem(Exponential(1.0), (0.1,), Clayton(1.0, dim=1))

    def test_independence_j1_is_product_of_sfs(self):
        s = ShiftedSystem(Exponential(1.0), (0.2, 0.5), Independence())
        for x in (-0.1, 0.3, 1.0):
            expect = s.baseline.sf(x + 0.2) * s.baseline.sf(x + 0.5)
            assert j1(s, x) == pytest.approx(expect, rel=1e-12)

    def test_independence_j2_is_one_minus_product_of_cdfs(self):
        s = ShiftedSystem(Exponential(1.0), (0.2, 0.5), Independence())
        for x in (0.3, 1.0, 2.5):
            expect = 1.0 - s.baseline.cdf(x + 0.2) * s.baseline.cdf(x + 0.5)
            assert j2(s, x) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("s", SHIFTED_SYSTEMS,
                             ids=lambda s: type(s.generator).__name__)
    def test_j1_j2_decreasing_in_x(self, s):
        xs = [-1.0 + 0.05 * i for i in range(80)]
        for fn in (j1, j2):
            vals = [fn(s, x) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", SHIFTED_SYSTEMS,
                             ids=lambda s: type(s.generator).__name__)
    def test_j1_j2_decreasing_in_each_shift(self, s):
        xs = [-0.5 + 0.1 * i for i in range(30)]
        for i in range(len(s.shifts)):
            bumped = list(s.shifts)
            bumped[i] += 0.1
            s2 = ShiftedSystem(s.baseline, tuple(bumped), s.generator)
            for x in xs:
                assert j1(s2, x) <= j1(s, x) + 1e-12
                assert j2(s2, x) <= j2(s, x) + 1e-12

    def test_wrappers_expose_distribution_surface(self):
        mn, mx = (extreme(Lomax(2.0, 1.0), (0.0, 0.5), Clayton(1.0))
                  for extreme in (DependentMin, DependentMax))
        x = 0.7
        assert mn.sf(x) + mn.cdf(x) == pytest.approx(1.0, abs=1e-12)
        assert mx.sf(x) + mx.cdf(x) == pytest.approx(1.0, abs=1e-12)
        assert mn.sf(x) <= mx.sf(x) + 1e-12  # min dies before max
        assert mn.support[0] == -0.5
