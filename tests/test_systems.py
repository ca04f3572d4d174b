"""Series/parallel system distributions, closed forms and moments."""

import importlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from ordrel import (
    Exponential,
    GridSpec,
    Lomax,
    MomentUndefinedError,
    OrderStatDist,
    ParameterDomainError,
    ParetoI,
    ReflectedDFR,
    SystemSpec,
    Weibull,
    lomax_min_moments,
    mixed_parallel,
    mixed_series,
    numeric_mean_variance,
    numeric_moment,
    parallel_prhr,
    series_phr,
    weibull_min_variance,
)
from ordrel.systems import PARALLEL_PRHR, SERIES_PHR

pos = st.floats(min_value=0.3, max_value=3.0)


class TestSystemSpec:
    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            SystemSpec("triangle", ((Exponential(1.0), 1.0),))
        with pytest.raises(ParameterDomainError):
            series_phr(Exponential(1.0), (1.0, -2.0))
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterDomainError):
                series_phr(Exponential(1.0), (1.0, bad))
        with pytest.raises(ParameterDomainError):
            SystemSpec(SERIES_PHR, ())

    def test_split_validation(self):
        with pytest.raises(ParameterDomainError):
            series_phr(Exponential(1.0), (1.0, 2.0), split=2)
        mixed = mixed_series(Exponential(1.0), (1.0,), Lomax(2.0), (0.5, 0.5))
        assert mixed.split == 1
        assert mixed.front_sum() == pytest.approx(1.0)
        assert mixed.back_sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("split", [True, 1.0, 1.5])
    def test_split_is_a_count(self, split):
        # True split after the first component; a float raised a bare TypeError
        comps = ((Exponential(1.0), 1.0), (Lomax(2.0), 0.5))
        with pytest.raises(ParameterDomainError) as info:
            SystemSpec(SERIES_PHR, comps, split=split)
        assert str(info.value) == f"split must be an integer, got {split!r}"

    def test_sums_add_left_to_right(self):
        # a compensated sum gives 1e16 + 2; left to right, each + 1.0 rounds
        # back to 1e16 (ties to even), on every Python version
        s = series_phr(Exponential(1.0), (1e16, 1.0, 1.0))
        assert s.prop_sum() == 1e16
        mixed = mixed_series(Exponential(1.0), (1e16, 1.0, 1.0), Lomax(2.0), (1.0,))
        assert (mixed.front_sum(), mixed.back_sum()) == (1e16, 1.0)
        o, xs = OrderStatDist(s), [0.0, 1e-17, 1e-16]
        assert o.rate_sweep("hazard", xs)[1] == [o._rate_sum(x) for x in xs] == [1e16] * 3

    def test_same_baseline_detection(self):
        s = series_phr(Exponential(1.0), (1.0, 2.0))
        assert s.same_baseline() == Exponential(1.0)
        m = mixed_series(Exponential(1.0), (1.0,), Lomax(2.0), (1.0,))
        assert m.same_baseline() is None

    def test_json_roundtrip(self):
        s = mixed_parallel(Lomax(2.0, 1.5), (0.5, 1.5), Exponential(1.0), (2.0,))
        s2 = SystemSpec.from_json(s.to_json())
        assert s2.kind == s.kind and s2.split == s.split
        assert s2.props == s.props
        assert OrderStatDist(s).to_json() == s.to_json()


class TestOrderStatSurface:
    def test_min_sf_is_product_of_powers(self):
        o = OrderStatDist(series_phr(Exponential(1.0), (1.0, 2.0, 0.5)))
        for x in (0.2, 1.0, 3.0):
            assert o.sf(x) == pytest.approx(math.exp(-3.5 * x), rel=1e-13)

    def test_max_cdf_is_product_of_powers(self):
        o = OrderStatDist(parallel_prhr(Lomax(2.0, 1.0), (1.0, 1.5)))
        for x in (0.3, 1.0, 4.0):
            assert o.cdf(x) == pytest.approx(Lomax(2.0, 1.0).cdf(x) ** 2.5, rel=1e-13)

    def test_min_hazard_is_weighted_sum(self):
        o = OrderStatDist(series_phr(Exponential(2.0), (1.0, 3.0)))
        assert o.hazard(0.7) == pytest.approx(8.0, rel=1e-13)

    def test_max_rev_hazard_is_weighted_sum(self):
        o = OrderStatDist(parallel_prhr(Lomax(2.0, 1.0), (1.0, 1.5)))
        for x in (0.3, 1.0, 4.0):
            assert o.rev_hazard(x) == pytest.approx(2.5 * Lomax(2.0, 1.0).rev_hazard(x),
                                                    rel=1e-12)

    def test_exponential_minimum_is_exponential(self):
        o = OrderStatDist(series_phr(Exponential(1.0), (1.0, 2.0, 0.5)))
        e = Exponential(3.5)
        for u in (0.1, 0.5, 0.9):
            assert o.quantile(u) == pytest.approx(e.quantile(u), rel=1e-12)
        assert o.hazard(1.3) == pytest.approx(3.5, rel=1e-13)

    def test_mixed_quantile_by_bisection(self):
        o = OrderStatDist(mixed_series(Exponential(1.0), (1.0,), Lomax(2.0), (1.0,)))
        for u in (0.1, 0.5, 0.9):
            assert o.cdf(o.quantile(u)) == pytest.approx(u, abs=1e-8)

    def test_parallel_quantile_closed_form(self):
        base = Lomax(2.0, 1.0)
        o = OrderStatDist(parallel_prhr(base, (1.0, 2.0)))
        for u in (0.2, 0.6, 0.95):
            assert o.quantile(u) == pytest.approx(base.quantile(u ** (1.0 / 3.0)),
                                                  rel=1e-12)

    def test_pdf_integrates_to_one(self):
        from ordrel.quadrature import adaptive_quad

        o = OrderStatDist(parallel_prhr(Lomax(3.0, 1.0), (1.0, 1.0)))
        lo, hi = o.support
        assert adaptive_quad(o.pdf, lo, hi) == pytest.approx(1.0, rel=1e-7)

    def test_tail_exponent_series_sums(self):
        o = OrderStatDist(series_phr(Lomax(1.5, 1.0), (1.0, 2.0)))
        assert o.tail_exponents() == (math.inf, 4.5)
        # the mirror: a parallel system sums on its left tail
        o = OrderStatDist(parallel_prhr(ReflectedDFR(Lomax(1.5, 1.0)), (1.0, 2.0)))
        assert o.tail_exponents() == (4.5, math.inf)

    def test_tail_exponent_parallel_takes_min(self):
        spec = SystemSpec(PARALLEL_PRHR, ((Lomax(1.5, 1.0), 1.0), (Lomax(3.0, 1.0), 1.0)))
        assert OrderStatDist(spec).tail_exponents() == (math.inf, 1.5)
        spec = SystemSpec(SERIES_PHR, ((ReflectedDFR(Lomax(1.5, 1.0)), 1.0),
                                       (ReflectedDFR(Lomax(3.0, 1.0)), 1.0)))
        assert OrderStatDist(spec).tail_exponents() == (1.5, math.inf)

    @given(pos, pos, st.floats(min_value=0.05, max_value=0.95))
    def test_series_quantile_identity(self, a1, a2, u):
        o = OrderStatDist(series_phr(Lomax(2.0, 1.0), (a1, a2)))
        assert o.cdf(o.quantile(u)) == pytest.approx(u, abs=1e-9)


MIXED_SYSTEMS = [
    OrderStatDist(mixed_series(Lomax(1.2, 1.0), (0.6, 0.9), Exponential(0.8), (1.3,))),
    OrderStatDist(mixed_parallel(ReflectedDFR(Lomax(1.2, 1.0)), (0.6, 0.9),
                                 ReflectedDFR(Exponential(0.8)), (1.3,))),
]


class TestQuantileSweep:
    US = GridSpec(kind="u", n=2048).u_points()  # includes eps and 1 - eps

    @pytest.mark.parametrize("o", MIXED_SYSTEMS, ids=["series", "parallel"])
    def test_sweep_matches_pointwise_quantiles(self, o):
        qs = o.column("quantile", self.US)
        for u, q in zip(self.US, qs):
            assert q == pytest.approx(o.quantile(u), rel=1e-9)
            assert abs(o.cdf(q) - u) <= 1e-12

    @pytest.mark.parametrize("o", MIXED_SYSTEMS, ids=["series", "parallel"])
    def test_sweep_does_not_depend_on_order(self, o):
        qs = dict(zip(self.US, o.column("quantile", self.US)))
        shuffled = list(self.US)
        random.Random(3).shuffle(shuffled)
        for us in (self.US[::-1], shuffled):
            for u, q in zip(us, o.column("quantile", us)):
                assert q == pytest.approx(qs[u], rel=1e-9)

    def test_sweep_validates_probabilities(self):
        with pytest.raises(ParameterDomainError):
            MIXED_SYSTEMS[0].column("quantile", [0.5, 1.0])


SHARED_BASELINES = [Weibull(0.7, 1.3), Lomax(1.5, 2.0), ParetoI(2.5),
                    ReflectedDFR(Lomax(1.2, 1.0))]
SHARED_SYSTEMS = [OrderStatDist(build(b, (0.4, 1.1, 2.3)))
                  for build in (series_phr, parallel_prhr) for b in SHARED_BASELINES]
SHARED_IDS = [f"{o.spec.kind}-{type(o.spec.same_baseline()).__name__}" for o in SHARED_SYSTEMS]


def _closed_form_quantile(o, u):
    """The shared-baseline quantile written out per u: the baseline quantile
    of 1-(1-u)**(1/sum) (series) or u**(1/sum) (parallel)."""
    base, total = o.spec.same_baseline(), o.spec.prop_sum()
    if o.spec.kind == SERIES_PHR:
        return base.quantile(1.0 - (1.0 - u) ** (1.0 / total))
    return base.quantile(u ** (1.0 / total))


class TestSharedBaselineSweep:
    US = GridSpec(kind="u", n=512).u_points() + [1e-12, 0.5, 1.0 - 1e-12]

    @pytest.mark.parametrize("o", SHARED_SYSTEMS, ids=SHARED_IDS)
    def test_sweep_is_bitwise_pointwise(self, o):
        qs = o.column("quantile", self.US)
        assert qs == [o.quantile(u) for u in self.US]
        assert qs == [_closed_form_quantile(o, u) for u in self.US]
        assert o.column("quantile", self.US[::-1]) == qs[::-1]

    @pytest.mark.parametrize("o", SHARED_SYSTEMS, ids=SHARED_IDS)
    def test_sweep_inverts_the_cdf(self, o):
        for u, q in zip(self.US[:-3], o.column("quantile", self.US[:-3])):
            assert o.cdf(q) == pytest.approx(u, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("build", [series_phr, parallel_prhr])
    def test_levels_inside_0_1_keep_the_closed_form(self, build):
        # a sum of 0.15 whose levels all lie in (0, 1) on this grid
        o = OrderStatDist(build(Lomax(2.0, 1.0), (0.05, 0.1)))
        us = [u for u in self.US if u <= 0.99]
        assert o.column("quantile", us) == [_closed_form_quantile(o, u) for u in us]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan])
    @pytest.mark.parametrize("o", SHARED_SYSTEMS[::4], ids=["series", "parallel"])
    def test_sweep_validates_probabilities(self, o, bad):
        with pytest.raises(ParameterDomainError):
            o.column("quantile", [0.5, bad])
        with pytest.raises(ParameterDomainError):
            o.quantile(bad)


def _lomax_min_quantile(total, u):
    """Q(u) of the minimum of Lomax(2, 1) components with parameter sum
    `total`, whose sf is (1 + x)**(-2 total)."""
    return (1.0 - u) ** (-1.0 / (2.0 * total)) - 1.0


class TestLevelRoundsOff:
    """For a small parameter sum, a series level 1-(1-u)**(1/sum p) rounds
    to 1, and a parallel level u**(1/sum p) is so small that 1 minus it
    rounds to 1 in a reflection.  The baseline has no quantile there, so
    such a column solves the system's own cumulative hazard or log cdf."""

    def test_one_point_quantile(self):
        o = OrderStatDist(series_phr(Lomax(2, 1), (0.05, 0.05)))
        assert 1.0 - (1e-4) ** (1.0 / 0.1) == 1.0
        assert o.quantile(1.0 - 1e-4) == pytest.approx(_lomax_min_quantile(0.1, 1.0 - 1e-4),
                                                       rel=1e-9)

    def test_u_grid_column(self):
        o = OrderStatDist(series_phr(Lomax(2.0, 1.0), (0.05, 0.1)))
        us = GridSpec(kind="u", n=64).u_points()
        assert len(us) == 64 and 1.0 - (1.0 - us[-1]) ** (1.0 / 0.15) == 1.0
        for u, q in zip(us, o.column("quantile", us)):
            assert q == pytest.approx(_lomax_min_quantile(0.15, u), rel=1e-9)

    def test_reflected_parallel_quantile(self):
        # the max of reflected Lomax(2, 1) components has cdf (1-x)**(-2 sum p)
        o = OrderStatDist(parallel_prhr(ReflectedDFR(Lomax(2.0, 1.0)), (0.1, 0.1)))
        assert 1.0 - (1e-4) ** (1.0 / 0.2) == 1.0
        assert o.quantile(1e-4) == pytest.approx(1.0 - (1e-4) ** (-1.0 / 0.4), rel=1e-9)

    def test_mixed_seed_skips_a_level_without_a_quantile(self):
        o = OrderStatDist(mixed_parallel(ReflectedDFR(Lomax(2.0, 1.0)), (0.1,),
                                         ReflectedDFR(Exponential(1.0)), (0.1,)))
        assert o.cdf(o.quantile(1e-4)) == pytest.approx(1e-4, rel=1e-9)


class TestClosedSupportEnd:
    """A one-component system with prop 1 is its baseline, whose density is
    defined at its finite support end; where the system's product is 0
    there (a series system on a reflection, a parallel one on a lifetime)
    the density reads 0.0."""

    @pytest.mark.parametrize("build,baseline,end,density", [
        (series_phr, Exponential(1.5), 0.0, 1.5),
        (series_phr, Lomax(2.0, 1.0), 0.0, 2.0),
        (series_phr, Weibull(1.5, 1.0), 0.0, 0.0),
        (series_phr, Weibull(0.7, 1.0), 0.0, math.inf),
        (series_phr, ParetoI(2.0), 1.0, 2.0),
        (parallel_prhr, ReflectedDFR(Lomax(2.0, 1.0)), 0.0, 2.0),
    ], ids=["exponential", "lomax", "weibull-ifr", "weibull-dfr", "pareto", "reflected-lomax"])
    def test_reads_its_baseline_density(self, build, baseline, end, density):
        o = OrderStatDist(build(baseline, (1.0,)))
        assert o.pdf(end) == o.column("pdf", [end])[0] == baseline.pdf(end) == density

    @pytest.mark.parametrize("build,baseline", [
        (series_phr, ReflectedDFR(Lomax(2.0, 1.0))), (parallel_prhr, Lomax(2.0, 1.0)),
    ], ids=["series-reflected", "parallel-lifetime"])
    def test_an_end_where_the_product_is_0_reads_0(self, build, baseline):
        o = OrderStatDist(build(baseline, (1.0,)))
        assert o.pdf(0.0) == o.column("pdf", [0.0])[0] == 0.0


class TestLomaxClosedForms:
    def test_rev_hazard_matches_numeric(self):
        # the max of Lomax(alpha_i, theta) has reversed hazard
        # sum_i g(alpha_i) / (x + theta), g(a) = a/(u**a - 1), u = x/theta + 1
        alphas, theta = (1.0, 2.0, 3.0), 1.5
        spec = SystemSpec(PARALLEL_PRHR, tuple((Lomax(a, theta), 1.0) for a in alphas))
        o = OrderStatDist(spec)
        for x in (0.3, 1.0, 4.0):
            u = x / theta + 1.0
            closed = sum(a / (u ** a - 1.0) for a in alphas) / (x + theta)
            assert closed == pytest.approx(o.rev_hazard(x), rel=1e-10)


class TestMoments:
    def test_weibull_min_variance_reference(self):
        assert weibull_min_variance((1.7, 2.0, 0.9), 0.7) == pytest.approx(
            0.043782, rel=1e-4)
        assert weibull_min_variance((1.0, 3.0, 2.3), 0.7) == pytest.approx(
            0.017826, rel=1e-4)

    def test_weibull_shape_one_reduces_to_exponential(self):
        # min of Exponential(k_i) is Exponential(sum k), variance 1/sum^2
        assert weibull_min_variance((1.0, 2.0), 1.0) == pytest.approx(1.0 / 9.0,
                                                                      rel=1e-12)

    def test_lomax_min_moments_exact_rationals(self):
        mean, var = lomax_min_moments((1.0, 4.0, 7.0))
        assert mean == pytest.approx(1.0 / 11.0, rel=1e-14)
        assert var == pytest.approx(12.0 / 1210.0, rel=1e-14)
        mean2, var2 = lomax_min_moments((1.2, 3.5, 7.2))
        assert var2 == pytest.approx(11.9 / 1176.219, rel=1e-12)

    @pytest.mark.parametrize("moments,message", [
        (lambda: weibull_min_variance([], 0.7), "weibull_min_variance needs at least one rate"),
        (lambda: lomax_min_moments([]), "lomax_min_moments needs at least one shape"),
    ], ids=["weibull", "lomax"])
    def test_an_empty_vector_is_refused(self, moments, message):
        # not a ZeroDivisionError, nor a mean that needs sum(alphas) > 1
        with pytest.raises(ParameterDomainError) as info:
            moments()
        assert str(info.value) == message

    def test_lomax_moment_thresholds(self):
        with pytest.raises(MomentUndefinedError) as exc:
            lomax_min_moments((0.3, 0.4))
        assert exc.value.threshold == 1.0
        with pytest.raises(MomentUndefinedError) as exc:
            lomax_min_moments((0.9, 0.9))
        assert exc.value.threshold == 2.0

    def test_numeric_matches_closed_form_exponential(self):
        o = OrderStatDist(series_phr(Exponential(1.0), (1.0, 1.5)))
        mean, var = numeric_mean_variance(o)
        assert mean == pytest.approx(1.0 / 2.5, rel=1e-8)
        assert var == pytest.approx(1.0 / 6.25, rel=1e-7)

    def test_numeric_matches_closed_form_lomax(self):
        alphas = (1.0, 4.0, 7.0)
        o = OrderStatDist(series_phr(Lomax(1.0, 1.0), alphas))
        cmean, cvar = lomax_min_moments(alphas)
        mean, var = numeric_mean_variance(o)
        assert mean == pytest.approx(cmean, rel=1e-6)
        assert var == pytest.approx(cvar, rel=1e-5)

    def test_numeric_moment_divergence_guard(self):
        o = OrderStatDist(series_phr(Lomax(0.4, 1.0), (1.0, 1.0)))  # tail 0.8
        with pytest.raises(MomentUndefinedError):
            numeric_moment(o, 1)
        o2 = OrderStatDist(series_phr(Lomax(0.8, 1.0), (1.0, 1.0)))  # tail 1.6
        with pytest.raises(MomentUndefinedError):
            numeric_moment(o2, 2)
        assert numeric_moment(o2, 1) == pytest.approx(1.0 / 0.6, rel=1e-6)
        o3 = OrderStatDist(series_phr(ParetoI(1.5), (1.0,)))  # tail 1.5
        with pytest.raises(MomentUndefinedError):
            numeric_moment(o3, 2)

    def test_numeric_moment_guards_the_left_tail(self, monkeypatch):
        par = OrderStatDist(parallel_prhr(ReflectedDFR(Lomax(1.5, 1.0)), (1.0,)))  # left 1.5
        ser = OrderStatDist(series_phr(Lomax(1.5, 1.0), (1.0,)))
        assert numeric_moment(par, 1) == -numeric_moment(ser, 1) == -1.9999997001610006

        def no_quad(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(importlib.import_module("ordrel.systems"), "adaptive_quad", no_quad)
        for o in (par, ser):
            with pytest.raises(MomentUndefinedError) as exc:
                numeric_moment(o, 2)
            assert exc.value.threshold == 2.0

    def test_numeric_moment_orders(self):
        o = OrderStatDist(series_phr(Exponential(1.0), (1.0, 2.0)))
        with pytest.raises(ParameterDomainError,
                           match="^only first and second moments supported$"):
            numeric_moment(o, 3)

    @pytest.mark.parametrize("spec,expected", [
        (parallel_prhr(ReflectedDFR(Lomax(3.0)), (1.0, 2.0)),
         (-0.12499999999999947, 0.020089285714285733)),
        (mixed_parallel(ReflectedDFR(Weibull(0.5, 1.0)), (1.0,), ReflectedDFR(Lomax(4.0)), (2.0,)),
         (-0.1021810796259363, 0.017022938662268023)),
        (series_phr(ReflectedDFR(Weibull(0.7, 2.0)), (0.5, 1.5)),
         (-0.7658054431266879, 0.7059079419211168)),
    ], ids=["parallel", "mixed-parallel", "series"])
    def test_left_half_line_moments_are_pinned(self, spec, expected):
        # recorded when (-inf, b] had its own quadrature map; the mirror of
        # [-b, inf) must give the same bits
        assert numeric_mean_variance(OrderStatDist(spec)) == expected

    def test_weibull_numeric_cross_check(self):
        ks, a = (1.7, 2.0, 0.9), 0.7
        o = OrderStatDist(series_phr(Weibull(a, 1.0), ks))
        _, var = numeric_mean_variance(o)
        assert var == pytest.approx(weibull_min_variance(ks, a), rel=1e-6)
