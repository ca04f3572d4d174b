"""Stochastic order checkers against analytic oracles."""

import pytest

from ordrel import (
    Exponential,
    GridSpec,
    Lomax,
    OrderStatDist,
    ParetoI,
    ReflectedDFR,
    SupportError,
    Weibull,
    check_disp,
    check_hr,
    check_lr,
    check_rh,
    check_st,
    check_star,
    mixed_parallel,
    mixed_series,
    series_phr,
)
from ordrel.orders import FAILS, HOLDS, INCONCLUSIVE

GX = GridSpec(kind="x", n=256)
GU = GridSpec(kind="u", n=256)


class TestExponentialOracle:
    """For exponentials, A <= B in every order iff rate_A >= rate_B."""

    @pytest.mark.parametrize("checker,grid", [
        (check_st, GX), (check_hr, GX), (check_lr, GX), (check_disp, GU),
    ])
    def test_ordered_pair_holds(self, checker, grid):
        assert checker(Exponential(2.0), Exponential(1.0), grid).outcome == HOLDS

    @pytest.mark.parametrize("checker,grid", [
        (check_st, GX), (check_hr, GX), (check_lr, GX), (check_disp, GU),
    ])
    def test_reversed_pair_fails(self, checker, grid):
        assert checker(Exponential(1.0), Exponential(2.0), grid).outcome == FAILS

    @pytest.mark.parametrize("checker,grid", [
        (check_st, GX), (check_hr, GX), (check_lr, GX), (check_disp, GU),
    ])
    def test_equal_rates_hold(self, checker, grid):
        # ties resolve toward holds: every order is reflexive
        assert checker(Exponential(1.5), Exponential(1.5), grid).outcome == HOLDS


class TestHazardRate:
    def test_lomax_shape_ordering(self):
        # same scale: larger shape = larger hazard = smaller in hr order
        assert check_hr(Lomax(3.0, 1.0), Lomax(1.5, 1.0), GX).holds
        assert check_hr(Lomax(1.5, 1.0), Lomax(3.0, 1.0), GX).outcome == FAILS

    def test_crossing_hazards_fail(self):
        # Weibull shapes on either side of 1 give crossing hazards
        a, b = Weibull(0.6, 1.0), Weibull(1.8, 1.0)
        assert not check_hr(a, b, GX).holds
        assert not check_hr(b, a, GX).holds

    def test_witness_reported(self):
        v = check_hr(Lomax(1.5, 1.0), Lomax(3.0, 1.0), GX)
        assert v.witness is not None
        x, lhs, rhs = v.witness
        assert lhs != rhs


class TestReversedHazard:
    def test_lomax_shape_ordering(self):
        # cdf ratio F_{1.5}/F_{3} = 1/(1 + (1+x)^{-1.5}) is increasing, so
        # the larger shape is the rh-smaller one
        assert check_rh(Lomax(3.0, 1.0), Lomax(1.5, 1.0), GX).holds
        assert check_rh(Lomax(1.5, 1.0), Lomax(3.0, 1.0), GX).outcome == FAILS

    def test_parallel_systems(self):
        base = Lomax(2.0, 1.0)
        from ordrel import parallel_prhr

        small = OrderStatDist(parallel_prhr(base, (0.5, 0.5)))
        large = OrderStatDist(parallel_prhr(base, (1.5, 2.0)))
        assert check_rh(small, large, GX).holds


class TestLikelihoodRatio:
    def test_lr_within_exponential_family(self):
        assert check_lr(Exponential(2.0), Exponential(1.0), GX).holds

    def test_lr_fails_on_non_monotone_ratio(self):
        # different Weibull shapes: density ratio is not monotone
        v = check_lr(Weibull(0.6, 1.0), Weibull(1.8, 1.0), GX)
        assert v.outcome == FAILS


class TestDispersive:
    def test_scale_families_disperse(self):
        # Lomax scale increase spreads quantiles: theta=1 <=_disp theta=2
        assert check_disp(Lomax(2.0, 1.0), Lomax(2.0, 2.0), GU).holds
        assert check_disp(Lomax(2.0, 2.0), Lomax(2.0, 1.0), GU).outcome == FAILS

    def test_series_minima(self):
        base = Weibull(0.7, 1.0)
        big = OrderStatDist(series_phr(base, (1.0, 1.0)))
        small = OrderStatDist(series_phr(base, (2.0, 2.0)))
        # the higher-rate minimum is less dispersed
        assert check_disp(small, big, GU).holds


    @pytest.mark.parametrize("mixed,lomax,expo", [
        (mixed_series, Lomax(1.4, 1.0), Exponential(1.1)),
        (mixed_parallel, ReflectedDFR(Lomax(1.4, 1.0)), ReflectedDFR(Exponential(1.1))),
    ], ids=["series", "parallel"])
    def test_mixed_systems_have_power(self, mixed, lomax, expo):
        # DFR (series) or IRHR (parallel) baselines: scaling every
        # parameter by c > 1 gives the less dispersed system
        front, back, c = (0.5, 1.2), (0.8,), 1.6
        x = OrderStatDist(mixed(lomax, [c * v for v in front], expo, [c * v for v in back]))
        y = OrderStatDist(mixed(lomax, front, expo, back))
        grid = GridSpec(kind="u", n=512)
        assert check_disp(x, y, grid).outcome == HOLDS
        assert check_disp(y, x, grid).outcome == FAILS


class TestStar:
    def test_pareto_minima_oracle(self):
        a = OrderStatDist(series_phr(ParetoI(1.0), (1.0, 1.0)))  # sum 2
        b = OrderStatDist(series_phr(ParetoI(1.0), (0.5, 0.5)))  # sum 1
        assert check_star(a, b, GU).holds
        assert check_star(b, a, GU).outcome == FAILS

    def test_requires_positive_quantiles(self):
        from ordrel import ReflectedDFR

        with pytest.raises(SupportError):
            check_star(ReflectedDFR(Lomax(2.0, 1.0)), Lomax(2.0, 1.0), GU)


class TestGuards:
    def test_disjoint_supports_raise(self):
        from ordrel import ReflectedDFR

        with pytest.raises(SupportError):
            check_st(ReflectedDFR(Exponential(1.0)), ParetoI(2.0), GX)

    def test_explicit_grid_bounds_respected(self):
        g = GridSpec(kind="x", lo=0.1, hi=5.0, n=64)
        v = check_st(Exponential(2.0), Exponential(1.0), g)
        assert v.holds and v.grid is g

    def test_inconclusive_on_degenerate_tail_grid(self):
        # grid entirely in the far right tail: both sfs vanish, the hazard
        # ratio degenerates, and the two hr formulations cannot agree
        g = GridSpec(kind="x", lo=400.0, hi=500.0, n=64)
        v = check_hr(Exponential(2.0), Exponential(1.0), g)
        assert v.outcome == INCONCLUSIVE


class TestVerdictShape:
    def test_json(self):
        v = check_st(Exponential(2.0), Exponential(1.0), GX)
        obj = v.to_json()
        assert obj["relation"] == "st" and obj["outcome"] == "holds"
        assert "grid" in obj

    def test_witness_json(self):
        v = check_st(Exponential(1.0), Exponential(2.0), GX)
        obj = v.to_json()
        assert set(obj["witness"]) == {"x", "lhs", "rhs"}
