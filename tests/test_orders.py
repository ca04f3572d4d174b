"""Stochastic order checkers against analytic oracles."""

import json
import math
import random

import pytest

from ordrel import (
    Distribution,
    Exponential,
    GridSpec,
    Lomax,
    OrderStatDist,
    ParameterDomainError,
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
    parallel_prhr,
    series_phr,
)
from ordrel.orders import CHECKERS, FAILS, HOLDS, INCONCLUSIVE, grid_kind
from conftest import numeric_ageing, numeric_xr_non_increasing

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

    @pytest.mark.parametrize("n", [100.0, 100.5, True, 64.0])
    def test_grid_size_is_an_int(self, n):
        # a float size once built, and check_st raised TypeError from range
        with pytest.raises(ParameterDomainError, match="grid size n must be an integer"):
            GridSpec(kind="x", n=n)

    @pytest.mark.parametrize("kwargs,message", [
        ({"kind": "z"}, "unknown grid kind 'z'"),
        ({"eps": 0.5}, "eps must lie in \\(0, 0.5\\)"),
    ], ids=["kind", "eps"])
    def test_bad_grid_refused(self, kwargs, message):
        with pytest.raises(ParameterDomainError, match=f"^{message}$"):
            GridSpec(**kwargs)

    def test_points_of_the_other_kind_refused(self):
        with pytest.raises(ParameterDomainError, match="^u_points requires a u-grid$"):
            GridSpec(kind="x").u_points()
        with pytest.raises(ParameterDomainError, match="^x_points requires an x-grid$"):
            GridSpec(kind="u").x_points()

    def test_unset_bounds_need_distributions(self):
        with pytest.raises(ParameterDomainError,
                           match="^grid bounds unset and no distributions given$"):
            GridSpec(kind="x", lo=0.0).x_points()

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0),
                                       (5.0, 1.0), (1.0, 1.0)])
    def test_bad_bounds_refused(self, lo, hi):
        # -1e308 and 1e308 are finite, but their distance overflows: the
        # points would read [nan, inf, inf, ...]
        with pytest.raises(ParameterDomainError, match="^bad grid bounds"):
            GridSpec(kind="x", lo=lo, hi=hi, n=64).x_points()

    def test_inconclusive_on_degenerate_tail_grid(self):
        # grid entirely in the far right tail: both sfs vanish, the hazard
        # ratio degenerates, and the two hr formulations cannot agree
        g = GridSpec(kind="x", lo=400.0, hi=500.0, n=64)
        v = check_hr(Exponential(2.0), Exponential(1.0), g)
        assert v.outcome == INCONCLUSIVE


# The checkers' resolution on 96-point grids: for each relation and source
# of exactly ordered pairs, k such that the reversed pair reads "fails" in
# every draw for each gap g = 10**-j with j <= k.  Below it tau decides,
# and the reversed pair may read holds or inconclusive.
RESOLUTION_FLOORS = {
    "st": {"exponential": 8, "weibull": 8},
    "hr": {"exponential": 7, "weibull": 7},
    "rh": {"exponential": 7, "weibull": 7},
    "lr": {"exponential": 7, "weibull": 7},
    "disp": {"exponential": 9, "weibull": 8, "lomax-phr": 9, "weibull-phr": 9},
    "star": {"pareto": 8, "weibull-shape": 8},
}
# The one exactly holding pair that reads "fails": at g = 1e-12 both series
# systems of one Lomax PHR draw read the same quantile at u = 0.999, as the
# component level 1 - (1-u)**(1/sum p) rounds to one float for both, and
# the quantile spread drops from 6.2e-6 to 0 there.
KNOWN_WRONG = {"disp": [("true pair fails", "lomax-phr", 1e-12)]}


def _resolution_pair(source, rng):
    """One draw of `source` as g -> (small, large), small below large in
    every order the source serves at a relative gap g."""
    if source == "exponential":  # rates from U(0.5, 2)
        rate = rng.uniform(0.5, 2.0)
        return lambda g: (Exponential(rate * (1.0 + g)), Exponential(rate))
    if source == "weibull":  # a common shape and rates, both from U(0.5, 2)
        k, rate = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        return lambda g: (Weibull(k, rate * (1.0 + g)), Weibull(k, rate))
    if source == "pareto":  # Pareto I shapes from U(0.5, 3), for star
        p = rng.uniform(0.5, 3.0)
        return lambda g: (ParetoI(p * (1.0 + g)), ParetoI(p))
    if source == "weibull-shape":  # Weibull shapes from U(0.5, 3) at rate 1, for star
        k = rng.uniform(0.5, 3.0)
        return lambda g: (Weibull(k * (1.0 + g), 1.0), Weibull(k, 1.0))
    # PHR powers of one DFR baseline, for disp: series systems on the props
    # s*(0.4, 0.6), s from U(0.5, 2), on Lomax(a, 1) with a from U(0.5, 3)
    # or Weibull(k, 1) with k from U(0.4, 0.95)
    base = (Lomax(rng.uniform(0.5, 3.0), 1.0) if source == "lomax-phr"
            else Weibull(rng.uniform(0.4, 0.95), 1.0))
    s = rng.uniform(0.5, 2.0)
    return lambda g: tuple(OrderStatDist(series_phr(base, (0.4 * t, 0.6 * t)))
                           for t in (s * (1.0 + g), s))


class TestResolution:
    """1,001 pairs per relation and source: 91 draws at each gap 10**-j,
    j = 2..12 (`_resolution_pair`)."""

    @pytest.mark.parametrize("relation", sorted(RESOLUTION_FLOORS))
    def test_no_true_pair_fails_and_reversed_pairs_fail_down_to_the_floor(self, relation):
        grid = GridSpec(kind=grid_kind(relation), n=96)
        check, wrong = CHECKERS[relation], []
        for source, floor in RESOLUTION_FLOORS[relation].items():
            rng = random.Random(27)
            for j in range(2, 13):
                gap = 10.0 ** -j
                for _ in range(91):
                    small, large = _resolution_pair(source, rng)(gap)
                    if check(small, large, grid).outcome == FAILS:
                        wrong.append(("true pair fails", source, gap))
                    if j <= floor and check(large, small, grid).outcome != FAILS:
                        wrong.append(("reversed pair does not fail", source, gap))
        assert wrong == KNOWN_WRONG.get(relation, [])


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


class _UndefinedAbove(Distribution):
    """Stub with the base-class column: quantile(u) = u, undefined (a
    SupportError, so None in the column) above u = 0.9."""

    support = (0.0, 1.0)

    def quantile(self, u):
        if u > 0.9:
            raise SupportError("quantile undefined")
        return u


class TestStarOverflow:
    # Pareto-I quantiles (1-u)**(-1/shape) overflow a float for tiny shapes;
    # a quantile column with None in it is undefined there
    def test_overflowing_quantile_is_inconclusive(self):
        g = GridSpec(kind="u", n=64)
        for a, b in ((ParetoI(0.005), ParetoI(0.004)), (_UndefinedAbove(), Exponential(1.0))):
            assert check_star(a, b, g).outcome == INCONCLUSIVE
            assert check_disp(a, b, g).outcome == INCONCLUSIVE
            assert check_disp(b, a, g).outcome == INCONCLUSIVE


# Witnesses of failing checks on a 64-point x-grid, recorded before the
# pointwise rule was shared between st and the rate form of hr/rh.
WITNESSES = [
    (check_st, Exponential(1.0), Exponential(2.0),
     '{"x": 5.000250016667917e-05, "lhs": 0.9999499987499375, "rhs": 0.9999}'),
    (check_st, OrderStatDist(series_phr(Exponential(1.0), (0.5, 1.0))),
     OrderStatDist(series_phr(Exponential(1.0), (1.0, 2.0))),
     '{"x": 3.333500011109257e-05, "lhs": 0.9999499987499375, "rhs": 0.9999}'),
    (check_hr, Lomax(1.5, 1.0), Lomax(3.0, 1.0),
     '{"x": 3.3335555728486455e-05, "lhs": 1.4999499983332407, "rhs": 2.9998999966664814}'),
    (check_hr, Weibull(0.8, 1.0), Weibull(1.6, 1.0),
     '{"x": 0.5093804844427683, "lhs": 0.9155488607711848, "rhs": 1.0674446476110517}'),
    (check_rh, Exponential(1.0), Exponential(2.0),
     '{"x": 5.000250016667917e-05, "lhs": 19998.499987499374, "rhs": 19998.0}'),
    (check_rh, ReflectedDFR(Lomax(2.0, 1.0)), ReflectedDFR(Lomax(1.0, 1.0)),
     '{"x": -9999.0000000011, "lhs": 0.000199999999999978, "rhs": 9.9999999999989e-05}'),
    (check_rh, OrderStatDist(parallel_prhr(Lomax(2.0, 1.0), (1.5, 2.0))),
     OrderStatDist(parallel_prhr(Lomax(2.0, 1.0), (0.5, 0.5))),
     '{"x": 5.0003750312610507e-05, "lhs": 69989.50026235667, "rhs": 19997.000074959047}'),
]


@pytest.mark.parametrize("checker,a,b,witness", WITNESSES,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(WITNESSES)])
def test_failing_witness_is_unchanged(checker, a, b, witness):
    v = checker(a, b, GridSpec(kind="x", n=64))
    assert v.outcome == FAILS
    assert json.dumps(v.to_json()["witness"]) == witness


class _Quantiles(Distribution):
    """Stub whose quantile column on a 64-point u-grid is the values."""

    def __init__(self, values):
        self.values = values

    def column(self, name, points):
        return list(self.values)


class _Sequence(Distribution):
    """Stub with rev_hazard(2**i) = values[i] and hazard(x) =
    rev_hazard(x)/x, so that x*hazard(x) at 2**i is values[i] exactly."""

    def __init__(self, values):
        self.values = values

    def rev_hazard(self, x):
        return self.values[int(math.log2(x))]

    def hazard(self, x):
        return self.rev_hazard(x) / x


TAU = 2.0 ** -10  # a drop of exactly TAU*(1 + 1) is representable


def _step(a, b):
    return (a,) * 32 + (b,) * 32


# (values, non-decreasing within TAU, non-increasing within TAU)
MONOTONE_TABLE = [
    (_step(1.0, 1.0), True, True),
    (_step(1.0, 1.0 - 2 * TAU), True, True),  # drop of exactly tau*(1+max)
    (_step(1.0, 1.0 - 4 * TAU), False, True),  # twice that
    (_step(-1.0, -1.0 + 2 * TAU), True, True),  # rise of exactly tau*(1+max)
    (_step(-1.0, -1.0 + 4 * TAU), True, False),
    # a rise within tau*(1+max(|a|,|b|)) but beyond tau*(1+|a|)
    (_step(1.0, 1.0 + 2 * TAU + TAU ** 2), True, True),
    (tuple(float(i) for i in range(64)), True, False),
]


@pytest.mark.parametrize("values,up,down", MONOTONE_TABLE)
def test_one_monotone_rule(values, up, down):
    from ordrel.grids import first_decrease

    xs = list(range(64))
    assert (first_decrease(xs, list(values), TAU) is None) == up
    assert (first_decrease(xs, [-v for v in values], TAU) is None) == down
    u_grid = GridSpec(kind="u", n=64, tau_mono=TAU)
    disp = check_disp(_Quantiles((0.0,) * 64), _Quantiles(values), u_grid)
    assert disp.outcome == (HOLDS if up else FAILS)
    points = [2.0 ** i for i in range(64)]
    flags = numeric_ageing(_Sequence(values), points, TAU)
    assert ("IRHR" in flags, "DRHR" in flags) == (up, down)
    assert numeric_xr_non_increasing(_Sequence(values), points, TAU) == down
