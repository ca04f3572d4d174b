"""Whole-grid columns and rate sweeps, and the seeded mixed-system
quantile solves.

`column` and `rate_sweep` must give the per-point surface bit for bit, with
None exactly where the per-point method raises SupportError, and raise
what it raises otherwise; lr on a system reads its pdf column, and the
hr/rh checks read the sweeps and must keep the verdicts and witnesses of
the per-point body they replaced (`_two_loop_check`, a copy of that
body).  The st check reads only the grid points its sf brackets leave
open, and must keep the verdicts and witnesses of the rule read at every
point (`_st_oracle`).  A
mixed-baseline system's first quantile solve starts inside the bracket of
its components' quantiles, and each later one from a root predicted by
the solves before it.
"""

import json
import math
import random
import sys
from functools import partial

import pytest

from ordrel import (
    Clayton,
    DependentMax,
    DependentMin,
    Distribution,
    Exponential,
    Frank,
    GridSpec,
    Independence,
    Lomax,
    OrderStatDist,
    ParameterDomainError,
    ParetoI,
    ReflectedDFR,
    ShiftedSystem,
    SupportError,
    SystemSpec,
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
from ordrel.grids import first_decrease
from ordrel.orders import FAILS, HOLDS, INCONCLUSIVE, OrderVerdict, _verdict, _x_grid
from ordrel.special import bisect_increasing
from ordrel.systems import PARALLEL_PRHR, SERIES_PHR, _predict
from conftest import SHIFTED_SYSTEMS

_POSITIVE = [5e-324, 1e-300, 1e-8, 0.25, 0.5, 1.0, 1.0 + 2 ** -52, 1.5, 2.0, 5.0,
             10.0, 50.0, 300.0, 745.0, 800.0, 1e4, 1e6]
# Both support edges of every object below: 0 (and 1 for Pareto) from both
# sides, and tails where sf or cdf reaches 0 or 1.
XS = sorted({0.0, -1.0, -3.0, *_POSITIVE, *(-x for x in _POSITIVE)})

SURFACES = {
    "exponential": Exponential(1.3),
    "weibull-dfr": Weibull(0.7, 1.2),
    "weibull-exp": Weibull(1.0, 2.0),
    "weibull-ifr": Weibull(1.6, 0.8),
    "lomax": Lomax(1.5, 2.0),
    "pareto": ParetoI(2.5),
    "reflected-lomax": ReflectedDFR(Lomax(2.0, 1.0)),
    "reflected-weibull": ReflectedDFR(Weibull(0.6, 1.0)),
    "shared-series": OrderStatDist(series_phr(Lomax(2.0, 1.0), (0.5, 1.5, 2.0))),
    "shared-parallel": OrderStatDist(parallel_prhr(Exponential(0.8), (0.7, 1.1))),
    "shared-parallel-reflected": OrderStatDist(parallel_prhr(
        ReflectedDFR(Lomax(1.5, 1.0)), (0.5, 2.0))),
    "mixed-series": OrderStatDist(mixed_series(
        Exponential(1.1), (0.4, 0.6), Lomax(1.7, 1.0), (1.2,))),
    "mixed-parallel": OrderStatDist(mixed_parallel(
        Lomax(0.9, 1.0), (0.3,), Exponential(0.7), (1.3, 0.8))),
    # a Pareto component's hazard raises on (0, 1), inside the system support
    "mixed-series-pareto": OrderStatDist(mixed_series(
        ParetoI(2.0), (0.5,), Weibull(1.3, 1.0), (1.5,))),
    "mixed-parallel-weibull": OrderStatDist(mixed_parallel(
        Weibull(0.8, 1.0), (0.5,), ParetoI(3.0), (1.0, 2.0))),
    "mixed-parallel-reflected": OrderStatDist(mixed_parallel(
        ReflectedDFR(Lomax(2.0, 1.0)), (0.6,), ReflectedDFR(Exponential(1.0)), (1.4,))),
    "unsplit-series": OrderStatDist(SystemSpec(SERIES_PHR, (
        (Exponential(1.0), 0.5), (Lomax(2.0, 1.0), 1.0), (Exponential(1.0), 0.7)))),
}
VALUE_OF = {"hazard": "sf", "rev_hazard": "cdf"}


def _rate_or_none(fn, x):
    try:
        return fn(x)
    except SupportError:
        return None


def _same(a, b) -> bool:
    """Bit-for-bit equality, None included."""
    if a is None or b is None:
        return a is b
    return math.copysign(1.0, a) == math.copysign(1.0, b) and (
        a == b or (math.isnan(a) and math.isnan(b)))


@pytest.mark.parametrize("rate", ["hazard", "rev_hazard"])
@pytest.mark.parametrize("name", sorted(SURFACES))
def test_sweep_equals_the_per_point_surface(name, rate):
    d = SURFACES[name]
    values, rates = d.rate_sweep(rate, XS)
    assert len(values) == len(rates) == len(XS)
    value_fn, rate_fn = getattr(d, VALUE_OF[rate]), getattr(d, rate)
    for x, v, r in zip(XS, values, rates):
        assert _same(v, value_fn(x)), (x, v, value_fn(x))
        assert _same(r, _rate_or_none(rate_fn, x)), (x, r, _rate_or_none(rate_fn, x))


# Every family with a kernel, with float and integer parameters, and the
# reflection of every inner family.
FAMILIES = {
    **{name: d for name, d in SURFACES.items() if not isinstance(d, OrderStatDist)},
    "weibull-int": Weibull(2, 1),
    "lomax-int": Lomax(2, 1),
    "pareto-int": ParetoI(3),
    "reflected-exponential": ReflectedDFR(Exponential(0.9)),
    "reflected-weibull-ifr": ReflectedDFR(Weibull(1.6, 0.8)),
    "reflected-pareto": ReflectedDFR(ParetoI(2.0)),
}
# XS holds x < 0, 0 and 1 from both sides and tails where exp and pow
# underflow to 0; these add the infinities and a NaN.
COLUMN_XS = XS + [math.inf, -math.inf, math.nan]
COLUMN_US = [5e-324, 1e-300, 1e-17, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3,
             1.0 - 2 ** -52, 1.0 - 2 ** -53]
BAD_US = [[0.5, 0.0], [0.5, 1.0], [-0.25], [1.5, 0.5], [math.nan], [0.5, math.inf],
          [1e-17, 0.0]]  # the last raises at 1e-17 in a reflection, as 1-u rounds to 1
SURFACE_NAMES = ("sf", "cdf", "pdf", "hazard", "rev_hazard")


def _per_point(fn, points):
    """(values, None) with None where ``fn`` raises SupportError, or
    (None, error) for the first other error it raises."""
    try:
        return [_rate_or_none(fn, x) for x in points], None
    except Exception as exc:  # noqa: BLE001 -- any error must be mirrored
        return None, exc


def _assert_column(d, name, points):
    values, error = _per_point(getattr(d, name), points)
    if error is not None:
        with pytest.raises(type(error)) as info:
            d.column(name, points)
        assert str(info.value) == str(error)
        return error
    column = d.column(name, points)
    assert len(column) == len(points)
    for x, got, want in zip(points, column, values):
        assert _same(got, want), (x, got, want)
    return None


@pytest.mark.parametrize("method", SURFACE_NAMES)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_column_equals_the_per_point_method(name, method):
    assert _assert_column(FAMILIES[name], method, COLUMN_XS) is None


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_quantile_column_equals_the_per_point_method(name):
    d = FAMILIES[name]
    if isinstance(d, ReflectedDFR):  # 1 - u rounds to 1 for the inner below 2**-53
        assert isinstance(_assert_column(d, "quantile", COLUMN_US), ParameterDomainError)
        us = [u for u in COLUMN_US if 1.0 - u < 1.0]
        assert len(us) == len(COLUMN_US) - 3
        assert _assert_column(d, "quantile", us) is None
    else:
        assert _assert_column(d, "quantile", COLUMN_US) is None


@pytest.mark.parametrize("us", BAD_US, ids=repr)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_bad_probability_raises_as_per_point(name, us):
    assert isinstance(_assert_column(FAMILIES[name], "quantile", us), ParameterDomainError)


@pytest.mark.parametrize("cls", [Exponential, Weibull, Lomax, ParetoI, ReflectedDFR,
                                 OrderStatDist], ids=lambda c: c.__name__)
def test_the_quantile_column_is_the_only_quantile_formula(cls):
    # quantile(u) is the base class's one-point column
    assert "quantile" not in vars(cls)
    assert cls.quantile is Distribution.quantile


def test_a_class_without_a_quantile_has_none():
    class NoQuantile(Distribution):
        support = (0.0, 1.0)

    for call in (lambda d: d.quantile(0.5), lambda d: d.column("quantile", [0.5])):
        with pytest.raises(NotImplementedError):
            call(NoQuantile())


def test_a_reflected_system_column_is_its_one_point_quantiles():
    # a mixed-system inner reads its points twice and predicts its starts,
    # so its column agrees with the one-point columns within the solver
    # tolerance
    inner = OrderStatDist(mixed_series(Exponential(1.1), (0.4, 0.6), Lomax(1.7, 1.0), (1.2,)))
    d = ReflectedDFR(inner)
    us = [u for u in COLUMN_US if 1.0 - u < 1.0]
    for u, q in zip(us, d.column("quantile", us)):
        assert q == pytest.approx(d.quantile(u), rel=1e-9)
        assert q == pytest.approx(-inner.quantile(1.0 - u), rel=1e-9)
    for bad in BAD_US:
        assert isinstance(_assert_column(d, "quantile", bad), ParameterDomainError)


def test_an_overflow_raises_as_per_point():
    # a float power that overflows raises OverflowError at the same point
    assert isinstance(_assert_column(ParetoI(0.01), "quantile", [0.5, 1.0 - 1e-9]), OverflowError)
    assert isinstance(_assert_column(Weibull(1.6, 0.8), "pdf", [1.0, 1e300]), OverflowError)
    for build in (series_phr, parallel_prhr):
        d = OrderStatDist(build(Weibull(1.6, 0.8), (0.5, 1.0)))
        assert isinstance(_assert_column(d, "pdf", [1.0, 1e300]), OverflowError)


def test_the_columns_reach_every_kind_of_value():
    # underflow to 0 and 1, infinite and undefined values all occur
    seen = set()
    for d in FAMILIES.values():
        for method in SURFACE_NAMES:
            for v in d.column(method, COLUMN_XS):
                seen.add("none" if v is None else "nan" if math.isnan(v)
                         else "inf" if math.isinf(v) else "zero" if v == 0.0
                         else "one" if v == 1.0 else "finite")
    assert seen == {"none", "nan", "inf", "zero", "one", "finite"}


def test_a_class_without_a_kernel_is_called_per_point():
    d = OrderStatDist(series_phr(ParetoI(2.0), (0.5, 1.5)))
    assert _assert_column(d, "hazard", COLUMN_XS) is None
    assert None in d.column("hazard", COLUMN_XS)


def test_the_sweeps_cover_undefined_and_infinite_rates():
    # the grid reaches both edges: each kind of point occurs somewhere
    seen = set()
    for d in SURFACES.values():
        for rate in VALUE_OF:
            for r in d.rate_sweep(rate, XS)[1]:
                seen.add("none" if r is None else "inf" if math.isinf(r) else "finite")
    assert seen == {"none", "inf", "finite"}


def test_a_shared_baseline_is_swept_once():
    # a system sweeps its own rate component by component
    calls = []

    class Counted(Lomax):
        def rate_sweep(self, rate, xs):
            calls.append(rate)
            return super().rate_sweep(rate, xs)

    for build, rate in ((series_phr, "hazard"), (parallel_prhr, "rev_hazard")):
        OrderStatDist(build(Counted(2.0, 1.0), (0.5, 1.0, 2.0))).rate_sweep(rate, XS)
        assert calls == [rate]
        calls.clear()


SYSTEMS = sorted(name for name, d in SURFACES.items() if isinstance(d, OrderStatDist))


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_system_pdf_column_is_its_per_point_pdf(name):
    # product times rate sum from the one sweep of the system's own rate
    assert _assert_column(SURFACES[name], "pdf", COLUMN_XS) is None


def test_lr_on_systems_reads_no_per_point_pdf(monkeypatch):
    def refuse(self, x):
        raise AssertionError("per-point OrderStatDist.pdf called")

    monkeypatch.setattr(OrderStatDist, "pdf", refuse)
    # a larger rate sum is lower in lr for a series system, higher for a
    # parallel one, and a mixed pair's verdict comes from its columns alone
    for build, base, lower, upper in ((series_phr, Weibull(1.3, 1.0), (2.0, 1.5), (0.5, 0.7)),
                                      (parallel_prhr, Exponential(0.8), (0.5, 0.7), (2.0, 1.5))):
        a, b = (OrderStatDist(build(base, props)) for props in (lower, upper))
        assert (check_lr(a, b).outcome, check_lr(b, a).outcome) == (HOLDS, FAILS)
    check_lr(SURFACES["mixed-series"], SURFACES["unsplit-series"])
    check_lr(SURFACES["mixed-parallel"], SURFACES["mixed-parallel-weibull"])


# -- the series/parallel mirror --------------------------------------------

# The maximum of X_i is minus the minimum of -X_i: a parallel system on
# baselines B_i is the series system on ReflectedDFR(B_i) at -x, with the
# two sides' values and rates swapped.
_MIRROR_BASELINES = {
    "lomax": Lomax(1.5, 2.0),
    "exponential": Exponential(1.3),
    "weibull-dfr": Weibull(0.7, 1.2),
    "weibull-ifr": Weibull(1.6, 0.8),
}
MIRRORS = {
    **{f"shared-{name}": ((b, (0.5, 1.5, 2.0)),)
       for name, b in _MIRROR_BASELINES.items()},
    "mixed-lomax-exponential": ((Lomax(0.9, 1.0), (0.3,)), (Exponential(0.7), (1.3, 0.8))),
    "mixed-weibull-dfr-ifr": ((Weibull(0.7, 1.2), (0.6, 1.1)), (Weibull(1.6, 0.8), (1.4,))),
    "mixed-exponential-weibull-ifr": ((Exponential(1.1), (0.4,)), (Weibull(1.6, 0.8), (2.0,))),
    "mixed-lomax-weibull-dfr": ((Lomax(2.0, 1.0), (1.2, 0.5)), (Weibull(0.7, 1.2), (0.9,))),
    # supports that differ, so that each side must take its own support end
    "mixed-lomax-pareto": ((Lomax(1.5, 2.0), (0.7,)), (ParetoI(2.5), (1.2,))),
}
MIRROR_OF = {"sf": "cdf", "cdf": "sf", "pdf": "pdf",
             "hazard": "rev_hazard", "rev_hazard": "hazard"}
MIRROR_US = [1e-9, 1e-4, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-4, 1 - 1e-9]


def _mirror_pair(blocks):
    def system(kind, reflect):
        return OrderStatDist(SystemSpec(kind, tuple(
            (ReflectedDFR(b) if reflect else b, p) for b, props in blocks for p in props)))

    return system(PARALLEL_PRHR, False), system(SERIES_PHR, True)


@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_parallel_is_the_mirrored_series(name):
    par, ser = _mirror_pair(MIRRORS[name])
    assert all(map(_same, par.support, [-e for e in reversed(ser.support)]))
    for method, mirrored in MIRROR_OF.items():
        for x in XS:
            got = _rate_or_none(getattr(par, method), x)
            want = _rate_or_none(getattr(ser, mirrored), -x)
            assert _same(got, want), (method, x, got, want)
    for rate in VALUE_OF:
        got = par.rate_sweep(rate, XS)
        want = ser.rate_sweep(MIRROR_OF[rate], [-x for x in XS])
        assert all(map(_same, got[0] + got[1], want[0] + want[1])), rate
    for q, mq in zip(par.column("quantile", MIRROR_US),
                     ser.column("quantile", [1 - u for u in MIRROR_US])):
        assert abs(q + mq) <= 1e-9 * (1.0 + abs(q)), (q, mq)


# The same mirror for the dependent extremes: the maximum of X - mu_i is
# minus the minimum of -X + mu_i, so J2 on B with shifts mu is one minus J1
# on ReflectedDFR(B) with shifts -mu, at -x.
DEPENDENT_XS = sorted({*XS, *(-3.0 + 0.01 * i for i in range(1000))})


@pytest.mark.parametrize("s", SHIFTED_SYSTEMS, ids=lambda s: type(s.generator).__name__)
def test_dependent_max_is_the_mirrored_dependent_min(s):
    mx = DependentMax(s.baseline, s.shifts, s.generator)
    mn = DependentMin(ReflectedDFR(s.baseline), tuple(-mu for mu in s.shifts), s.generator)
    assert all(map(_same, mx.support, [-e for e in reversed(mn.support)]))
    for x in DEPENDENT_XS:
        assert _same(mx.sf(x), mn.cdf(-x)), x


# -- hr/rh against the per-point body they replaced ------------------------

def _two_loop_pointwise(xs, fa, fb, tau, a_larger=False):
    usable = 0
    for x in xs:
        try:
            va, vb = fa(x), fb(x)
        except SupportError:
            continue
        if not (math.isfinite(va) and math.isfinite(vb)):
            continue
        usable += 1
        small, large = (vb, va) if a_larger else (va, vb)
        if small > large + tau * (1.0 + abs(large)):
            return usable, (x, va, vb)
    return usable, None


def _two_loop_check(relation, A, B, grid):
    """The hr/rh body before the sweeps: a ratio loop, then a rate loop,
    each calling the per-point methods."""
    if relation == "hr":
        num_fn, den_fn, rate_a, rate_b, a_larger = B.sf, A.sf, A.hazard, B.hazard, True
    else:
        num_fn, den_fn, rate_a, rate_b, a_larger = B.cdf, A.cdf, A.rev_hazard, B.rev_hazard, False
    xs = grid.x_points((A, B))
    ratio_xs, ratios = [], []
    for x in xs:
        den = den_fn(x)
        if den < 1e-300:
            continue
        ratio_xs.append(x)
        ratios.append(num_fn(x) / den)
    ratio_viol = first_decrease(ratio_xs, ratios, grid.tau_mono)
    rate_usable, rate_viol = _two_loop_pointwise(xs, rate_a, rate_b, grid.tau_pt, a_larger)
    ratio_ok = ratio_viol is None and len(ratios) >= 2
    rate_ok = rate_viol is None and rate_usable >= 2
    if ratio_ok and rate_ok:
        return OrderVerdict(relation, HOLDS, None, grid)
    if ratio_viol is not None and rate_viol is not None:
        return OrderVerdict(relation, FAILS, rate_viol, grid)
    return OrderVerdict(relation, INCONCLUSIVE, ratio_viol or rate_viol, grid)


def _lifetime(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Exponential(rng.uniform(0.3, 3.0))
    if kind == 1:
        return Weibull(rng.uniform(0.4, 2.5), rng.uniform(0.3, 2.0))
    if kind == 2:
        return Lomax(rng.uniform(0.4, 3.0), rng.uniform(0.5, 2.0))
    if kind == 3:
        return ParetoI(rng.uniform(0.8, 3.0))
    build = rng.choice((series_phr, parallel_prhr))
    if kind == 4:
        return OrderStatDist(build(_lifetime(rng), [rng.uniform(0.3, 2.0)
                                                    for _ in range(rng.randint(1, 3))]))
    mixed = mixed_series if build is series_phr else mixed_parallel
    return OrderStatDist(mixed(Exponential(rng.uniform(0.5, 2.0)), (rng.uniform(0.3, 1.5),),
                               Lomax(rng.uniform(0.5, 2.5), 1.0),
                               (rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))))


def _pair(rng):
    a, b = _lifetime(rng), _lifetime(rng)
    reflect = rng.random() < 0.2
    if reflect:
        a, b = ReflectedDFR(Lomax(rng.uniform(0.5, 3.0), 1.0)), ReflectedDFR(_lifetime(rng))
    # n=600 is swept in three parts
    grids = [GridSpec(n=64), GridSpec(n=96), GridSpec(n=600),
             GridSpec(n=64, tau_pt=1e-3, tau_mono=1e-3)]
    grids += ([GridSpec(lo=-rng.uniform(1.0, 30.0), hi=0.0, n=64)] if reflect else
              [GridSpec(lo=0.0, hi=rng.uniform(1.0, 30.0), n=64),
               GridSpec(lo=rng.uniform(300.0, 600.0), hi=900.0, n=64)])
    return a, b, rng.choice(grids)


def test_hr_and_rh_keep_the_two_loop_verdicts():
    rng = random.Random(20240917)
    outcomes = {HOLDS: 0, FAILS: 0, INCONCLUSIVE: 0}
    compared = 0
    while compared < 320:
        a, b, grid = _pair(rng)
        for relation, check in (("hr", check_hr), ("rh", check_rh)):
            try:
                want = _two_loop_check(relation, a, b, grid)
            except SupportError as exc:  # e.g. supports that do not overlap
                with pytest.raises(SupportError, match=str(exc)):
                    check(a, b, grid)
                continue
            got = check(a, b, grid)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (relation, a, b, grid)
            outcomes[got.outcome] += 1
            compared += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_usable_points_add_up_over_the_parts():
    # the last of the three parts lies where both sfs are 0, so it has no
    # usable rate; the parts before it hold enough for a verdict
    a, b, grid = Exponential(2.0), Exponential(1.0), GridSpec(lo=0.0, hi=900.0, n=600)
    got, want = check_hr(a, b, grid), _two_loop_check("hr", a, b, grid)
    assert got.outcome == want.outcome == HOLDS


class _Surface(Distribution):
    """A stub surface given by its sf and hazard."""

    support = (-math.inf, math.inf)

    def __init__(self, sf, hazard):
        self._sf, self._hazard = sf, hazard

    def sf(self, x):
        return self._sf(x)

    def hazard(self, x):
        return self._hazard(x)


def test_a_ratio_drop_between_two_parts_is_found():
    # on x = 0, 1, ..., 599 the ratio sf_B/sf_A = x drops only from x = 255
    # to x = 256, the first point of the second part
    swept = []
    a = _Surface(lambda x: 1.0, lambda x: 1.0)
    b = _Surface(lambda x: swept.append(x) or (0.5 if x == 256.0 else x), lambda x: 2.0)
    grid = GridSpec(lo=0.0, hi=599.0, n=600)
    got = check_hr(a, b, grid)
    # the rates fail at x = 0 and the ratio in the second part: the third
    # part is never swept
    assert len(swept) == 512
    want = _two_loop_check("hr", a, b, grid)
    assert got.outcome == want.outcome == FAILS
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


# -- st: the bracket walk against the full-grid rule ------------------------

def _st_oracle(A, B, grid):
    """The st body the walk replaced: the pointwise rule at every grid
    point, left to right."""
    grid, xs = _x_grid(A, B, grid)
    usable, viol = _two_loop_pointwise(xs, A.sf, B.sf, grid.tau_pt)
    return _verdict("st", grid, viol, usable >= 1)


class _Counted:
    """`dist` for check_st, with an sf that records the points it is read
    at and, on [lo, hi] of `hole`, raises SupportError (`value` None) or
    returns the non-finite `value`."""

    def __init__(self, dist, hole=(math.inf, -math.inf), value=None):
        self.dist, self.support, self.read = dist, dist.support, []
        self.hole, self.value = hole, value

    def quantile(self, u):
        return self.dist.quantile(u)

    def sf(self, x):
        self.read.append(x)
        if self.hole[0] <= x <= self.hole[1]:
            if self.value is None:
                raise SupportError("sf undefined here")
            return self.value
        return self.dist.sf(x)

    def __repr__(self):
        return f"_Counted({self.dist!r}, {self.hole}, {self.value})"


def _generator(rng, dim):
    kind = rng.randrange(3)
    if kind == 0:
        return Independence(dim=dim)
    if kind == 1:
        return Clayton(10.0 ** rng.uniform(-3.0, 3.5), dim=dim)
    theta = 10.0 ** rng.uniform(-2.0, 1.5)
    return Frank(-theta if dim == 2 and rng.random() < 0.5 else theta, dim=dim)


def _shifted(rng):
    dim = rng.choice((2, 2, 3))
    base = rng.choice((Exponential(rng.uniform(0.3, 3.0)),
                       Weibull(rng.uniform(0.4, 2.5), rng.uniform(0.3, 2.0)),
                       Lomax(rng.uniform(0.4, 3.0), rng.uniform(0.5, 2.0))))
    return ShiftedSystem(base, tuple(rng.uniform(0.0, 1.0) for _ in range(dim)),
                         _generator(rng, dim))


def _nudged(s, rng):
    """`s` with every shift moved by one tiny amount."""
    d = 10.0 ** rng.uniform(-15.0, -4.0) * rng.choice((-1.0, 1.0))
    return ShiftedSystem(s.baseline, tuple(m + d for m in s.shifts), s.generator)


def _st_grid(rng, bounds):
    n = rng.choice((64, 96, 257, 64, 96, 257, 2048))
    tau = rng.choice((1e-300, 1e-12, 1e-9, 1e-3))
    lo, hi = bounds if bounds is not None else (None, None)
    return GridSpec(lo=lo, hi=hi, n=n, tau_pt=tau)


def _st_case(rng):
    """Two sides and a grid: families, reflections and systems (derived or
    explicit bounds), or dependent extremes (bounds from the baseline
    quantiles, as the T7/T8 grids, or drawn); a quarter of them identical,
    or dependent extremes with nudged shifts; some with an sf hole."""
    same = rng.random() < 0.25
    if rng.random() < 0.5:
        extreme = rng.choice((DependentMin, DependentMax))
        sa = _shifted(rng)
        sb = (sa if rng.random() < 0.5 else _nudged(sa, rng)) if same else _shifted(rng)
        if rng.random() < 0.7:
            los, his = zip(*((s.baseline.quantile(0.01) - max(s.shifts),
                              s.baseline.quantile(0.99) - min(s.shifts)) for s in (sa, sb)))
            bounds = (min(los), max(his))
        else:
            bounds = (rng.uniform(-1.0, 1.0), rng.uniform(2.0, 40.0))
        return (extreme(sa.baseline, sa.shifts, sa.generator),
                extreme(sb.baseline, sb.shifts, sb.generator), _st_grid(rng, bounds))
    if rng.random() < 0.2:
        a = ReflectedDFR(Lomax(rng.uniform(0.5, 3.0), 1.0))
        b = a if same else ReflectedDFR(_lifetime(rng))
        bounds = (-rng.uniform(1.0, 30.0), 0.0)
    else:
        a = _lifetime(rng)
        b = a if same else _lifetime(rng)
        bounds = (0.0, rng.uniform(1.0, 30.0))
    if rng.random() < 0.15:  # a hole over part of the grid, or all of it
        hole = ((-math.inf, math.inf) if rng.random() < 0.3 else
                sorted(rng.uniform(-40.0, 40.0) for _ in range(2)))
        value = rng.choice((None, math.nan, math.inf, -math.inf))
        if rng.random() < 0.5:
            a = _Counted(a, hole, value)
        else:
            b = _Counted(b, hole, value)
    return a, b, _st_grid(rng, None if rng.random() < 0.6 else bounds)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return exc


def test_st_walk_keeps_the_full_grid_verdicts():
    rng = random.Random(20261019)
    outcomes = {HOLDS: 0, FAILS: 0, INCONCLUSIVE: 0, "raises": 0}
    spared = 0  # oracle raises that the walk, never reading that point, turns into a verdict
    for _ in range(2000):
        a, b, grid = _st_case(rng)
        want = _outcome(_st_oracle, a, b, grid)
        ca, cb = _Counted(a), _Counted(b)
        got = _outcome(check_st, ca, cb, grid)
        assert len(set(ca.read)) == len(ca.read) and len(set(cb.read)) == len(cb.read)
        if isinstance(got, Exception):
            assert (type(want), str(want)) == (type(got), str(got)), (a, b, grid)
            outcomes["raises"] += 1
        elif isinstance(want, Exception):
            spared += 1
        else:
            assert got == want, (a, b, grid)
            outcomes[got.outcome] += 1
    assert min(outcomes.values()) >= 20, outcomes
    assert spared <= 20, spared


def test_st_reads_few_points_where_it_holds_by_far():
    a, b = _Counted(Exponential(2.0)), _Counted(Exponential(1.0))
    assert check_st(a, b, GridSpec(n=2048)).holds
    assert len(a.read) <= 64 and len(b.read) <= 64


def test_st_stops_at_a_failing_first_point():
    a, b = _Counted(Exponential(1.0)), _Counted(Exponential(2.0))
    v = check_st(a, b, GridSpec(n=2048))
    assert v.outcome == FAILS and v.witness[0] == a.read[0]
    assert len(a.read) <= 2 and len(b.read) <= 2


def test_st_reads_every_point_of_identical_sides():
    d = Exponential(1.0)
    a, b = _Counted(d), _Counted(d)
    grid = GridSpec(n=257)
    assert check_st(a, b, grid).holds
    assert sorted(a.read) == sorted(b.read) == grid.x_points((d,))


def test_st_raises_the_first_error_in_grid_order():
    # on x = 0, 1, ..., 63 B.sf raises at x = 3 and x = 7, and drops below
    # A's from x = `drop` on: the first of these events in grid order decides
    grid = GridSpec(lo=0.0, hi=63.0, n=64)

    def sides(drop):
        def sf_b(x):
            if x in (3.0, 7.0):
                raise OverflowError(f"at {x}")
            return 0.5 if x < drop else 0.25
        return _Surface(lambda x: 0.5, None), _Surface(sf_b, None)

    with pytest.raises(OverflowError, match="at 3.0"):
        check_st(*sides(5.0), grid)
    v = check_st(*sides(2.0), grid)
    assert v.witness == (2.0, 0.5, 0.25) and v == _st_oracle(*sides(2.0), grid)


# -- seeded quantile solves ------------------------------------------------

def _mixed_system(rng):
    """A mixed-baseline system like the T3/T4 (exponential and Lomax
    blocks) and T6 (Lomax maxima) samplers draw."""
    kind = rng.randrange(3)
    expo, lomax = Exponential(rng.uniform(0.5, 2.0)), Lomax(rng.uniform(0.5, 2.5), 1.0)
    props = [rng.uniform(0.3, 1.5) for _ in range(3)]
    if kind == 0:
        return OrderStatDist(mixed_series(expo, props[:2], lomax, props[2:]))
    if kind == 1:
        return OrderStatDist(mixed_parallel(lomax, props[:1], expo, props[1:]))
    theta = rng.uniform(0.5, 2.0)
    return OrderStatDist(SystemSpec(PARALLEL_PRHR, tuple(
        (Lomax(rng.uniform(0.5, 3.0), theta), 1.0) for _ in range(3))))


def _solves(monkeypatch):
    """Record (fn, target, root, fn evaluations) of every solve."""
    systems = sys.modules["ordrel.systems"]
    solves = []

    def counting(fn, target, guess, **kwargs):
        calls = []

        def counted(x):
            calls.append(x)
            return fn(x)

        root = bisect_increasing(counted, target, guess, **kwargs)
        solves.append((fn, target, root, len(calls)))
        return root

    monkeypatch.setattr(systems, "bisect_increasing", counting)
    return solves


# Measured over the 300 systems below: the most fn evaluations a first
# solve takes, by (series, u), and how many solves take at most 8.  Every
# lower-tail solve does.  The upper tail does not meet a bound of 8: series
# solves take up to 10, and parallel systems whose components' quantiles
# lie orders of magnitude apart up to 12, because Newton from the middle of
# the bracket overshoots toward the low end of the flat log cdf and climbs
# back.  These are the measured worst cases, pinned so that they cannot
# grow, not a target.
EVALUATIONS = {(True, 1e-4): 2, (False, 1e-4): 6, (True, 1 - 1e-4): 10, (False, 1 - 1e-4): 12}
WITHIN_EIGHT = {1e-4: 300, 1 - 1e-4: 279}


@pytest.mark.parametrize("u", [1e-4, 1 - 1e-4])
def test_seeded_first_solve(u, monkeypatch):
    solves = _solves(monkeypatch)
    rng = random.Random(8128)
    worst = {True: 0, False: 0}
    within, seeded_total, unseeded_total = 0, 0, 0
    for _ in range(300):
        d = _mixed_system(rng)
        series = d.spec.kind == SERIES_PHR
        t = 1.0 - (1.0 - u) ** (1.0 / d.spec.prop_sum()) if series else u ** (
            1.0 / d.spec.prop_sum())
        bracket = [b.quantile(t) for b, _ in d.spec.components]
        q = d.quantile(u)
        fn, target, root, evaluations = solves.pop()
        assert root == q and not solves
        assert min(bracket) * (1 - 1e-9) <= q <= max(bracket) * (1 + 1e-9)
        step = 2e-10 * (1.0 + abs(q))  # twice special.XTOL
        assert abs(fn(q) - target) < 1e-12 or fn(q - step) <= target <= fn(q + step)
        worst[series] = max(worst[series], evaluations)
        within += evaluations <= 8
        seeded_total += evaluations
        # the same solve from the support's middle, the start before seeding
        lo, hi = d.support
        unseeded = [0]

        def counted(x):
            unseeded[0] += 1
            return fn(x)

        bisect_increasing(counted, target, 0.5 * (max(lo, -1.0) + min(hi, 1.0)),
                          lo_bound=lo, hi_bound=hi, dfn=d._rate_sum)
        unseeded_total += unseeded[0]
    for series in (True, False):
        assert worst[series] <= EVALUATIONS[(series, u)], worst
    assert within >= WITHIN_EIGHT[u]
    assert seeded_total <= 0.5 * unseeded_total, (seeded_total, unseeded_total)


def test_seed_falls_back_where_the_level_rounds_off():
    # with a huge exponent sum, t = u**(1/sum) rounds to 1: no component
    # quantile exists there, and the solve starts as it did before seeding
    d = OrderStatDist(mixed_parallel(Lomax(2.0, 1.0), (1e17,), Exponential(1.0), (1e17,)))
    assert d._seed(1.0) == 0.5
    q = d.quantile(1 - 1e-4)
    assert math.isfinite(q) and q > 0.0


# -- predicted starts ------------------------------------------------------

SWEEP_US = GridSpec(kind="u", n=2048).u_points()

# Measured over the 300 systems of `test_seeded_first_solve`, each swept on
# SWEEP_US: fn and dfn evaluations per point, as the mean over all columns
# and in the column that takes the most.  Started from the previous root
# instead of a prediction, the mean was 3.14 fn and 2.65 dfn.  Pinned so
# that they cannot grow.
SWEEP_EVALUATIONS = {"mean": (1.774, 1.063), "worst": (2.079, 1.125)}


def test_predict_extrapolates_the_last_three_solves():
    # one solve predicts its root, two a line, three (or more) a parabola
    assert _predict([1.0], [5.0], 2.0) == 5.0
    assert _predict([0.0, 1.0], [0.0, 2.0], 3.0) == 6.0
    assert _predict([7.0, 0.0, 1.0, 2.0], [9.0, 0.0, 1.0, 4.0], 3.0) == 9.0
    assert math.isnan(_predict([0.0, 1.0, 1.0], [0.0, 2.0, 2.0], 3.0))
    assert math.isnan(_predict([0.0, 1.0, 0.0], [0.0, 2.0, 0.0], 3.0))


def test_predicted_starts_keep_the_evaluations_down(monkeypatch):
    counts = [0, 0]

    def counting(fn, target, guess, *, dfn, **kwargs):
        def counted_fn(x):
            counts[0] += 1
            return fn(x)

        def counted_dfn(x):
            counts[1] += 1
            return dfn(x)

        return bisect_increasing(counted_fn, target, guess, dfn=counted_dfn, **kwargs)

    monkeypatch.setattr(sys.modules["ordrel.systems"], "bisect_increasing", counting)
    rng = random.Random(8128)
    per_column = []
    for _ in range(300):
        d = _mixed_system(rng)
        counts[:] = [0, 0]
        d.column("quantile", SWEEP_US)
        per_column.append([c / len(SWEEP_US) for c in counts])
    mean = [sum(c[i] for c in per_column) / len(per_column) for i in (0, 1)]
    worst = [max(c[i] for c in per_column) for i in (0, 1)]
    assert all(m <= pin for m, pin in zip(mean, SWEEP_EVALUATIONS["mean"])), mean
    assert all(w <= pin for w, pin in zip(worst, SWEEP_EVALUATIONS["worst"])), worst


@pytest.mark.parametrize("u", [1e-4, 0.5, 1 - 1e-4])
def test_the_first_solve_starts_at_the_seed(u):
    # a one-point column, and the first solve of a longer one, is the solve
    # from `_seed` bit for bit: no prediction reaches it
    rng = random.Random(8128)
    for _ in range(300):
        d = _mixed_system(rng)
        p = 1.0 / d.spec.prop_sum()
        series = d.spec.kind == SERIES_PHR
        t = 1.0 - (1.0 - u) ** p if series else u ** p
        lo, hi = d.support
        want = bisect_increasing(d._log_value, -math.log1p(-u) if series else math.log(u),
                                 d._seed(t), lo_bound=lo, hi_bound=hi, dfn=d._rate_sum)
        assert d.quantile(u) == want
        assert d.column("quantile", [u, 0.3, 0.7, 0.9])[0] == want


def test_a_prediction_past_the_support_end_is_not_used(monkeypatch):
    # on (-inf, 0] the first three roots extrapolate past 0 to the target of
    # u = 1 - 1e-12; the solve starts from the previous root instead
    d = OrderStatDist(mixed_parallel(ReflectedDFR(Lomax(0.8, 1.0)), (1.3,),
                                     ReflectedDFR(Exponential(1.6)), (0.6, 0.9)))
    us = [0.45, 0.65, 0.79, 1 - 1e-12]
    guesses = []

    def recording(fn, target, guess, **kwargs):
        guesses.append(guess)
        return bisect_increasing(fn, target, guess, **kwargs)

    monkeypatch.setattr(sys.modules["ordrel.systems"], "bisect_increasing", recording)
    qs = d.column("quantile", us)
    lo, hi = d.support
    targets = [math.log(u) for u in us]
    assert hi == 0.0 and _predict(targets[:3], qs[:3], targets[3]) > hi
    assert guesses[3] == qs[2]
    assert all(lo < g < hi for g in guesses)
    # next to 0 the roots agree to the solver's absolute tolerance on the
    # log cdf (1e-12) over its slope (3.44 at 0)
    for u, q in zip(us, qs):
        assert lo < q <= hi and q == pytest.approx(d.quantile(u), rel=1e-9, abs=1e-12)


def test_repeated_us_give_equal_roots():
    # a target equal to the last one starts at the previous root (the
    # prediction there, or its fallback where two solved targets repeat),
    # and the solve returns that root
    us = [0.2, 0.2, 0.5, 0.5, 0.5, 1e-4, 1e-4, 0.9, 0.2, 1 - 1e-4, 1 - 1e-4]
    rng = random.Random(8128)
    for _ in range(300):
        d = _mixed_system(rng)
        qs = d.column("quantile", us)
        for i in range(1, len(us)):
            if us[i] == us[i - 1]:
                assert qs[i] == qs[i - 1], (d.spec, us[i])
        assert qs[8] == pytest.approx(qs[0], rel=1e-9)


# -- disp, star and lr: parts against the whole columns --------------------

def _spread_oracle(relation, A, B, grid):
    """The disp/star body before the parts: both whole quantile columns,
    A's first, an unusable quantile anywhere inconclusive, then the
    monotone rule on the whole spread."""
    us = grid.u_points()
    try:
        qas, qbs = A.column("quantile", us), B.column("quantile", us)
        finite = all(map(math.isfinite, qas)) and all(map(math.isfinite, qbs))
    except (SupportError, OverflowError, TypeError):
        finite = False
    if not finite:
        return _verdict(relation, grid, None, False)
    if relation == "star" and (min(qas) <= 0.0 or min(qbs) <= 0.0):
        raise SupportError("star order needs strictly positive quantiles")
    spread = [qb / qa if relation == "star" else qb - qa for qa, qb in zip(qas, qbs)]
    return _verdict(relation, grid, first_decrease(us, spread, grid.tau_mono), True)


def _lr_oracle(A, B, grid):
    """The lr body before the parts: both whole pdf columns."""
    grid, xs = _x_grid(A, B, grid)
    rxs, ratios = [], []
    for x, fa, fb in zip(xs, A.column("pdf", xs), B.column("pdf", xs)):
        if fa is None or fb is None or fa < 1e-300 or not (math.isfinite(fa)
                                                            and math.isfinite(fb)):
            continue
        rxs.append(x)
        ratios.append(fb / fa)
    return _verdict("lr", grid, first_decrease(rxs, ratios, grid.tau_mono), len(ratios) >= 2)


class _Table(Distribution):
    """Stub whose quantile at each u of a table is the table's value (a
    one-point column at the grid's last u included)."""

    support = (0.0, math.inf)

    def __init__(self, us, values):
        self.table = dict(zip(us, values))

    def column(self, name, points):
        return [self.table[u] for u in points]


def _lgo_pair(rng):
    """One pair of a large-grid-oracle kind, smaller side first: exponential,
    Weibull minima, Pareto-I minima, mixed series or mixed parallel systems
    (X with c times Y's parameters)."""
    u = rng.uniform
    kind = rng.choice((0, 1, 2, 0, 1, 2, 3, 4))  # the mixed systems take most of the time
    if kind == 0:
        slow = u(0.5, 2.0)
        return Exponential(slow * u(1.3, 2.5)), Exponential(slow)
    if kind in (1, 2):
        base = Weibull(u(0.5, 2.0), 1.0) if kind == 1 else ParetoI(u(0.5, 3.0))
        small = [u(0.3, 1.5) for _ in range(3 if kind == 1 else 2)]
        big = [v * u(1.3, 2.5) for v in small]
        return OrderStatDist(series_phr(base, big)), OrderStatDist(series_phr(base, small))
    c = u(1.3, 2.0)
    front, back = [u(0.3, 1.5), u(0.3, 1.5)], [u(0.3, 1.5)]
    lomax, expo = Lomax(u(0.8, 2.5), 1.0), Exponential(u(0.5, 2.0))
    if kind == 3:
        return (OrderStatDist(mixed_series(lomax, [c * v for v in front], expo,
                                           [c * v for v in back])),
                OrderStatDist(mixed_series(lomax, front, expo, back)))
    rlomax, rexpo = ReflectedDFR(lomax), ReflectedDFR(expo)
    return (OrderStatDist(mixed_parallel(rlomax, [c * v for v in front], rexpo,
                                         [c * v for v in back])),
            OrderStatDist(mixed_parallel(rlomax, front, rexpo, back)))


def _heavy(rng):
    """A Pareto-I or Lomax lifetime, or a mixed system with a Lomax block,
    whose top quantiles may lie past the float range."""
    shape = 10.0 ** rng.uniform(-2.6, -1.0)
    kind = rng.randrange(3)
    if kind == 0:
        return ParetoI(shape)
    lomax = Lomax(shape, rng.uniform(0.5, 2.0))
    if kind == 1:
        return lomax
    mixed = rng.choice((mixed_series, mixed_parallel))
    return OrderStatDist(mixed(lomax, (rng.uniform(0.3, 1.5),),
                               Exponential(rng.uniform(0.5, 2.0)), (rng.uniform(0.3, 1.5),)))


def _ties(rng, us, tau):
    """A side of 1.0 and a rising side with drops of tau*(1 + a) and its
    neighbours one ulp away, one of them at a part boundary."""
    n = len(us)
    values, level = [], 1.0
    drops = {rng.choice([k for k in (1, 255, 256, 257, n - 1) if k < n]),
             rng.randrange(1, n)}
    for i in range(n):
        if i in drops:
            a = values[-1] - 1.0  # the disp spread before this point
            b = a - tau * (1.0 + abs(a))
            b = rng.choice((math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)))
            level = 1.0 + b
        else:
            level += rng.choice((0.0, 2.0 ** -20))
        values.append(level)
    return _Table(us, [1.0] * n), _Table(us, values)


def _spread_case(rng):
    """Two sides and a grid size and tau_mono for disp, star and lr."""
    n = 2048 if rng.random() < 0.1 else rng.choice((64, 256, 257, 257))
    tau = rng.choice((1e-9, 1e-9, 1e-3, 1e-12))
    kind = rng.random()
    if kind < 0.35:
        a, b = _lgo_pair(rng)
    elif kind < 0.6:
        a, b = _lifetime(rng), _lifetime(rng)
        if rng.random() < 0.2:
            a, b = ReflectedDFR(Lomax(rng.uniform(0.5, 3.0), 1.0)), ReflectedDFR(_lifetime(rng))
    elif kind < 0.75:
        a, b = _heavy(rng), rng.choice((_heavy(rng), _lifetime(rng)))
    elif kind < 0.87:
        a, b = _UndefinedAbove(), rng.choice((Exponential(rng.uniform(0.3, 3.0)),
                                              Lomax(rng.uniform(0.5, 3.0), 1.0)))
    else:
        tau = math.nextafter(tau, rng.choice((-math.inf, math.inf)))
        a, b = _ties(rng, GridSpec(kind="u", n=n).u_points(), tau)
    if rng.random() < 0.5:
        a, b = b, a
    return a, b, n, tau


class _UndefinedAbove(Distribution):
    """The stub of tests/test_orders.py: the base-class column of
    quantile(u) = u, undefined (None in the column) above u = 0.9."""

    support = (0.0, 1.0)

    def quantile(self, u):
        if u > 0.9:
            raise SupportError("quantile undefined")
        return u


def test_disp_star_and_lr_keep_the_whole_column_verdicts():
    rng = random.Random(20261021)
    outcomes = {rel: {HOLDS: 0, FAILS: 0, INCONCLUSIVE: 0, "raises": 0}
                for rel in ("disp", "star", "lr")}
    ended = 0  # inconclusive verdicts on a grid of more than one part
    for _ in range(2000):
        a, b, n, tau = _spread_case(rng)
        u_grid, x_grid = GridSpec(kind="u", n=n, tau_mono=tau), GridSpec(n=n, tau_mono=tau)
        for rel, check, oracle in (("disp", check_disp, partial(_spread_oracle, "disp")),
                                   ("star", check_star, partial(_spread_oracle, "star")),
                                   ("lr", check_lr, _lr_oracle)):
            grid = x_grid if rel == "lr" else u_grid
            want, got = _outcome(oracle, a, b, grid), _outcome(check, a, b, grid)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want)), (rel, a, b, grid)
                outcomes[rel]["raises"] += 1
            else:
                assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (rel, a, b, grid)
                outcomes[rel][got.outcome] += 1
                ended += rel != "lr" and n > 256 and got.outcome == INCONCLUSIVE
    # disp raises nothing that its oracle does not; an lr ratio is
    # inconclusive only with fewer than two usable points
    assert min(outcomes["star"].values()) >= 20, outcomes
    for rel in ("disp", "lr"):
        assert min(outcomes[rel][k] for k in (HOLDS, FAILS, INCONCLUSIVE)) >= 20, outcomes
    assert ended >= 50, ended


def test_a_reversed_mixed_disp_solves_one_part_and_the_last_u(monkeypatch):
    # a large-grid-oracle mixed series pair, reversed: it fails at u-index 1,
    # so each side solves the first part and its one-point top quantile
    rng = random.Random(36)
    while True:
        low, high = _lgo_pair(rng)
        if low.spec.split is not None and low.spec.kind == SERIES_PHR:
            break
    grid = GridSpec(kind="u", n=2048)
    solves = _solves(monkeypatch)
    v = check_disp(high, low, grid)
    assert v.outcome == FAILS and v.witness[0] == grid.u_points()[1]
    for side in (high, low):
        assert sum(fn.__self__ is side for fn, *_ in solves) <= 257
    assert len(solves) == 2 * 257


def test_the_lazy_quantiles_are_the_column():
    # drawn a part at a time, two systems' parts interleaved, the roots
    # equal the column bit for bit, whatever the part size
    rng = random.Random(8128)
    us = GridSpec(kind="u", n=600).u_points()
    for _ in range(40):
        a, b = _mixed_system(rng), _mixed_system(rng)
        size = rng.choice((1, 7, 256, 599, 600, 601))
        got_a, got_b = [], []
        for part_a, part_b in zip(a.quantile_parts(us, size), b.quantile_parts(us, size)):
            assert len(part_a) == len(part_b) == min(size, len(us) - len(got_a))
            got_a += part_a
            got_b += part_b
        assert got_a == a.column("quantile", us) and got_b == b.column("quantile", us)


def test_a_root_past_the_float_range_reads_inf_in_both_reads():
    # the Lomax(0.005) block puts the top quantiles past 1e308: the one-point
    # solve reaches inf, and the column is not finite there either
    d = OrderStatDist(mixed_parallel(Lomax(0.005, 1.0), (1.0,), Exponential(1.0), (1.0,)))
    us = GridSpec(kind="u", n=2048).u_points()
    assert d.quantile(us[-1]) == math.inf
    assert not math.isfinite(d.column("quantile", us)[-1])
    e = OrderStatDist(mixed_parallel(Lomax(2.0, 1.0), (1.0,), Exponential(1.0), (1.0,)))
    grid = GridSpec(kind="u", n=2048)
    assert check_disp(d, e, grid) == _spread_oracle("disp", d, e, grid)
    assert check_disp(d, e, grid).outcome == INCONCLUSIVE
