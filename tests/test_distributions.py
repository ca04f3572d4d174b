"""Baseline distribution families and their stated ageing classes."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ordrel import (
    Distribution,
    Exponential,
    GridSpec,
    Lomax,
    ParameterDomainError,
    ParetoI,
    ReflectedDFR,
    SupportError,
    Weibull,
    classify_ageing,
)
from ordrel import orders
from ordrel.distributions import dist_from_json, stated_order, xr_non_increasing
from ordrel.systems import OrderStatDist, parallel_prhr, series_phr
from conftest import (CORPUS_PAIRS, numeric_ageing, numeric_xr_non_increasing,
                      quantile_points)

ALL_DISTS = [
    Exponential(1.3),
    Weibull(0.7, 2.0),
    Weibull(1.5, 1.0),
    Lomax(2.5, 1.5),
    ParetoI(2.0),
    ReflectedDFR(Lomax(2.0, 1.0)),
]

pos = st.floats(min_value=0.2, max_value=5.0)
prob = st.floats(min_value=1e-4, max_value=1.0 - 1e-4)


class TestClosedForms:
    def test_exponential(self):
        d = Exponential(2.0)
        assert d.sf(1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert d.cdf(0.5) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert d.hazard(3.7) == 2.0
        assert d.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-14)

    def test_weibull(self):
        d = Weibull(0.7, 1.5)
        x = 0.8
        assert d.sf(x) == pytest.approx(math.exp(-1.5 * x ** 0.7), rel=1e-14)
        assert d.hazard(x) == pytest.approx(0.7 * 1.5 * x ** -0.3, rel=1e-12)
        assert d.pdf(0.0) == math.inf  # unbounded density flag for shape < 1

    def test_weibull_shape_one_is_exponential(self):
        w, e = Weibull(1.0, 1.3), Exponential(1.3)
        for x in (0.1, 1.0, 3.0):
            assert w.sf(x) == pytest.approx(e.sf(x), rel=1e-14)
            assert w.pdf(x) == pytest.approx(e.pdf(x), rel=1e-14)

    def test_lomax(self):
        d = Lomax(2.0, 1.5)
        assert d.sf(1.5) == pytest.approx(0.25, rel=1e-14)
        assert d.hazard(0.5) == pytest.approx(1.0, rel=1e-14)
        assert d.tail_exponents() == (math.inf, 2.0)
        assert ReflectedDFR(d).tail_exponents() == (2.0, math.inf)

    def test_pareto1(self):
        d = ParetoI(3.0)
        assert d.support == (1.0, math.inf)
        assert d.sf(2.0) == pytest.approx(0.125, rel=1e-14)
        assert d.sf(0.5) == 1.0
        # x * hazard(x) is constant, the star-order workhorse property
        assert 2.0 * d.hazard(2.0) == pytest.approx(5.0 * d.hazard(5.0), rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ParameterDomainError):
            Exponential(0.0)
        with pytest.raises(ParameterDomainError):
            Weibull(-1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            Lomax(1.0, 0.0)
        with pytest.raises(ParameterDomainError):
            ReflectedDFR(ReflectedDFR(Lomax(1.0, 1.0)))  # support not [0, inf)


class TestSurface:
    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.family)
    def test_cdf_sf_complement(self, d):
        for u in (0.1, 0.4, 0.8):
            x = d.quantile(u)
            assert d.cdf(x) + d.sf(x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.family)
    def test_quantile_roundtrip(self, d):
        for u in (0.05, 0.3, 0.5, 0.9, 0.99):
            assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-8)

    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.family)
    def test_pdf_matches_cdf_slope(self, d):
        h = 1e-6
        for u in (0.2, 0.5, 0.8):
            x = d.quantile(u)
            slope = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h)
            assert d.pdf(x) == pytest.approx(slope, rel=1e-4)

    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.family)
    def test_hazard_definitions(self, d):
        x = d.quantile(0.6)
        assert d.hazard(x) == pytest.approx(d.pdf(x) / d.sf(x), rel=1e-10)
        assert d.rev_hazard(x) == pytest.approx(d.pdf(x) / d.cdf(x), rel=1e-10)

    @pytest.mark.parametrize("d", ALL_DISTS, ids=lambda d: d.family)
    def test_json_roundtrip(self, d):
        d2 = dist_from_json(d.to_json())
        for u in (0.2, 0.7):
            assert d2.quantile(u) == d.quantile(u)

    def test_quantile_domain(self):
        with pytest.raises(ParameterDomainError):
            Exponential(1.0).quantile(0.0)
        with pytest.raises(ParameterDomainError):
            Exponential(1.0).quantile(1.0)

    def test_hazard_guards(self):
        with pytest.raises(SupportError):
            ParetoI(2.0).hazard(0.5)
        with pytest.raises(SupportError):
            Exponential(1.0).rev_hazard(-1.0)

    def test_exponential_hazard_is_its_rate_on_the_support(self):
        # refused below 0, as Weibull's and Lomax's are, and the rate where
        # sf underflows, as Weibull(1, 1)'s is
        d = Exponential(1.0)
        for other in (d, Weibull(1.5, 1.0), Lomax(2.0, 1.0)):
            with pytest.raises(SupportError, match="hazard needs x >= 0"):
                other.hazard(-1.0)
        assert d.hazard(800.0) == Weibull(1.0, 1.0).hazard(800.0) == 1.0
        assert d.column("hazard", [-1.0, 0.0, 800.0]) == [None, 1.0, 1.0]

    @pytest.mark.parametrize("shape,limit", [(0.7, math.inf), (1.0, 2.5), (1.4, 0.0)])
    def test_weibull_hazard_at_the_origin_is_its_limit(self, shape, limit):
        d = Weibull(shape, 2.5)
        assert d.hazard(0.0) == limit == d.pdf(0.0)
        with pytest.raises(SupportError):
            d.hazard(-1e-300)

    @given(prob, pos)
    def test_exponential_quantile_identity(self, u, rate):
        d = Exponential(rate)
        assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-12)

    @given(prob, pos, pos)
    def test_lomax_quantile_identity(self, u, shape, scale):
        d = Lomax(shape, scale)
        assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-10)


class TestReflection:
    def test_support_and_symmetry(self):
        inner = Lomax(2.0, 1.0)
        d = ReflectedDFR(inner)
        assert d.support == (-math.inf, 0.0)
        for x in (-0.3, -1.0, -4.0):
            assert d.cdf(x) == pytest.approx(inner.sf(-x), rel=1e-14)
            assert d.pdf(x) == pytest.approx(inner.pdf(-x), rel=1e-14)

    def test_rev_hazard_is_inner_hazard(self):
        inner = Lomax(1.5, 2.0)
        d = ReflectedDFR(inner)
        for x in (-0.5, -2.0, -7.0):
            assert d.rev_hazard(x) == inner.hazard(-x)

    def test_quantile_mirrors(self):
        inner = Exponential(1.0)
        d = ReflectedDFR(inner)
        assert d.quantile(0.3) == pytest.approx(-inner.quantile(0.7), rel=1e-12)


class TestAgeing:
    def test_exponential_is_boundary_case(self):
        ag = classify_ageing(Exponential(1.0))
        assert "IFR" in ag and "DFR" in ag

    def test_weibull_by_shape(self):
        assert "DFR" in classify_ageing(Weibull(0.7, 1.0))
        assert "IFR" not in classify_ageing(Weibull(0.7, 1.0))
        assert "IFR" in classify_ageing(Weibull(1.5, 1.0))
        assert "DFR" not in classify_ageing(Weibull(1.5, 1.0))

    def test_lomax_is_dfr(self):
        ag = classify_ageing(Lomax(2.0, 1.0))
        assert "DFR" in ag and "IFR" not in ag

    def test_lifetimes_are_drhr(self):
        # every distribution on [0, inf) has decreasing reversed hazard
        for d in (Exponential(1.0), Weibull(1.5, 1.0), Lomax(2.0, 1.0)):
            ag = classify_ageing(d)
            assert "DRHR" in ag and "IRHR" not in ag

    def test_reflected_dfr_is_irhr(self):
        ag = classify_ageing(ReflectedDFR(Lomax(2.0, 1.0)))
        assert "IRHR" in ag and "DRHR" not in ag

    # the oracle on one-component systems, which state no classes
    @pytest.mark.parametrize("d,lo,hi,flag", [
        (OrderStatDist(series_phr(Lomax(2.0, 1.0), (1.0,))), 0.0, 5.0,
         "DFR"),  # reversed hazard undefined at 0
        (OrderStatDist(parallel_prhr(ReflectedDFR(Lomax(2.0, 1.0)), (1.0,))), -5.0, 0.0,
         "IRHR"),  # hazard undefined at 0
    ], ids=["lower-edge", "upper-edge"])
    def test_rate_undefined_at_a_support_edge(self, d, lo, hi, flag):
        # the undefined rate carries neither flag; the other is judged as usual
        ag = numeric_ageing(d, GridSpec(kind="x", lo=lo, hi=hi, n=64).x_points())
        assert ag == {flag}

    @pytest.mark.parametrize("d,lo,hi", [
        (Lomax(2.0, 1.0), 0.0, 5.0),
        (ReflectedDFR(Lomax(2.0, 1.0)), -5.0, 0.0),
    ], ids=["lower-edge", "upper-edge"])
    def test_stated_classes_hold_up_to_a_support_edge(self, d, lo, hi):
        # a family's classes hold on its whole support: on a grid that ends
        # at a support edge the oracle drops the flags of the rate undefined there
        xs = GridSpec(kind="x", lo=lo, hi=hi, n=64).x_points()
        assert numeric_ageing(d, xs) < classify_ageing(d) == d.ageing_classes
        assert len(d.ageing_classes) == 2

    def test_every_class_occurs_in_the_corpus(self):
        flags = set()
        for pair in CORPUS_PAIRS:
            for d in pair:
                if d.ageing_classes is not None:  # systems state none
                    flags |= classify_ageing(d)
        assert flags == {"IFR", "DFR", "IRHR", "DRHR"}

    def test_class_names_are_no_argument(self):
        # the classifier returns every flag that holds; a caller tests membership
        with pytest.raises(TypeError):
            classify_ageing(Exponential(1.0), None, "IFR")

    def test_a_grid_is_no_argument(self):
        # both read what a distribution states, on no grid
        grid = GridSpec(kind="x", n=128)
        with pytest.raises(TypeError):
            classify_ageing(Exponential(1.0), grid)
        with pytest.raises(TypeError):
            xr_non_increasing(Exponential(1.0), grid)


class _Unstated(Distribution):
    """``d``'s columns and support with nothing stated, which
    `classify_ageing` and `xr_non_increasing` refuse."""

    def __init__(self, d):
        self.d = d

    @property
    def support(self):
        return self.d.support

    def column(self, name, points):
        return self.d.column(name, points)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _weibull_shape(rng, i):
    """Every tenth shape is 1 exactly and every tenth is 1 +- 10**-U(1, 6);
    the rest are uniform on [0.2, 5].  |shape - 1| >= 1e-6 but for 1."""
    if i % 10 == 0:
        return 1.0
    if i % 10 == 1:
        return 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(1.0, 6.0)
    k = 1.0
    while abs(k - 1.0) < 1e-6:
        k = rng.uniform(0.2, 5.0)
    return k


class TestStatedAgeing:
    """Each family's stated ageing classes and x*r(x) trend against the
    numeric oracle (`conftest.numeric_ageing`) at 128 of its quantiles."""

    DRAW = {
        "exponential": lambda rng, i: Exponential(_log_uniform(rng, 1e-3, 1e3)),
        "weibull": lambda rng, i: Weibull(_weibull_shape(rng, i), _log_uniform(rng, 0.1, 10.0)),
        "lomax": lambda rng, i: Lomax(_log_uniform(rng, 0.05, 50.0),
                                      _log_uniform(rng, 0.1, 10.0)),
        "pareto1": lambda rng, i: ParetoI(_log_uniform(rng, 0.05, 50.0)),
    }

    @classmethod
    def _draws(cls, family, count=1000):
        rng = random.Random(f"stated-ageing-{family}")
        lifetime = family.removeprefix("reflected_")
        draws = [cls.DRAW[lifetime](rng, i) for i in range(count)]
        return [ReflectedDFR(d) for d in draws] if lifetime != family else draws

    @pytest.mark.parametrize("family", [*DRAW, *(f"reflected_{f}" for f in DRAW)])
    def test_stated_classes_are_the_numeric_ones(self, family):
        draws = self._draws(family)
        seen = set()
        for d in draws:
            xs = quantile_points(d)
            stated = classify_ageing(d)
            assert stated == d.ageing_classes == numeric_ageing(d, xs), d
            if d.xr_decreasing is not None:
                assert (xr_non_increasing(d) == d.xr_decreasing
                        == numeric_xr_non_increasing(d, xs))
            seen.add(stated)
        assert len(draws) >= 1000
        if family == "weibull":
            assert seen == {frozenset({"DFR", "DRHR"}), frozenset({"IFR", "DRHR"}),
                            frozenset({"IFR", "DFR", "DRHR"})}
        assert all(d.xr_decreasing is None for d in draws) == family.startswith("reflected")

    def test_weibull_near_one_is_decided_exactly(self):
        # numerically the hazard's rise is within tau_mono, so both flags hold
        d = Weibull(1.0 + 1e-12, 1.0)
        assert numeric_ageing(d, quantile_points(d)) == {"IFR", "DFR", "DRHR"}
        assert classify_ageing(d) == {"IFR", "DRHR"}

    def test_heavy_lomax_is_classified_without_its_quantiles(self):
        # the quantile at 1 - 1e-3 is 1e3000, beyond the float range
        d = Lomax(0.001)
        with pytest.raises(OverflowError):
            quantile_points(d)
        assert classify_ageing(d) == {"DFR", "DRHR"}
        assert not xr_non_increasing(d)

    def test_systems_state_nothing(self):
        assert OrderStatDist(series_phr(Lomax(2.0, 1.0), (1.0, 2.0))).ageing_classes is None
        assert ReflectedDFR(_Unstated(Lomax(2.0, 1.0))).ageing_classes is None

    @pytest.mark.parametrize("d", [OrderStatDist(series_phr(Lomax(2.0, 1.0), (1.0, 2.0))),
                                   _Unstated(Lomax(2.0))], ids=["system", "unstated"])
    def test_what_states_nothing_is_refused(self, d):
        name = type(d).__name__
        with pytest.raises(ParameterDomainError, match=f"^{name} states no ageing classes$"):
            classify_ageing(d)
        with pytest.raises(ParameterDomainError, match=rf"^{name} states no x\*r\(x\) trend$"):
            xr_non_increasing(d)


def _lomax_le(a, b) -> bool:
    """The oracle for a <=_hr b (and a <=_st b) on two Lomax baselines:
    the hazard-line coefficients shape_a - shape_b and
    shape_a*scale_b - shape_b*scale_a, both >= 0, in exact rationals."""
    sa, ca, sb, cb = map(Fraction, (a.shape, a.scale, b.shape, b.scale))
    return sa >= sb and sa * cb >= sb * ca


def _lomax_pairs(count=1500):
    """Seeded Lomax pairs with scales that differ; every third is a near
    tie: B's scale is where the product term vanishes, moved by -1, 0 or
    +1 ulp, and every fifth pair shares its shape."""
    rng = random.Random("stated-order-lomax")
    pairs = []
    for i in range(count):
        a = Lomax(_log_uniform(rng, 0.3, 5.0), _log_uniform(rng, 0.3, 3.0))
        shape = a.shape if i % 5 == 0 else _log_uniform(rng, 0.3, 5.0)
        scale = _log_uniform(rng, 0.3, 3.0)
        if i % 3 == 0:
            scale = shape * a.scale / a.shape
            scale = math.nextafter(scale, scale * (1.0 + rng.choice((-1, 0, 1))))
        pairs.append((a, Lomax(shape, scale)))
    return pairs


def _hazard_crossing(a, b) -> float:
    """Where hazard_a - hazard_b, the line of `_lomax_le`, changes sign."""
    return (b.shape * a.scale - a.shape * b.scale) / (a.shape - b.shape)


def _sf_crossing(a, b) -> float:
    """The x > 0 where the sf of two Lomax baselines cross, for a pair whose
    hazards cross at x* > 0: log(sf_b/sf_a) is monotone beyond x*, so the
    root is bracketed by doubling and bisected."""
    def log_ratio(x):
        return a.shape * math.log1p(x / a.scale) - b.shape * math.log1p(x / b.scale)

    lo = _hazard_crossing(a, b)
    hi, rising = 2.0 * lo, log_ratio(2.0 * lo) > log_ratio(lo)
    while (log_ratio(hi) > 0.0) != rising and hi < 1e300:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (log_ratio(mid) > 0.0) != rising else (lo, mid)
    return hi


class TestStatedOrder:
    """`stated_order` against exact rational arithmetic of the hazard line,
    and against the numeric checkers where the line (hr) or the sf curves
    (st) cross inside the checker's default window."""

    def test_lomax_is_the_exact_hazard_line_sign(self):
        pairs = _lomax_pairs()
        read = [(stated_order("hr", a, b), stated_order("st", a, b)) for a, b in pairs]
        assert read == [(_lomax_le(a, b),) * 2 for a, b in pairs]
        # the near ties reach both answers, and the shared shapes both too
        ties = [_lomax_le(a, b) for i, (a, b) in enumerate(pairs) if i % 3 == 0]
        shared = [_lomax_le(a, b) for a, b in pairs if a.shape == b.shape]
        assert set(ties) == set(shared) == {True, False}

    def test_exponential_is_the_rate_order(self):
        rng = random.Random("stated-order-exponential")
        for _ in range(500):
            r = _log_uniform(rng, 1e-3, 1e3)
            a, b = Exponential(r), Exponential(rng.choice((r, math.nextafter(r, 0.0),
                                                           _log_uniform(rng, 1e-3, 1e3))))
            assert stated_order("st", a, b) == stated_order("hr", a, b) == (a.rate >= b.rate)

    def test_a_reflected_pair_is_its_inner_pair_swapped(self):
        for a, b in _lomax_pairs(300):
            ra, rb = ReflectedDFR(a), ReflectedDFR(b)
            assert stated_order("st", ra, rb) == _lomax_le(b, a)
            assert stated_order("rh", ra, rb) == _lomax_le(b, a)
            assert stated_order("hr", ra, rb) is None
        assert stated_order("rh", ReflectedDFR(Exponential(2.0)),
                            ReflectedDFR(Exponential(1.0))) is False
        assert stated_order("rh", ReflectedDFR(Exponential(1.0)),
                            ReflectedDFR(Exponential(2.0))) is True

    @pytest.mark.parametrize("rel,a,b", [
        ("hr", Exponential(1.0), Lomax(2.0)),
        ("st", Lomax(2.0), Exponential(1.0)),
        ("hr", Weibull(0.5, 2.0), Weibull(0.5, 1.0)),
        ("st", Weibull(1.0, 2.0), Weibull(1.0, 1.0)),
        ("st", ParetoI(2.0), ParetoI(1.0)),
        ("st", Exponential(1.0), Weibull(1.0, 1.0)),
        ("rh", ReflectedDFR(Lomax(2.0)), ReflectedDFR(Exponential(1.0))),
        ("rh", ReflectedDFR(Weibull(0.5, 1.0)), ReflectedDFR(Weibull(0.5, 2.0))),
        ("lr", Lomax(2.0), Lomax(1.0)),
        ("rh", Lomax(2.0), Lomax(1.0)),
        ("lr", Exponential(2.0), Exponential(1.0)),
    ], ids=["exp-lomax", "lomax-exp", "weibull", "weibull-shape-1", "pareto",
            "exp-weibull", "reflected-lomax-exp", "reflected-weibull",
            "lomax-lr", "lomax-rh", "exp-lr"])
    def test_what_no_class_states_is_none(self, rel, a, b):
        assert stated_order(rel, a, b) is None

    @pytest.mark.parametrize("rel,reflect", [("hr", False), ("st", False),
                                             ("rh", True), ("st", True)])
    def test_the_checker_agrees_where_the_pair_crosses_in_its_window(self, rel, reflect):
        # a pair the rule holds for never crosses, and one whose hazards
        # (hr, rh) or sf curves (st) cross inside the window fails both
        grid = GridSpec(kind="x", n=96)
        counts = {True: 0, False: 0}
        for a, b in _lomax_pairs():
            pair = (ReflectedDFR(a), ReflectedDFR(b)) if reflect else (a, b)
            stated = stated_order(rel, *pair)
            if not stated:
                # -X <=_rel -Y reads the inner pair (Y, X), which crosses at -x
                inner = (b, a) if reflect else (a, b)
                if inner[0].shape == inner[1].shape or _hazard_crossing(*inner) <= 0.0:
                    continue
                x = (_sf_crossing if rel == "st" else _hazard_crossing)(*inner)
                xs = grid.x_points(pair)
                if not xs[0] < (-x if reflect else x) < xs[-1]:
                    continue
            counts[stated] += 1
            assert orders.CHECKERS[rel](*pair, grid).holds == stated, pair
        assert min(counts.values()) >= 100

    @pytest.mark.parametrize("rel,reflect", [("hr", False), ("st", False),
                                             ("rh", True), ("st", True)])
    def test_beyond_the_window_the_rule_answers_for_the_whole_support(self, rel, reflect):
        # the hazards cross at x* = 1e9 - 1 and the sf curves further out,
        # both beyond the window [q(1e-4), q(1 - 1e-4)], which ends near 2e4:
        # the checker reads the window only
        a, b = Lomax(1.0, 1.0), Lomax(1.0 + 1e-9, 2.0)
        assert 0.9e9 < _hazard_crossing(a, b) < _sf_crossing(a, b)
        pair = (ReflectedDFR(b), ReflectedDFR(a)) if reflect else (a, b)
        grid = GridSpec(kind="x", n=96)
        assert max(map(abs, grid.x_points(pair))) < 1e5
        assert orders.CHECKERS[rel](*pair, grid).holds
        assert stated_order(rel, *pair) is False
