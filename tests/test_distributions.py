"""Baseline distribution families and the ageing classifier."""

import math
import random

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
from ordrel.distributions import dist_from_json, xr_non_increasing
from ordrel.systems import OrderStatDist, parallel_prhr, series_phr
from conftest import CORPUS_PAIRS

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
        assert d.tail_exponent() == 2.0

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

    # one-component systems state no classes, so the numeric rule judges them
    @pytest.mark.parametrize("d,lo,hi,flag", [
        (OrderStatDist(series_phr(Lomax(2.0, 1.0), (1.0,))), 0.0, 5.0,
         "DFR"),  # reversed hazard undefined at 0
        (OrderStatDist(parallel_prhr(ReflectedDFR(Lomax(2.0, 1.0)), (1.0,))), -5.0, 0.0,
         "IRHR"),  # hazard undefined at 0
    ], ids=["lower-edge", "upper-edge"])
    def test_rate_undefined_at_a_support_edge(self, d, lo, hi, flag):
        # the undefined rate carries neither flag; the other is judged as usual
        ag = classify_ageing(d, GridSpec(kind="x", lo=lo, hi=hi, n=64))
        assert ag == {flag}

    @pytest.mark.parametrize("d,lo,hi", [
        (Lomax(2.0, 1.0), 0.0, 5.0),
        (ReflectedDFR(Lomax(2.0, 1.0)), -5.0, 0.0),
    ], ids=["lower-edge", "upper-edge"])
    def test_stated_classes_hold_up_to_a_support_edge(self, d, lo, hi):
        # a family's classes hold on its whole support, whatever the grid
        ag = classify_ageing(d, GridSpec(kind="x", lo=lo, hi=hi, n=64))
        assert ag == d.ageing_classes and len(ag) == 2

    def test_stated_classes_keep_the_support_check(self):
        with pytest.raises(SupportError, match="outside the support"):
            classify_ageing(ParetoI(2.0), GridSpec(kind="x", lo=0.0, hi=5.0, n=64))

    def test_every_class_occurs_in_the_corpus(self):
        flags = set()
        for pair in CORPUS_PAIRS:
            for d in pair:
                flags |= classify_ageing(d)
        assert flags == {"IFR", "DFR", "IRHR", "DRHR"}

    def test_class_names_are_no_argument(self):
        # the classifier returns every flag that holds; a caller tests membership
        with pytest.raises(TypeError):
            classify_ageing(Exponential(1.0), None, "IFR")


class _Unstated(Distribution):
    """``d``'s columns and support with nothing stated, so the ageing
    classifier and the x*r(x) row judge it numerically."""

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
    numeric classifier on its default grid, which stays the oracle."""

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
        grid = GridSpec(kind="x", n=128)
        seen = set()
        for d in draws:
            numeric = _Unstated(d)
            stated = classify_ageing(d)
            assert stated == d.ageing_classes == classify_ageing(numeric), d
            if d.xr_decreasing is not None:
                assert (xr_non_increasing(d, grid) == d.xr_decreasing
                        == xr_non_increasing(numeric, grid))
            seen.add(stated)
        assert len(draws) >= 1000
        if family == "weibull":
            assert seen == {frozenset({"DFR", "DRHR"}), frozenset({"IFR", "DRHR"}),
                            frozenset({"IFR", "DFR", "DRHR"})}
        assert all(d.xr_decreasing is None for d in draws) == family.startswith("reflected")

    def test_weibull_near_one_is_decided_exactly(self):
        # numerically the hazard's rise is within tau_mono, so both flags hold
        d = Weibull(1.0 + 1e-12, 1.0)
        assert classify_ageing(_Unstated(d)) == {"IFR", "DFR", "DRHR"}
        assert classify_ageing(d) == {"IFR", "DRHR"}

    def test_heavy_lomax_is_classified_without_its_quantiles(self):
        # the quantile at 1 - 1e-3 is 1e3000, beyond the float range
        d = Lomax(0.001)
        with pytest.raises(OverflowError):
            classify_ageing(_Unstated(d))
        assert classify_ageing(d) == {"DFR", "DRHR"}
        assert not xr_non_increasing(d, GridSpec(kind="x", n=128))

    def test_systems_state_nothing(self):
        assert OrderStatDist(series_phr(Lomax(2.0, 1.0), (1.0, 2.0))).ageing_classes is None
        assert ReflectedDFR(_Unstated(Lomax(2.0, 1.0))).ageing_classes is None
