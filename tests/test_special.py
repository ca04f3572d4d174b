"""Root finder: bracketing, bisection and safeguarded Newton steps."""

import math

import pytest
from hypothesis import given, strategies as st

from ordrel.special import bisect_increasing


def _exp_cdf(x):
    return 0.0 if x <= 0 else 1.0 - math.exp(-x)


# (fn, derivative, target, guess, lo_bound, root)
ROOTS = [
    (lambda x: 2.0 * x - 3.0, lambda x: 2.0, 0.0, 1.0, -math.inf, 1.5),
    (_exp_cdf, lambda x: math.exp(-x), 0.5, 1.0, 0.0, math.log(2.0)),
    (lambda x: 0.0 if x <= 1.0 else 1.0 - x ** -2.0, lambda x: 2.0 * x ** -3.0,
     0.75, 1.0, 1.0, 2.0),
]


class TestBisection:
    def test_linear(self):
        root = bisect_increasing(lambda x: 2.0 * x - 3.0, 0.0, 1.0,
                                 lo_bound=-math.inf, hi_bound=math.inf)
        assert root == pytest.approx(1.5, abs=1e-9)

    def test_cdf_like_target(self):
        cdf = lambda x: 0.0 if x <= 0 else 1.0 - math.exp(-x)
        root = bisect_increasing(cdf, 0.5, 1.0, lo_bound=0.0, hi_bound=math.inf)
        assert root == pytest.approx(math.log(2.0), abs=1e-8)

    def test_respects_bounds(self):
        cdf = lambda x: 0.0 if x <= 1.0 else 1.0 - x ** -2.0
        root = bisect_increasing(cdf, 0.75, 1.0, lo_bound=1.0, hi_bound=math.inf)
        assert root == pytest.approx(2.0, abs=1e-8)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.2, max_value=5.0))
    def test_exponential_quantile_roundtrip(self, u, rate):
        cdf = lambda x: -math.expm1(-rate * x) if x > 0 else 0.0
        root = bisect_increasing(cdf, u, 0.5, lo_bound=0.0, hi_bound=math.inf)
        assert cdf(root) == pytest.approx(u, abs=1e-8)


class TestNewton:
    @pytest.mark.parametrize("fn,dfn,target,guess,lo,root", ROOTS)
    def test_finds_the_bisection_roots(self, fn, dfn, target, guess, lo, root):
        x = bisect_increasing(fn, target, guess, lo_bound=lo, dfn=dfn)
        assert x == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_falls_back_to_bracketing(self, bad):
        x = bisect_increasing(_exp_cdf, 0.5, 1.0, lo_bound=0.0,
                              dfn=lambda x: bad)
        assert x == pytest.approx(math.log(2.0), abs=1e-9)

    def test_overshooting_steps_stay_in_the_bracket(self):
        # plain Newton on atan diverges from |x0| > 1.39
        x = bisect_increasing(math.atan, 0.0, 3.0, dfn=lambda x: 1.0 / (1.0 + x * x))
        assert x == pytest.approx(0.0, abs=1e-9)

    def test_bound_is_returned_when_target_is_out_of_range(self):
        dfn = lambda x: 2.0 * x ** -3.0
        cdf = lambda x: 1.0 - x ** -2.0
        assert bisect_increasing(cdf, -0.5, 3.0, lo_bound=1.0, dfn=dfn) == 1.0
        assert bisect_increasing(cdf, 0.9, 1.5, lo_bound=1.0, hi_bound=2.0,
                                 dfn=dfn) == 2.0

    def test_a_root_past_the_float_range_is_inf(self):
        # the log cdf of Lomax(0.005) stays below log(0.999) at every float
        # (its root is about 10**600); Newton steps run x far past the
        # growth step, which used to round off against x, so the solve
        # stalled at a finite x that is no root
        a = 0.005
        fn = lambda x: math.log(-math.expm1(-a * math.log1p(x)))
        dfn = lambda x: a / ((1.0 + x) * math.expm1(a * math.log1p(x)))
        target = math.log(0.999)
        assert fn(1.7e308) < target
        assert bisect_increasing(fn, target, 7.6, lo_bound=0.0, dfn=dfn) == math.inf

    def test_exponential_quantile_in_few_evaluations(self):
        most = 0
        for i in range(999):
            u = 1e-3 + i * (1.0 - 2e-3) / 998
            calls = []

            def cdf(x):
                calls.append(x)
                return _exp_cdf(x)

            x = bisect_increasing(cdf, u, 0.5, lo_bound=0.0,
                                  dfn=lambda x: math.exp(-x))
            most = max(most, len(calls))
            assert _exp_cdf(x) == pytest.approx(u, abs=1e-12)
        assert most <= 12
