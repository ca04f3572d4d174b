"""Adaptive Gauss-Kronrod quadrature."""

import math

import pytest

from ordrel.errors import OrdrelError
from ordrel.quadrature import QuadratureError, adaptive_quad


def test_polynomial_exact():
    assert adaptive_quad(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_oscillatory():
    assert adaptive_quad(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-9)


def test_semi_infinite_exponential():
    assert adaptive_quad(lambda x: math.exp(-x), 0.0, math.inf) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("b", [0.0, -0.0, 0.3, -2.5])
@pytest.mark.parametrize("f", [lambda x: math.exp(x), lambda x: (1.0 - x) ** -3.5,
                               lambda x: x * x * math.exp(2.0 * x)],
                         ids=["exp", "power", "moment"])
def test_left_half_line_is_the_mirrored_right_one(f, b):
    assert adaptive_quad(f, -math.inf, b) == adaptive_quad(lambda x: f(-x), -b, math.inf)


def test_whole_line_is_refused():
    with pytest.raises(OrdrelError, match="finite endpoint"):
        adaptive_quad(lambda x: math.exp(-x * x), -math.inf, math.inf)


def test_heavy_tail():
    # Lomax(3) density integrates to 1; mean integral is 1/2
    pdf = lambda x: 3.0 * (1.0 + x) ** -4.0
    assert adaptive_quad(pdf, 0.0, math.inf) == pytest.approx(1.0, rel=1e-9)
    assert adaptive_quad(lambda x: x * pdf(x), 0.0, math.inf) == pytest.approx(0.5, rel=1e-8)


def test_integrable_singularity():
    # 1/sqrt(x) on (0, 1] integrates to 2 despite the endpoint blow-up
    f = lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0
    assert adaptive_quad(f, 0.0, 1.0) == pytest.approx(2.0, rel=1e-5)


def test_divergent_raises():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / (1.0 + x), 0.0, math.inf)
