"""Shared example corpus for the test suite.

CORPUS_PAIRS is the pool of comparable (A, B) pairs used by the
implication-chain meta-test and various checker tests; SHIFTED_SYSTEMS is
the pool of dependent systems exercised by the copula invariants.
BAD_SCALAR_FIELDS and T6_UNKNOWN_GRID are malformed theorem cases that the
loader and the CLI must both reject.
"""

import pytest

from ordrel import (
    Clayton,
    Exponential,
    Frank,
    Independence,
    Lomax,
    OrderStatDist,
    ParetoI,
    ReflectedDFR,
    ShiftedSystem,
    Weibull,
    parallel_prhr,
    series_phr,
)


def _pairs():
    pairs = [
        (Exponential(2.0), Exponential(1.0)),
        (Exponential(1.0), Exponential(2.0)),
        (Exponential(1.0), Exponential(1.0)),
        (Weibull(0.7, 2.0), Weibull(0.7, 1.0)),
        (Weibull(1.5, 1.0), Weibull(1.5, 0.5)),
        (Weibull(0.8, 1.0), Weibull(1.6, 1.0)),
        (Lomax(3.0, 1.0), Lomax(1.5, 1.0)),
        (Lomax(1.5, 1.0), Lomax(3.0, 1.0)),
        (Lomax(2.0, 0.5), Lomax(2.0, 2.0)),
        (ParetoI(3.0), ParetoI(1.5)),
        (ParetoI(1.5), ParetoI(3.0)),
        (Exponential(1.0), Lomax(1.0, 1.0)),
        (Lomax(2.0, 1.0), Exponential(0.5)),
        (ReflectedDFR(Lomax(2.0, 1.0)), ReflectedDFR(Lomax(1.0, 1.0))),
        (OrderStatDist(series_phr(Exponential(1.0), (1.0, 2.0))),
         OrderStatDist(series_phr(Exponential(1.0), (0.5, 1.0)))),
        (OrderStatDist(series_phr(Lomax(2.0, 1.0), (1.0, 1.5, 2.0))),
         OrderStatDist(series_phr(Lomax(2.0, 1.0), (0.5, 0.7)))),
        (OrderStatDist(parallel_prhr(Lomax(2.0, 1.0), (0.5, 0.5))),
         OrderStatDist(parallel_prhr(Lomax(2.0, 1.0), (1.5, 2.0)))),
        (OrderStatDist(series_phr(ParetoI(2.0), (1.0, 1.0))),
         OrderStatDist(series_phr(ParetoI(2.0), (0.4, 0.4)))),
    ]
    return pairs


CORPUS_PAIRS = _pairs()

SHIFTED_SYSTEMS = [
    ShiftedSystem(Exponential(1.0), (0.2, 0.5), Clayton(1.5)),
    ShiftedSystem(Exponential(0.7), (0.1, 0.4), Independence()),
    ShiftedSystem(Lomax(2.0, 1.0), (0.0, 0.3, 0.8), Frank(2.0, dim=3)),
    ShiftedSystem(Lomax(1.5, 1.0), (0.0, 1.0), Frank(-3.0)),
    ShiftedSystem(Weibull(1.3, 1.0), (0.3, 0.3, 0.6), Clayton(0.5, dim=3)),
]

GENERATORS = [
    Independence(),
    Clayton(0.5),
    Clayton(2.0),
    Frank(1.0),
    Frank(3.0),
    Frank(-2.0),
]


# Scenario fields of the wrong type, one per kind of scalar $def (positive
# number, number array); the loader must reject each before any check runs.
BAD_SCALAR_FIELDS = {
    "theta": {"id": "T6", "scenario": {"theta": "a", "alphas": [1.0], "alphas_star": [1.0]}},
    "shape": {"id": "Ex1", "scenario": {"shape": "x"}},
    "shifts_x": {"id": "T7", "scenario": {
        "generator_x": {"family": "clayton", "theta": 2.0},
        "generator_y": {"family": "clayton", "theta": 1.0},
        "baseline_x": {"family": "exponential", "params": {"rate": 1.0}},
        "baseline_y": {"family": "exponential", "params": {"rate": 1.5}},
        "shifts_x": [0.2, "q"], "shifts_y": [0.5, 0.8]}},
}

T6_UNKNOWN_GRID = {"id": "T6", "scenario": {
    "theta": 1.5, "alphas": [2.0, 2.0], "alphas_star": [1.0, 2.5]},
    "grids": {"rh_grid": {"n": 4096}}}


@pytest.fixture
def corpus_pairs():
    return CORPUS_PAIRS


@pytest.fixture
def shifted_systems():
    return SHIFTED_SYSTEMS
