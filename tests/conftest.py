"""Shared example corpus for the test suite.

CORPUS_PAIRS is the pool of comparable (A, B) pairs used by the
implication-chain meta-test and various checker tests; SHIFTED_SYSTEMS is
the pool of dependent systems exercised by the copula invariants.
BAD_SCALAR_FIELDS, BAD_LENGTH_FIELDS, T7_NEGATIVE_FRANK_DIM_3, T6_UNKNOWN_GRID
and T6_WRONG_GRID_KIND are malformed theorem cases that the loader and the
CLI must both reject; T7_CLAYTON_FRANK and T7_LARGE_FRANK load and run;
T7_OUT_OF_FLOAT_RANGE holds cases the CLI must refuse because a generator
theta leaves the float range; T5_XR_OUTSIDE_SUPPORT loads but must fail
before any check runs.
UnstatedClayton is a generator that states no closed form.
copula_value is the reference copula C the copula tests compare against.
run_python runs code in a fresh interpreter, for what only a new process
shows: which modules an import loads and the order they load in.
"""

import math
import os
import subprocess
import sys

import pytest

import ordrel
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

class UnstatedClayton(Clayton):
    """Clayton's psi and phi with no closed form stated, so the T7/T8
    generator rows take the numeric checks."""

    log_curvature = None
    theta_kin = frozenset()


def copula_value(g, u) -> float:
    """C(u_1, ..., u_n) = psi(sum_k phi(u_k)); a zero argument gives 0."""
    phis = [g.phi(uk) for uk in u]
    return 0.0 if math.inf in phis else g.psi(sum(phis))


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

def _t7_t8(tid, shifts_x, shifts_y):
    return {"id": tid, "scenario": {
        "generator_x": {"family": "clayton", "theta": 2.0},
        "generator_y": {"family": "clayton", "theta": 1.0},
        "baseline_x": {"family": "exponential", "params": {"rate": 1.0}},
        "baseline_y": {"family": "exponential", "params": {"rate": 1.5}},
        "shifts_x": shifts_x, "shifts_y": shifts_y}}


# Array fields of a length the theorem cannot use: a T6 shape vector needs
# two entries, and a T7/T8 shift vector one per dimension of its generator.
BAD_LENGTH_FIELDS = {
    "alphas": {"id": "T6", "scenario": {"theta": 1.0, "alphas": [1.0], "alphas_star": [2.0]}},
    "alphas_star": {"id": "T6", "scenario": {
        "theta": 1.0, "alphas": [1.0, 2.0], "alphas_star": [2.0]}},
    "shifts_x": _t7_t8("T8", [0.2, 0.5, 0.7], [0.5, 0.8]),
    "shifts_y": _t7_t8("T7", [0.2, 0.5], [0.5]),
}

# Negative-theta Frank is 2-monotone only, so this case must not load.
_NEGATIVE_FRANK_3 = {"family": "frank", "theta": -2.0, "dim": 3}
T7_NEGATIVE_FRANK_DIM_3 = {"id": "T7", "scenario": {
    **_t7_t8("T7", [0.2, 0.5, 0.6], [0.5, 0.8, 0.9])["scenario"],
    "generator_x": _NEGATIVE_FRANK_3, "generator_y": _NEGATIVE_FRANK_3}}

# A Clayton x Frank composition: no closed form, the numeric checks decide.
T7_CLAYTON_FRANK = {"id": "T7", "scenario": {
    **_t7_t8("T7", [0.2, 0.5], [0.5, 0.8])["scenario"],
    "generator_y": {"family": "frank", "theta": 1.0}}}

# A Frank theta large enough that 1 - e^-theta rounds to 1: loads and runs.
T7_LARGE_FRANK = {"id": "T7", "scenario": {
    **T7_CLAYTON_FRANK["scenario"], "generator_y": {"family": "frank", "theta": 40.0}}}

# T7 cases whose generator theta leaves the float range, which the CLI
# must refuse with exit 2: Frank(-800)'s exp(-theta) overflows, so does
# Clayton(2000)'s u**-theta against Frank(1) (for u < 0.7), and
# Clayton(inf), which JSON's Infinity spells, is no generator.
T7_OUT_OF_FLOAT_RANGE = {
    "frank_-800": {"id": "T7", "scenario": {
        **T7_CLAYTON_FRANK["scenario"], "generator_y": {"family": "frank", "theta": -800.0}}},
    "clayton_2000": {"id": "T7", "scenario": {
        **T7_CLAYTON_FRANK["scenario"], "generator_x": {"family": "clayton", "theta": 2000.0}}},
    "clayton_inf": {"id": "T7", "scenario": {
        **T7_CLAYTON_FRANK["scenario"], "generator_x": {"family": "clayton", "theta": math.inf}}},
}

T6_UNKNOWN_GRID = {"id": "T6", "scenario": {
    "theta": 1.5, "alphas": [2.0, 2.0], "alphas_star": [1.0, 2.5]},
    "grids": {"rh_grid": {"n": 4096}}}

# The rh checker reads an x-grid; a u-grid under its key must not load.
T6_WRONG_GRID_KIND = {**T6_UNKNOWN_GRID, "grids": {"rh": {"kind": "u", "n": 64}}}

# T5 on a Pareto(1.5) baseline, whose support is [1, inf).
T5_PARETO = {"id": "T5", "scenario": {
    "system_x": {"kind": "series_phr", "components": [
        {"baseline": {"family": "pareto1", "params": {"shape": 1.5}}, "prop": p}
        for p in (0.5, 0.5)]},
    "system_y": {"kind": "series_phr", "components": [
        {"baseline": {"family": "pareto1", "params": {"shape": 1.5}}, "prop": p}
        for p in (1.0, 1.5)]}}}

# Its x*r(x) grid lies wholly left of the support.
T5_XR_OUTSIDE_SUPPORT = {**T5_PARETO, "grids": {
    "xr": {"kind": "x", "lo": -5.0, "hi": -1.0, "n": 64}}}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter that imports this
    checkout's ordrel; its stdout and stderr are captured as text."""
    package_root = os.path.dirname(os.path.dirname(ordrel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture
def corpus_pairs():
    return CORPUS_PAIRS


@pytest.fixture
def shifted_systems():
    return SHIFTED_SYSTEMS
