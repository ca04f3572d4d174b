"""Shared example corpus for the test suite.

CORPUS_PAIRS is the pool of comparable (A, B) pairs used by the
implication-chain meta-test and various checker tests; SHIFTED_SYSTEMS is
the pool of dependent systems exercised by the copula invariants.
BAD_SCALAR_FIELDS, BAD_LENGTH_FIELDS, T7_NEGATIVE_FRANK_DIM_3, T6_UNKNOWN_GRID
and T6_WRONG_GRID_KIND are malformed theorem cases that the loader and the
CLI must both reject; T7_CLAYTON_FRANK and T7_LARGE_FRANK load and run;
T7_OUT_OF_FLOAT_RANGE holds cases the CLI must refuse because a generator
theta leaves the float range; T5_XR_OUTSIDE_SUPPORT sets an x*r(x) grid
left of its support under the "xr" key, which no theorem reads, so the
loader refuses it.
UnstatedClayton is a generator that states no closed form.
copula_value is the reference copula C the copula tests compare against;
numeric_ageing and numeric_xr_non_increasing judge ageing from the rate
columns at given points (such as quantile_points), the reference that
each family's stated classes and x*r(x) trend are tested against.
run_python runs code in a fresh interpreter, for what only a new process
shows: which modules an import loads and the order they load in; run_cli
runs the CLI as ``python -m ordrel.cli`` does.
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
from ordrel.grids import DEFAULT_TAU_MONO, first_decrease


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
    """Clayton's psi and phi with no closed form stated: its
    super-additivity takes the numeric check, and its log-curvature row
    refuses it."""

    log_curvature = None
    theta_kin = frozenset()


def copula_value(g, u) -> float:
    """C(u_1, ..., u_n) = psi(sum_k phi(u_k)); a zero argument gives 0."""
    phis = [g.phi(uk) for uk in u]
    return 0.0 if math.inf in phis else g.psi(sum(phis))


def quantile_points(d) -> list[float]:
    """128 quantiles of ``d`` on [1e-3, 1 - 1e-3], clear of both support edges."""
    return d.column("quantile", [1e-3 + i * (1.0 - 2e-3) / 127 for i in range(128)])


def numeric_ageing(d, xs, tau=DEFAULT_TAU_MONO) -> frozenset[str]:
    """The flags among IFR/DFR/IRHR/DRHR that the rate columns of ``d`` show
    at the points ``xs``: a rate's increasing flag where `first_decrease`
    finds no drop beyond ``tau`` in it, its decreasing flag where it finds
    none in the negated rate, and neither where the rate is undefined at
    some point.  A constant hazard carries both of its flags."""
    flags = set()
    for rate, rising, falling in (("hazard", "IFR", "DFR"), ("rev_hazard", "IRHR", "DRHR")):
        values = d.column(rate, xs)
        if None in values:
            continue
        if first_decrease(xs, values, tau) is None:
            flags.add(rising)
        if first_decrease(xs, [-v for v in values], tau) is None:
            flags.add(falling)
    return frozenset(flags)


def numeric_xr_non_increasing(d, xs, tau=DEFAULT_TAU_MONO) -> bool:
    """x*r(x) non-increasing at the points ``xs`` by `first_decrease`;
    false where the hazard is undefined at some point."""
    rates = d.column("hazard", xs)
    return None not in rates and first_decrease(
        xs, [-x * r for x, r in zip(xs, rates)], tau) is None


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

# Its x*r(x) grid lies wholly left of the support, under a key that no
# theorem reads since the x*r(x) row reads the stated trend.
T5_XR_OUTSIDE_SUPPORT = {**T5_PARETO, "grids": {
    "xr": {"kind": "x", "lo": -5.0, "hi": -1.0, "n": 64}}}


def _run(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on `argv` that imports this checkout's ordrel;
    its stdout and stderr are captured as text."""
    package_root = os.path.dirname(os.path.dirname(ordrel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a fresh interpreter (`_run`)."""
    return _run("-c", code, *args)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m ordrel.cli`` with `args` in a fresh interpreter (`_run`)."""
    return _run("-m", "ordrel.cli", *args)


@pytest.fixture
def corpus_pairs():
    return CORPUS_PAIRS


@pytest.fixture
def shifted_systems():
    return SHIFTED_SYSTEMS
