"""Acceptance gate: eight release criteria, one pass/fail line each."""

import math
import time

from ordrel import (
    Clayton,
    Exponential,
    GridSpec,
    Independence,
    Lomax,
    OrderStatDist,
    ParetoI,
    Weibull,
    check_disp,
    check_hr,
    check_lr,
    check_st,
    check_star,
    j1,
    j2,
    lomax_min_moments,
    numeric_mean_variance,
    scan,
    series_phr,
    weibull_min_variance,
)
from ordrel.copulas import ShiftedSystem
from ordrel.orders import FAILS, HOLDS
from conftest import CORPUS_PAIRS, GENERATORS, SHIFTED_SYSTEMS, copula_value


def _report(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_weibull_example_reproduction():
    t0 = time.time()
    shape = 0.7
    cases = [((1.7, 2.0, 0.9), 0.043782), ((1.0, 3.0, 2.3), 0.017826)]
    ok = True
    for rates, reference in cases:
        closed = weibull_min_variance(rates, shape)
        ok &= abs(closed - reference) <= 1e-4 * reference
        system = OrderStatDist(series_phr(Weibull(shape, 1.0), rates))
        _, numeric = numeric_mean_variance(system)
        ok &= abs(numeric - closed) <= 1e-3 * closed
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert _report(1, "Weibull minimum variance reproduction", ok), (cases, elapsed)


def test_criterion_2_lomax_example_reproduction():
    t0 = time.time()
    cases = [((1.0, 4.0, 7.0), 12.0 / 1210.0), ((1.2, 3.5, 7.2), 11.9 / 1176.219)]
    ok = True
    for alphas, reference in cases:
        _, closed = lomax_min_moments(alphas)
        ok &= abs(closed - reference) <= 1e-4 * reference
    # the quoted four-significant-digit values round-trip too
    ok &= abs(lomax_min_moments((1.0, 4.0, 7.0))[1] - 0.009917) <= 1e-4 * 0.009917
    ok &= abs(lomax_min_moments((1.2, 3.5, 7.2))[1] - 0.010117) <= 1e-4 * 0.010117
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert _report(2, "Lomax minimum variance reproduction", ok), elapsed


def test_criterion_3_theorem_scan_suites():
    t0 = time.time()
    ok = True
    details = {}
    for tid in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"):
        result = scan(tid, budget=150, seed=7)
        satisfying = result.counts["total"] - result.counts["vacuous"]
        details[tid] = (satisfying, result.counts["inconsistent"])
        ok &= satisfying >= 100
        ok &= result.counts["inconsistent"] == 0
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    assert _report(3, "theorem scans, zero inconsistencies", ok), (details, elapsed)


def test_criterion_4_exponential_order_oracle():
    lams = [0.25 * i for i in range(1, 21)]
    gx = GridSpec(kind="x", n=128)
    gu = GridSpec(kind="u", n=128)
    checks = [(check_st, gx), (check_hr, gx), (check_lr, gx), (check_disp, gu)]
    mismatches = 0
    for la in lams:
        for lb in lams:
            a, b = Exponential(la), Exponential(lb)
            expect = la >= lb  # A <= B in every order iff rate_A >= rate_B
            for checker, grid in checks:
                if checker(a, b, grid).holds != expect:
                    mismatches += 1
    assert _report(4, "exponential analytic oracle, 20x20 grid", mismatches == 0), \
        mismatches


def test_criterion_5_pareto_star_oracle():
    sums = [0.5 * i for i in range(1, 11)]
    grid = GridSpec(kind="u", n=128)
    mismatches = 0
    for sa in sums:
        for sb in sums:
            a = OrderStatDist(series_phr(ParetoI(1.0), (0.5 * sa, 0.5 * sa)))
            b = OrderStatDist(series_phr(ParetoI(1.0), (0.5 * sb, 0.5 * sb)))
            # min over ParetoI powers is ParetoI(sum); quantile ratio is
            # (1-u)^(1/sum_a - 1/sum_b), non-decreasing iff sum_a >= sum_b
            if check_star(a, b, grid).holds != (sa >= sb):
                mismatches += 1
    assert _report(5, "Pareto star-order oracle, 10x10 grid", mismatches == 0), \
        mismatches


def test_criterion_6_implication_chain():
    gx = GridSpec(kind="x", n=128)
    violations = []
    for a, b in CORPUS_PAIRS:
        lr, hr, st = (check_lr(a, b, gx), check_hr(a, b, gx), check_st(a, b, gx))
        if lr.outcome == HOLDS and hr.outcome == FAILS:
            violations.append((a, b, "lr->hr"))
        if hr.outcome == HOLDS and st.outcome == FAILS:
            violations.append((a, b, "hr->st"))
    assert _report(6, "lr => hr => st over the example corpus", not violations), \
        violations


def test_criterion_7_copula_invariants():
    ok = True
    # generator round-trips
    for g in GENERATORS:
        for i in range(1, 200):
            u = i / 200.0
            ok &= abs(g.psi(g.phi(u)) - u) <= 1e-10
    # Clayton theta=1e-3 approximates independence; the tolerance carries the
    # natural log-scale factor since |C_theta - C| ~ theta * u1 u2 ln u1 ln u2
    clayton, ind = Clayton(1e-3), Independence()
    for i in range(1, 20):
        for k in range(1, 20):
            u = (0.05 * i, 0.05 * k)
            gap = abs(copula_value(clayton, u) - copula_value(ind, u))
            scale = 1.0 + abs(math.log(u[0])) + abs(math.log(u[1]))
            ok &= gap <= 1e-4 * scale
    # J1/J2 monotone in x and in every shift, across all shipped systems
    for s in SHIFTED_SYSTEMS:
        xs = [-1.0 + 0.05 * i for i in range(80)]
        for fn in (j1, j2):
            vals = [fn(s, x) for x in xs]
            ok &= all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for i in range(len(s.shifts)):
            bumped = list(s.shifts)
            bumped[i] += 0.1
            s2 = ShiftedSystem(s.baseline, tuple(bumped), s.generator)
            for x in xs[::4]:
                ok &= j1(s2, x) <= j1(s, x) + 1e-12
                ok &= j2(s2, x) <= j2(s, x) + 1e-12
    assert _report(7, "copula invariants", ok)


def _lomax_g(a, u):
    """g(a) = a/(u**a - 1), u = x/theta + 1 > 1: the reversed hazard of
    Lomax(a, theta) at x, times x + theta."""
    return a / (u ** a - 1.0)


def test_criterion_8_schur_certification():
    # proof obligations behind the Lomax maxima comparison: on u > 1,
    # g(a) = a/(u^a - 1) is convex and decreasing in a.  sum_i g(a_i) is
    # then Schur-convex (Schur-Ostrowski) and decreasing, so both
    # properties are checked on g itself, by differences
    ok = True
    us = (1.05, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
    h = 1e-6
    for u in us:
        for i in range(1, 33):
            a = 0.125 * i
            slope = (_lomax_g(a + h, u) - _lomax_g(a - h, u)) / (2.0 * h)
            ok &= slope <= 1e-9
        gs = [_lomax_g(0.25 + k / 64.0, u) for k in range(241)]  # a in [0.25, 4]
        ok &= all(g0 - 2.0 * g1 + g2 >= -1e-12 for g0, g1, g2 in zip(gs, gs[1:], gs[2:]))
    assert _report(8, "Schur condition of the Lomax proof obligations", ok)
