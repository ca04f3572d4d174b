"""Configuration scans: determinism, counting, strategies."""

import dataclasses
import hashlib
import importlib
import json
import math

import pytest

from ordrel import ConfigError, ParameterDomainError, ParetoI, ReflectedDFR, Weibull, scan
from ordrel import orders
from ordrel.harness import SCAN_IDS, THEOREMS, TheoremReport
from ordrel.orders import FAILS, HOLDS
from ordrel.serialize import load_case, load_scan_config


class TestScan:
    def test_counts_add_up(self):
        r = scan("T1", budget=20, seed=5)
        c = r.counts
        assert c["total"] == 20 == len(r.reports)
        assert (c["satisfied_holds"] + c["vacuous"] + c["inconsistent"]
                + c["inconclusive"]) == c["total"]

    def test_mixes_vacuous_cases_in(self):
        r = scan("T3", budget=20, seed=5)
        assert 0 < r.counts["vacuous"] < 20

    def test_seed_reproducible(self):
        a = scan("T5", budget=10, seed=42)
        b = scan("T5", budget=10, seed=42)
        assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]

    def test_seeds_differ(self):
        a = scan("T5", budget=10, seed=1)
        b = scan("T5", budget=10, seed=2)
        assert [r.to_json() for r in a.reports] != [r.to_json() for r in b.reports]

    def test_grid_strategy_deterministic(self):
        a = scan("T6", budget=12, strategy="grid", seed=0)
        b = scan("T6", budget=12, strategy="grid", seed=99)  # seed unused
        assert a.counts["total"] == 12
        assert [r.to_json() for r in a.reports] == [r.to_json() for r in b.reports]

    @pytest.mark.parametrize("tid", SCAN_IDS)
    def test_grid_strategy_spreads_every_knob(self, tid):
        names = sorted(THEOREMS[tid].box)
        stream = importlib.import_module("ordrel.scan")._knob_stream(names, "grid", 0, 150)
        points = list(stream)
        assert len(points) == 150
        for name in names:
            values = {p[name] for p in points}
            assert len(values) == 150, name
            assert all(0.0 < v < 1.0 for v in values), name

    @pytest.mark.parametrize("tid", SCAN_IDS)
    def test_grid_scan_is_clean(self, tid):
        c = scan(tid, budget=150, strategy="grid").counts
        assert c["inconsistent"] == 0
        assert 0 < c["vacuous"] < c["satisfied_holds"]

    def test_box_override(self):
        r = scan("T1", budget=5, seed=0, box={"f_shape": (1.0, 1.0)})
        for rep in r.reports:
            comp = rep.case["scenario"]["system_x"]["components"][0]
            assert comp["baseline"]["params"]["shape"] == pytest.approx(1.0)

    def test_a_heavy_lomax_box_finishes(self):
        # Lomax states its hr order, so no x-grid bound (the 1 - 1e-4
        # quantile, beyond the float range) is solved for the hr row; the
        # disp conclusions whose quantiles overflow are inconclusive
        c = scan("T1", box={"f_shape": (0.001, 0.01)}, budget=150, seed=7).counts
        assert c == {"total": 150, "satisfied_holds": 74, "vacuous": 45,
                     "inconsistent": 0, "inconclusive": 31}

    @pytest.mark.parametrize("box", [{"f_shap": (1.0, 2.0)}, {"a1": (3.0, -1.0)},
                                     {"f_shape": (0.5, math.inf)}, {"a1": (-math.inf, 1.0)},
                                     {"a1": (True, 2.0)}, {"a1": (1.0,)},
                                     {"a1": (1.0, 2.0, 3.0)}, {"a1": 5}],
                             ids=["unknown-knob", "lo-above-hi", "hi-inf", "lo-minus-inf",
                                  "lo-bool", "one-bound", "three-bounds", "no-pair"])
    def test_malformed_box_rejected_before_any_case(self, box, monkeypatch):
        def no_case(case):
            raise AssertionError("a case ran")

        monkeypatch.setattr(importlib.import_module("ordrel.scan"), "run_case", no_case)
        with pytest.raises(ConfigError):
            scan("T1", budget=5, seed=0, box=box)

    @pytest.mark.parametrize("budget,message", [
        (True, "scan budget must be an integer, got True"),
        (2.5, "scan budget must be an integer, got 2.5"),
        (-3, "scan budget needs at least 0, got -3"),
    ], ids=["bool", "float", "negative"])
    def test_budget_is_a_count(self, budget, message, monkeypatch):
        def no_case(case):
            raise AssertionError("a case ran")

        monkeypatch.setattr(importlib.import_module("ordrel.scan"), "run_case", no_case)
        with pytest.raises(ParameterDomainError, match=f"^{message}$"):
            scan("T1", budget=budget)

    @pytest.mark.parametrize("seed", [2.5, True, "abc"], ids=["float", "bool", "string"])
    def test_seed_is_an_integer(self, seed, monkeypatch):
        # refused before any case runs: the scan_config schema reads an integer
        def no_case(case):
            raise AssertionError("a case ran")

        monkeypatch.setattr(importlib.import_module("ordrel.scan"), "run_case", no_case)
        with pytest.raises(ParameterDomainError, match=f"^scan seed must be an integer, got {seed!r}$"):
            scan("T1", budget=2, seed=seed)

    def test_a_negative_seed_runs_and_reruns_from_its_config(self):
        r = scan("T1", budget=2, seed=-3)
        cfg = load_scan_config({"id": r.id, "strategy": r.strategy, "seed": r.seed,
                                "budget": r.budget})
        assert len(r.reports) == 2 and scan(**cfg).to_json() == r.to_json()

    def test_budget_zero_runs_no_case(self):
        r = scan("T1", budget=0)
        assert r.reports == () and r.to_json()["budget"] == 0

    def test_unknown_theorem(self):
        with pytest.raises(ParameterDomainError):
            scan("Ex1", budget=1)

    def test_unknown_strategy(self):
        with pytest.raises(ParameterDomainError):
            scan("T1", budget=1, strategy="sobol")

    def test_inconsistent_property_empty_on_clean_scan(self):
        r = scan("T2", budget=10, seed=0)
        assert r.counts["inconsistent"] == 0

    def test_all_samplers_produce_valid_cases(self):
        for tid in SCAN_IDS:
            r = scan(tid, budget=4, seed=3)
            assert r.counts["inconsistent"] == 0

    @pytest.mark.parametrize("tid", SCAN_IDS)
    def test_reversed_conclusion_is_caught(self, tid, monkeypatch):
        """Negative control: with only the conclusion's A and B swapped,
        every case whose hypothesis holds must come out inconsistent."""
        theorem = THEOREMS[tid]
        rel, a, b = theorem.conclusion
        monkeypatch.setitem(THEOREMS, tid, dataclasses.replace(theorem, conclusion=(rel, b, a)))
        c = scan(tid, budget=30, seed=7).counts
        assert c["vacuous"] < c["total"]
        assert c["inconsistent"] == c["total"] - c["vacuous"]
        assert c["satisfied_holds"] == 0

    def test_json_shape(self):
        r = scan("T4", budget=3, seed=0)
        obj = r.to_json()
        assert obj["id"] == "T4" and obj["budget"] == 3
        assert len(obj["reports"]) == 3


# sha256 of the verdicts of the T1-T8 scans at budget 150, seed 7, recorded
# before the hr/rh checks moved onto rate sweeps.  A change to the samplers'
# random streams changes it; record the new value with the change.
SCAN_VERDICTS_SEED_7 = "1e6f3bc5e801aa2c132882a49ab1c6c7abe0ea35d5438c10927707542e7a3efb"


# sha256 of the whole report JSON of the same scans.  Every float sum adds
# left to right, so it is the same on every Python version.
SCAN_REPORTS_SEED_7 = "b472056f6b44be87bfc12d9b4def66e44ec6667507745805800527e4f2b7b768"


@pytest.fixture(scope="module")
def acceptance_scans():
    """The T1-T8 scans at budget 150, seed 7."""
    return [scan(tid, budget=150, seed=7) for tid in SCAN_IDS]


def test_scan_verdicts_are_pinned(acceptance_scans):
    """Every report's id, hypothesis, outcome and conditions, and the
    counts, of the acceptance scans."""
    digest = hashlib.sha256()
    for r in acceptance_scans:
        rows = [(rep.id, rep.hypothesis_satisfied, rep.conclusion_outcome, rep.conditions)
                for rep in r.reports]
        digest.update(json.dumps([rows, r.counts], sort_keys=True).encode())
    assert digest.hexdigest() == SCAN_VERDICTS_SEED_7


def test_scan_reports_are_pinned(acceptance_scans):
    """Every float the acceptance scans report, not only the verdicts."""
    digest = hashlib.sha256()
    for r in acceptance_scans:
        digest.update(json.dumps(r.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == SCAN_REPORTS_SEED_7


@pytest.mark.parametrize("strategy,seed", [("random", 1), ("random", 13), ("grid", 1)])
@pytest.mark.parametrize("tid", SCAN_IDS)
def test_samplers_violate_exactly_the_scheduled_configurations(tid, strategy, seed):
    """The samplers' contract: the last 3 of every 10 configurations break
    the hypothesis and every other one satisfies it.  Halton points do not
    depend on the seed, so one grid seed covers the grid strategy."""
    reports = scan(tid, budget=30, seed=seed, strategy=strategy).reports
    assert [r.hypothesis_satisfied for r in reports] == [i % 10 < 7 for i in range(30)]


# sha256 of the case JSON of every report of the T1-T8 scans at budget 150,
# seed 7 at random and seed 1 on the grid.  The samplers sum left to right,
# so it is the same on every Python version.
SAMPLER_STREAMS = "4541334904a55f60f24f064c9a97520c94a5110db0053ccb944ba53aee05f0c9"


def test_sampler_streams_are_pinned(monkeypatch):
    """The scans' inputs, drawn through the registry samplers; no case runs."""
    def record(case):
        return TheoremReport(case.id, {}, True, {}, HOLDS, True, case.to_json())

    monkeypatch.setattr(importlib.import_module("ordrel.scan"), "run_case", record)
    digest = hashlib.sha256()
    for strategy, seed in (("random", 7), ("grid", 1)):
        for tid in SCAN_IDS:
            for rep in scan(tid, budget=150, seed=seed, strategy=strategy).reports:
                digest.update(json.dumps(rep.case, sort_keys=True).encode())
    assert digest.hexdigest() == SAMPLER_STREAMS


def _exact_conclusion(sides):
    """(Y <= X, X <= Y) in a T1/T2/T5 conclusion's order, in closed form.
    A series PHR system on Lomax(a, s) with props alpha is Lomax(a*sum(alpha),
    s), and a parallel PRHR system on its reflection is the reflection of
    that; on one scale, Y <=disp X iff g*sum(beta) >= f*sum(alpha), for the
    reflections too.  On Pareto I(p) the system is Pareto I(p*sum(alpha)),
    and Y <=* X iff sum(beta) >= sum(alpha).  T5's Weibull violation is a
    same-shape scale pair, which is star-ordered both ways."""
    f, g = sides["baseline_x"], sides["baseline_y"]
    sum_x, sum_y = sides["system_x"].prop_sum(), sides["system_y"].prop_sum()
    if isinstance(f, Weibull):
        return True, True
    if isinstance(f, ParetoI):
        return sum_y >= sum_x, sum_x >= sum_y
    f, g = (d.inner if isinstance(d, ReflectedDFR) else d for d in (f, g))
    assert f.scale == g.scale
    return g.shape * sum_y >= f.shape * sum_x, f.shape * sum_x >= g.shape * sum_y


# The grid strategy's Halton points do not depend on the seed.
@pytest.mark.parametrize("strategy,seed", [("random", 1), ("random", 7), ("random", 13),
                                           ("grid", 1)])
@pytest.mark.parametrize("tid", ["T1", "T2", "T5"])
def test_single_baseline_scans_match_their_closed_forms(tid, strategy, seed):
    """Every T1/T2/T5 scan compares two members of one closed-form family:
    each conclusion, and its reversal on the case's own grid, is the exact
    answer."""
    theorem = THEOREMS[tid]
    rel, a, b = theorem.conclusion
    for rep in scan(tid, budget=150, seed=seed, strategy=strategy).reports:
        case = load_case(rep.case)
        sides = theorem.sides(case)
        forward, reverse = _exact_conclusion(sides)
        assert rep.conclusion_outcome == (HOLDS if forward else FAILS), rep.case
        reversal = orders.CHECKERS[rel](sides[b], sides[a], case.grid(rel))
        assert reversal.outcome == (HOLDS if reverse else FAILS), rep.case
        # T5's scan cannot produce a failing conclusion, in a vacuous case
        # or any other: it has no power until a sampler leaves the closed
        # forms (the exact-reference item of ROADMAP.md)
        assert forward or tid != "T5"
