"""Configuration scans: determinism, counting, strategies."""

import dataclasses
import importlib

import pytest

from ordrel import ConfigError, ParameterDomainError, scan
from ordrel.harness import SCAN_IDS, THEOREMS


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

    @pytest.mark.parametrize("box", [{"f_shap": (1.0, 2.0)}, {"a1": (3.0, -1.0)}],
                             ids=["unknown-knob", "lo-above-hi"])
    def test_malformed_box_rejected_before_any_case(self, box, monkeypatch):
        def no_case(case):
            raise AssertionError("a case ran")

        monkeypatch.setattr(importlib.import_module("ordrel.scan"), "run_case", no_case)
        with pytest.raises(ConfigError):
            scan("T1", budget=5, seed=0, box=box)

    def test_unknown_theorem(self):
        with pytest.raises(ParameterDomainError):
            scan("Ex1", budget=1)

    def test_unknown_strategy(self):
        with pytest.raises(ParameterDomainError):
            scan("T1", budget=1, strategy="sobol")

    def test_inconsistent_property_empty_on_clean_scan(self):
        r = scan("T2", budget=10, seed=0)
        assert r.inconsistent == ()

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
