"""Theorem harness: hypothesis predicates, conclusions, consistency."""

import dataclasses
import hashlib
import json
import re

import pytest

from ordrel import (
    Clayton,
    ConfigError,
    Exponential,
    GridSpec,
    Lomax,
    ParameterDomainError,
    ParetoI,
    ReflectedDFR,
    SystemSpec,
    TheoremCase,
    mixed_parallel,
    mixed_series,
    parallel_prhr,
    run_case,
    series_phr,
)
from ordrel import orders
from ordrel.harness import THEOREMS, grid_kind
from ordrel.serialize import load_case


def _t1_case(alphas=(1.0, 2.0, 0.5), betas=(1.5, 2.0, 1.0)):
    return TheoremCase("T1", {
        "system_x": series_phr(Lomax(1.0, 1.0), alphas),
        "system_y": series_phr(Lomax(2.0, 1.0), betas),
    }, n=128)


class TestSeriesDispersive:
    def test_satisfying_case(self):
        rep = run_case(_t1_case())
        assert rep.hypothesis_satisfied
        assert rep.conclusion_outcome == "holds"
        assert rep.consistent

    def test_sum_condition_violated_is_vacuous(self):
        rep = run_case(_t1_case(alphas=(2.0, 2.0, 2.0), betas=(0.5, 0.5, 0.5)))
        assert not rep.hypothesis_satisfied
        assert not rep.conditions["sum_beta_ge_sum_alpha"]
        assert rep.consistent  # vacuous cases are always consistent

    def test_heavy_lomax_passes_its_dfr_row(self):
        # Lomax states DFR and its hr order, so neither row reads a
        # quantile; the disp conclusion's quantiles overflow, so it is
        # inconclusive
        case = TheoremCase("T1", {
            "system_x": series_phr(Lomax(0.001), (1.0, 2.0)),
            "system_y": series_phr(Lomax(0.0015), (1.5, 2.0)),
        })
        rep = run_case(case)
        assert rep.conditions == {"sum_beta_ge_sum_alpha": True, "baseline_x_dfr": True,
                                  "baseline_y_hr_le_baseline_x": True}
        assert rep.hypothesis_satisfied and rep.consistent
        assert rep.conclusion_outcome == "inconclusive"

    def test_needs_series_systems(self):
        case = TheoremCase("T1", {
            "system_x": parallel_prhr(Lomax(1.0, 1.0), (1.0, 1.0)),
            "system_y": parallel_prhr(Lomax(2.0, 1.0), (1.0, 1.0)),
        })
        with pytest.raises(ParameterDomainError):
            run_case(case)


class TestParallelDispersive:
    def test_satisfying_case(self):
        rep = run_case(TheoremCase("T2", {
            "system_x": parallel_prhr(ReflectedDFR(Lomax(1.0, 1.0)), (1.0, 0.8)),
            "system_y": parallel_prhr(ReflectedDFR(Lomax(2.0, 1.0)), (1.5, 1.0)),
        }, n=128))
        assert rep.hypothesis_satisfied and rep.consistent
        assert rep.conditions["baseline_x_irhr"]


class TestOutlierCorollaries:
    def test_c1_expands_and_delegates(self):
        rep = run_case(TheoremCase("C1", {
            "baseline_x": Lomax(1.0, 1.0),
            "baseline_y": Lomax(2.0, 1.0),
            "outlier_x": {"p": 2, "q": 1, "a1": 0.5, "a2": 1.0},
            "outlier_y": {"p": 2, "q": 1, "a1": 1.0, "a2": 1.5},
        }, n=128))
        assert rep.id == "C1"
        assert rep.hypothesis_satisfied and rep.consistent

    def test_c2_expands_and_delegates(self):
        rep = run_case(TheoremCase("C2", {
            "baseline_x": ReflectedDFR(Lomax(1.0, 1.0)),
            "baseline_y": ReflectedDFR(Lomax(2.0, 1.0)),
            "outlier_x": {"p": 1, "q": 2, "a1": 0.5, "a2": 0.7},
            "outlier_y": {"p": 1, "q": 2, "a1": 0.8, "a2": 1.0},
        }, n=128))
        assert rep.id == "C2"
        assert rep.hypothesis_satisfied and rep.consistent

    def test_invalid_block_sizes(self):
        case = TheoremCase("C1", {
            "baseline_x": Lomax(1.0, 1.0),
            "baseline_y": Lomax(2.0, 1.0),
            "outlier_x": {"p": 0, "q": 1, "a1": 0.5, "a2": 1.0},
            "outlier_y": {"p": 2, "q": 1, "a1": 1.0, "a2": 1.5},
        })
        with pytest.raises(ParameterDomainError):
            run_case(case)

    @pytest.mark.parametrize("block,message", [
        ({"p": 2.7, "q": 1}, "outlier block p must be an integer, got 2.7"),
        ({"p": 2, "q": True}, "outlier block q must be an integer, got True"),
        ({"p": 2.0, "q": 1}, "outlier block p must be an integer, got 2.0"),
        ({"p": 2, "q": -1}, "outlier block q needs at least 0, got -1"),
    ], ids=["float-p", "bool-q", "integral-float-p", "negative-q"])
    def test_block_sizes_are_counts(self, block, message):
        # no block size is rounded into one: a report's case always loads
        case = TheoremCase("C1", {
            "baseline_x": Lomax(1.0, 1.0),
            "baseline_y": Lomax(2.0, 1.0),
            "outlier_x": {**block, "a1": 0.5, "a2": 1.0},
            "outlier_y": {"p": 2, "q": 1, "a1": 1.0, "a2": 1.5},
        })
        with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
            run_case(case)


class TestMixedBlocks:
    def test_t3_series_hazard_rate(self):
        f, g = Exponential(1.0), Lomax(1.5, 1.0)
        rep = run_case(TheoremCase("T3", {
            "system_x": mixed_series(f, (1.0, 1.0), g, (1.5,)),
            "system_y": mixed_series(f, (0.5, 0.5), g, (1.0,)),
        }, n=128))
        assert rep.hypothesis_satisfied and rep.consistent
        assert rep.conclusion_outcome == "holds"

    def test_t4_parallel_reversed_hazard(self):
        f, g = Lomax(1.5, 1.0), Exponential(1.0)
        rep = run_case(TheoremCase("T4", {
            "system_x": mixed_parallel(f, (1.0, 1.0), g, (1.5,)),
            "system_y": mixed_parallel(f, (0.5, 0.5), g, (1.0,)),
        }, n=128))
        assert rep.hypothesis_satisfied and rep.consistent


class TestStarOrder:
    def test_t5_pareto_baseline(self):
        rep = run_case(TheoremCase("T5", {
            "system_x": series_phr(ParetoI(1.5), (0.5, 0.5)),
            "system_y": series_phr(ParetoI(1.5), (1.0, 1.5)),
        }, n=128))
        assert rep.hypothesis_satisfied and rep.consistent
        assert rep.conditions["x_hazard_decreasing"]


class TestLomaxMaxima:
    def test_t6_with_supermajorization(self):
        rep = run_case(TheoremCase("T6", {
            "theta": 1.5,
            "alphas": (2.0, 2.0, 2.0),
            "alphas_star": (1.0, 2.0, 3.0),
        }, n=128))
        assert rep.hypothesis_satisfied and rep.consistent

    def test_t6_vacuous_when_not_supermajorized(self):
        rep = run_case(TheoremCase("T6", {
            "theta": 1.5,
            "alphas": (0.5, 0.5, 0.5),
            "alphas_star": (1.0, 2.0, 3.0),
        }, n=128))
        assert not rep.hypothesis_satisfied


class TestDependent:
    def _t7_scenario(self):
        return {
            "generator_x": Clayton(2.0),
            "generator_y": Clayton(1.0),
            "baseline_x": Exponential(1.0),
            "baseline_y": Exponential(1.5),
            "shifts_x": (0.2, 0.5),
            "shifts_y": (0.5, 0.8),
            "branch": "log_convex",
        }

    def test_t7_log_convex_branch(self):
        rep = run_case(TheoremCase("T7", self._t7_scenario(), n=128))
        assert rep.hypothesis_satisfied and rep.consistent
        assert rep.conditions["composition_super_additive"]

    def test_t7_composition_condition_can_fail(self):
        sc = self._t7_scenario()
        sc["generator_x"], sc["generator_y"] = sc["generator_y"], sc["generator_x"]
        sc["baseline_x"], sc["baseline_y"] = sc["baseline_y"], sc["baseline_x"]
        rep = run_case(TheoremCase("T7", sc, n=128))
        assert not rep.conditions["composition_super_additive"]
        assert not rep.hypothesis_satisfied

    def test_t8_log_convex_branch(self):
        rep = run_case(TheoremCase("T8", {
            "generator_x": Clayton(1.0),
            "generator_y": Clayton(2.0),
            "baseline_x": ReflectedDFR(Lomax(2.0, 1.0)),
            "baseline_y": ReflectedDFR(Lomax(1.0, 1.0)),
            "shifts_x": (0.2, 0.5),
            "shifts_y": (0.5, 0.8),
            "branch": "log_convex",
        }, n=128))
        assert rep.hypothesis_satisfied and rep.consistent

    def test_unknown_branch(self):
        sc = self._t7_scenario()
        sc["branch"] = "sideways"
        with pytest.raises(ParameterDomainError):
            run_case(TheoremCase("T7", sc))


def _c1_scenario(**outlier_x):
    return {"baseline_x": Lomax(1.0, 1.0), "baseline_y": Lomax(2.0, 1.0),
            "outlier_x": {"p": 2, "q": 1, "a1": 0.5, "a2": 1.0, **outlier_x},
            "outlier_y": {"p": 2, "q": 1, "a1": 1.0, "a2": 1.5}}


_T6_SCENARIO = {"theta": 1.0, "alphas": [2.0, 2.0, 2.0], "alphas_star": [1.0, 2.0, 3.0]}


class TestRealNumbers:
    # a scenario number that is no JSON number (a string or a bool) is
    # refused before any row runs: the case it would write does not load
    @pytest.mark.parametrize("tid,scenario,message", [
        ("C1", _c1_scenario(a1="0.5"), "outlier block a1 must be a real number, got '0.5'"),
        ("C1", _c1_scenario(a1=True), "outlier block a1 must be a real number, got True"),
        ("C1", _c1_scenario(q=0, a2=-1.0), "outlier block a2 must be strictly positive, got -1.0"),
        ("T6", {**_T6_SCENARIO, "theta": "1.5"}, "theta must be a real number, got '1.5'"),
        ("T6", {**_T6_SCENARIO, "alphas": [True, 2, 2]}, "alphas must be a real number, got True"),
        ("T7", {**TestDependent()._t7_scenario(), "shifts_x": ["0.2", 0.5]},
         "shifts_x must be a real number, got '0.2'"),
        ("Ex1", {"shape": "0.7"}, "shape must be a real number, got '0.7'"),
        ("Ex2", {"alphas_x": [1.0, True, 7.0]}, "alphas_x must be a real number, got True"),
    ], ids=["c1-string-a1", "c1-bool-a1", "c1-unused-negative-a2", "t6-string-theta",
            "t6-bool-alpha", "t7-string-shift", "ex1-string-shape", "ex2-bool-alpha"])
    def test_a_scenario_number_is_a_real_number(self, tid, scenario, message, monkeypatch):
        monkeypatch.setitem(THEOREMS, tid, dataclasses.replace(
            THEOREMS[tid], hypothesis=(("row", lambda s: pytest.fail("a row ran")),)))
        with pytest.raises(ParameterDomainError) as info:
            run_case(TheoremCase(tid, scenario))
        assert str(info.value) == message

    @pytest.mark.parametrize("build", [
        lambda p: series_phr(Lomax(1.0, 1.0), (1.0, p)),
        lambda p: mixed_parallel(Lomax(1.0, 1.0), (p,), Exponential(1.0), (1.0,)),
        lambda p: SystemSpec.from_json({"kind": "series_phr", "components": [
            {"baseline": {"family": "exponential", "params": {"rate": 1.0}}, "prop": p}]}),
    ], ids=["series_phr", "mixed_parallel", "from_json"])
    @pytest.mark.parametrize("prop", ["0.5", True])
    def test_a_prop_is_a_real_number(self, build, prop):
        with pytest.raises(ParameterDomainError, match=f"^prop must be a real number, got {prop!r}$"):
            build(prop)

    @pytest.mark.parametrize("tid,ints,floats", [
        ("C1", _c1_scenario(a1=1, a2=2), _c1_scenario(a1=1.0, a2=2.0)),
        ("T6", {"theta": 1, "alphas": [2, 2, 2], "alphas_star": [1, 2, 3]}, _T6_SCENARIO),
        ("T7", {**TestDependent()._t7_scenario(), "shifts_x": [0, 1]},
         {**TestDependent()._t7_scenario(), "shifts_x": [0.0, 1.0]}),
        ("Ex1", {"shape": 1, "rates_x": [2, 2, 1]}, {"shape": 1.0, "rates_x": [2.0, 2.0, 1.0]}),
    ], ids=["C1", "T6", "T7", "Ex1"])
    def test_int_numbers_run_as_their_floats_and_reload(self, tid, ints, floats):
        rep = run_case(TheoremCase(tid, ints, n=64))
        twin = run_case(TheoremCase(tid, floats, n=64)).to_json()
        assert {**rep.to_json(), "case": None} == {**twin, "case": None}
        rerun = run_case(load_case(json.loads(json.dumps(rep.case))))
        assert rerun.to_json() == rep.to_json()


# sha256 of the Ex1 and Ex2 report JSON at their default scenarios.  Every
# float sum adds left to right, so it is the same on every Python version.
EXAMPLE_REPORTS = "6a27e73c9127356686c09c2a391927372910f68e3876aac0f234c1611119563e"


class TestWorkedExamples:
    def test_ex1(self):
        rep = run_case(TheoremCase("Ex1", {}))
        assert rep.consistent and rep.conclusion_outcome == "holds"
        assert rep.conclusion["variance_x"] > rep.conclusion["variance_y"]

    def test_ex2(self):
        rep = run_case(TheoremCase("Ex2", {}))
        assert rep.consistent and rep.conclusion_outcome == "holds"
        assert rep.conclusion["variance_x"] < rep.conclusion["variance_y"]

    @pytest.mark.parametrize("tid,scenario", [
        ("Ex1", {"shape": 0.7, "rates_x": [2.0, 2.0, 0.9], "rates_y": [1.0, 3.0, 2.3]}),
        ("Ex2", {"alphas_x": [1.0, 4.0, 7.5]}),
    ])
    def test_another_configuration_is_vacuous(self, tid, scenario):
        # the reference variances hold for the defaults only
        rep = run_case(TheoremCase(tid, scenario))
        assert rep.conditions == {"default_configuration": False}
        assert rep.consistent and rep.conclusion_outcome == "fails"
        c = rep.conclusion
        assert c["numeric_variance_x"] == pytest.approx(c["variance_x"], rel=1e-3)
        assert (c["variance_x"] > c["variance_y"]) == (tid == "Ex1")

    @pytest.mark.parametrize("tid,scenario", [
        ("Ex1", {"shape": 0.7, "rates_x": (1.7, 2, 0.9), "rates_y": [1, 3, 2.3]}),
        ("Ex2", {"alphas_x": [1, 4, 7], "alphas_y": [1.2, 3.5, 7.2]}),
    ])
    def test_a_restated_default_is_the_default(self, tid, scenario):
        rep = run_case(TheoremCase(tid, scenario))
        assert rep.conditions == {"default_configuration": True}
        assert rep.consistent and rep.conclusion_outcome == "holds"

    @pytest.mark.parametrize("tid,scenario,message", [
        ("Ex1", {"rates_x": []}, "weibull_min_variance needs at least one rate"),
        ("Ex2", {"alphas_y": []}, "lomax_min_moments needs at least one shape"),
    ], ids=["Ex1", "Ex2"])
    def test_an_empty_vector_is_refused(self, tid, scenario, message):
        # only a file's schema refused [] (minItems); from Python it divided by 0
        with pytest.raises(ParameterDomainError) as info:
            run_case(TheoremCase(tid, scenario))
        assert str(info.value) == message

    def test_reports_are_pinned(self):
        digest = hashlib.sha256()
        for tid in ("Ex1", "Ex2"):
            report = run_case(TheoremCase(tid, {})).to_json()
            digest.update(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == EXAMPLE_REPORTS


class TestCaseObject:
    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterDomainError):
            TheoremCase("T99", {})

    # the registry's case rules hold for a case built in Python as for a
    # file case: the case is refused before any row runs
    @pytest.mark.parametrize("kwargs,message", [
        ({"scenario": {"system_x": series_phr(Lomax(1.0, 1.0), (1.0,))}},
         "T1 scenario missing fields: ['system_y']"),
        ({"scenario": {**_t1_case().scenario, "gamma": 2.0}},
         "T1 scenario has unknown fields: ['gamma']"),
        ({"scenario": _t1_case().scenario, "grids": {"disp_grid": GridSpec(kind="u")}},
         "T1 grids has unknown keys: ['disp_grid']; T1 reads ['hr', 'disp']"),
        ({"scenario": _t1_case().scenario, "grids": {"disp": GridSpec(kind="x")}},
         "T1 grid 'disp' needs kind 'u', got 'x'"),
    ], ids=["missing", "unknown", "grid-key", "grid-kind"])
    def test_a_python_case_obeys_the_case_rules(self, kwargs, message, monkeypatch):
        monkeypatch.setitem(THEOREMS, "T1", dataclasses.replace(
            THEOREMS["T1"], sides=lambda case: pytest.fail("a row ran")))
        with pytest.raises(ConfigError) as info:
            run_case(TheoremCase("T1", **kwargs))
        assert str(info.value) == message

    def test_a_python_case_obeys_the_length_rules(self):
        with pytest.raises(ConfigError, match="'alphas' needs at least 2 entries, got 1"):
            TheoremCase("T6", {"theta": 1.0, "alphas": (1.0,), "alphas_star": (2.0,)})
        sc = TestDependent()._t7_scenario()
        with pytest.raises(ConfigError, match="'shifts_y' needs 2 entries, one per dimension"):
            TheoremCase("T7", {**sc, "shifts_y": (0.5, 0.8, 0.9)})

    @pytest.mark.parametrize("n", [100.0, 100.5, True, "100", 63])
    def test_a_case_grid_size_is_an_int_of_at_least_64(self, n):
        # refused when the case is built, not in the middle of its rows
        with pytest.raises(ParameterDomainError, match="grid size n must be an integer"
                           if n != 63 else "at least 64 points"):
            TheoremCase("T1", _t1_case().scenario, n=n)

    def test_report_json_shape(self):
        rep = run_case(_t1_case())
        obj = rep.to_json()
        assert obj["id"] == "T1"
        assert obj["hypothesis"]["satisfied"] is True
        assert obj["consistent"] is True
        assert obj["case"]["scenario"]["system_x"]["kind"] == "series_phr"


def _lomax(shape):
    return {"family": "lomax", "params": {"shape": shape}}


def _reflected(inner):
    return {"family": "reflected_dfr", "params": {"inner": inner}}


def _exp(rate):
    return {"family": "exponential", "params": {"rate": rate}}


def _system(kind, components, split=None):
    obj = {"kind": kind, "components": [{"baseline": b, "prop": p} for b, p in components]}
    if split is not None:
        obj["split"] = split
    return obj


def _dependent(tid, generator_x, baseline_x, baseline_y, branch):
    return {"id": tid, "n": 128, "scenario": {
        "generator_x": generator_x, "generator_y": {"family": "clayton", "theta": 1.0},
        "baseline_x": baseline_x, "baseline_y": baseline_y,
        "shifts_x": [0.2, 0.5], "shifts_y": [0.5, 0.8], "branch": branch}}


_SERIES_DISP = ("sum_beta_ge_sum_alpha", "baseline_x_dfr", "baseline_y_hr_le_baseline_x")
_PARALLEL_DISP = ("baseline_x_irhr", "sum_beta_ge_sum_alpha", "baseline_x_rh_le_baseline_y")
_BLOCKS = ("front_sum_alpha_gt_beta", "back_sum_alpha_gt_beta")
_CONVEX = ("mu_submajorized_by_mu_star", "generator_x_log_convex", "baseline_x_{}",
           "baseline_y_st_le_baseline_x", "composition_super_additive")
_CONCAVE = ("mu_supermajorized_by_mu_star", "generator_x_log_concave", "baseline_x_{}",
            "baseline_x_st_le_baseline_y", "composition_super_additive")
_INDEPENDENCE = {"family": "independence"}
_CLAYTON = {"family": "clayton", "theta": 2.0}
_PARETO = {"family": "pareto1", "params": {"shape": 1.5}}

# One case per registry id, both branches of the dependent results: the
# conclusion's relation and the hypothesis condition names in report order,
# as released before the registry existed.
REPORT_FORMAT = {
    "T1": ({"id": "T1", "n": 128, "scenario": {
        "system_x": _system("series_phr", [(_lomax(1.0), 1.0), (_lomax(1.0), 2.0)]),
        "system_y": _system("series_phr", [(_lomax(2.0), 1.5), (_lomax(2.0), 2.0)])}},
        "disp", _SERIES_DISP),
    "C1": ({"id": "C1", "n": 128, "scenario": {
        "baseline_x": _lomax(1.0), "baseline_y": _lomax(2.0),
        "outlier_x": {"p": 2, "q": 1, "a1": 0.5, "a2": 1.0},
        "outlier_y": {"p": 2, "q": 1, "a1": 1.0, "a2": 1.5}}},
        "disp", _SERIES_DISP),
    "T2": ({"id": "T2", "n": 128, "scenario": {
        "system_x": _system("parallel_prhr", [(_reflected(_lomax(1.0)), 1.0)]),
        "system_y": _system("parallel_prhr", [(_reflected(_lomax(2.0)), 1.5)])}},
        "disp", _PARALLEL_DISP),
    "C2": ({"id": "C2", "n": 128, "scenario": {
        "baseline_x": _reflected(_lomax(1.0)), "baseline_y": _reflected(_lomax(2.0)),
        "outlier_x": {"p": 1, "q": 2, "a1": 0.5, "a2": 0.7},
        "outlier_y": {"p": 1, "q": 2, "a1": 0.8, "a2": 1.0}}},
        "disp", _PARALLEL_DISP),
    "T3": ({"id": "T3", "n": 128, "scenario": {
        "system_x": _system("series_phr", [(_exp(1.0), 1.0), (_lomax(1.5), 1.5)], 1),
        "system_y": _system("series_phr", [(_exp(1.0), 0.5), (_lomax(1.5), 1.0)], 1)}},
        "hr", _BLOCKS),
    "T4": ({"id": "T4", "n": 128, "scenario": {
        "system_x": _system("parallel_prhr", [(_lomax(1.5), 1.0), (_exp(1.0), 1.5)], 1),
        "system_y": _system("parallel_prhr", [(_lomax(1.5), 0.5), (_exp(1.0), 1.0)], 1)}},
        "rh", _BLOCKS),
    "T5": ({"id": "T5", "n": 128, "scenario": {
        "system_x": _system("series_phr", [(_PARETO, 0.5)]),
        "system_y": _system("series_phr", [(_PARETO, 1.0)])}},
        "star", ("sum_alpha_le_sum_beta", "x_hazard_decreasing")),
    "T6": ({"id": "T6", "n": 128, "scenario": {
        "theta": 1.5, "alphas": [2.0, 2.0, 2.0], "alphas_star": [1.0, 2.0, 3.0]}},
        "rh", ("alpha_supermajorized_by_alpha_star",)),
    "T7": (_dependent("T7", _CLAYTON, _exp(1.0), _exp(1.5), "log_convex"),
           "st", tuple(name.format("ifr") for name in _CONVEX)),
    "T7-log_concave": (_dependent("T7", _INDEPENDENCE, _lomax(1.5), _lomax(1.0), "log_concave"),
                       "st", tuple(name.format("dfr") for name in _CONCAVE)),
    "T8": (_dependent("T8", _CLAYTON, _reflected(_lomax(2.0)), _reflected(_lomax(1.0)),
                      "log_convex"),
           "st", tuple(name.format("irhr") for name in _CONVEX)),
    "T8-log_concave": (_dependent("T8", _INDEPENDENCE, _reflected(_lomax(1.0)),
                                  _reflected(_lomax(2.0)), "log_concave"),
                       "st", tuple(name.format("drhr") for name in _CONCAVE)),
    "Ex1": ({"id": "Ex1", "scenario": {}}, None, ("default_configuration",)),
    "Ex2": ({"id": "Ex2", "scenario": {"alphas_x": [1.0, 4.0, 7.0]}}, None,
            ("default_configuration",)),
}


# The grid key of each baseline-order row: a pair whose class states the
# order (`distributions.stated_order`) reads no grid for it.
_ORDER_ROW_KEY = {"T1": "hr", "C1": "hr", "T2": "rh", "C2": "rh", "T7": "st", "T8": "st"}
_UNSTATED = sorted(label for label in REPORT_FORMAT if label.split("-")[0] in _ORDER_ROW_KEY)


def as_weibull(obj):
    """`obj` with each Lomax baseline of shape a made Weibull(0.5, a) and
    each exponential of rate r Weibull(1.5, r): every ageing flag and
    every baseline order keep their truth, and no pair states its order."""
    if isinstance(obj, list):
        return [as_weibull(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    params = obj.get("params", {})
    if obj.get("family") == "lomax":
        return {"family": "weibull", "params": {"shape": 0.5, "rate": params["shape"]}}
    if obj.get("family") == "exponential":
        return {"family": "weibull", "params": {"shape": 1.5, "rate": params["rate"]}}
    return {k: as_weibull(v) for k, v in obj.items()}


class _RecordingGrids(dict):
    """An empty grids mapping that records every key a check looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _with_declared_grids(obj):
    """The case `obj` with a 64-point grid, of its kind, under each key its
    theorem declares."""
    return {**obj, "grids": {key: {"kind": grid_kind(key), "n": 64}
                             for key in THEOREMS[obj["id"]].grids}}


class TestRegistry:
    def test_report_format_covers_every_id(self):
        assert {obj["id"] for obj, _, _ in REPORT_FORMAT.values()} == set(THEOREMS)

    @pytest.mark.parametrize("label", sorted(REPORT_FORMAT))
    def test_report_format(self, label):
        obj, relation, names = REPORT_FORMAT[label]
        case = load_case(obj)
        grids = _RecordingGrids()
        rep = run_case(dataclasses.replace(case, grids=grids))
        assert rep.id == obj["id"] and rep.consistent
        assert rep.conclusion.get("relation") == relation
        assert tuple(rep.conditions) == names
        # the declared grid keys, less a stated order row's
        assert grids.read == set(THEOREMS[case.id].grids) - {_ORDER_ROW_KEY.get(case.id)}

    @pytest.mark.parametrize("label", _UNSTATED)
    def test_an_unstated_pair_reads_every_declared_key(self, label):
        obj, relation, names = REPORT_FORMAT[label]
        case = load_case(as_weibull(obj))
        grids = _RecordingGrids()
        rep = run_case(dataclasses.replace(case, grids=grids))
        assert rep.consistent and rep.conclusion.get("relation") == relation
        assert rep.conditions == run_case(load_case(obj)).conditions
        assert tuple(rep.conditions) == names
        assert grids.read == set(THEOREMS[case.id].grids)

    @pytest.mark.parametrize("baseline_y,calls", [(_lomax(2.0), 0), (_exp(2.0), 1)],
                             ids=["lomax-lomax", "lomax-exponential"])
    def test_only_an_unstated_pair_reaches_the_checker(self, baseline_y, calls, monkeypatch):
        # C1's hr row on Lomax(1) and baseline_y: a pair of two classes
        # states no order, and the row reads the checker on the hr grid
        seen, check_hr = [], orders.CHECKERS["hr"]

        def recording(*args):
            seen.append(args)
            return check_hr(*args)

        monkeypatch.setitem(orders.CHECKERS, "hr", recording)
        obj = REPORT_FORMAT["C1"][0]
        rep = run_case(load_case({**obj, "scenario": {**obj["scenario"],
                                                      "baseline_y": baseline_y}}))
        assert rep.conditions["baseline_y_hr_le_baseline_x"] is True
        assert len(seen) == calls
        assert all(grid == GridSpec(kind="x", n=128) for _, _, grid in seen)

    @pytest.mark.parametrize("label", sorted(REPORT_FORMAT))
    def test_each_row_feeds_the_verdict(self, label, monkeypatch):
        # forcing one hypothesis row to False changes that condition only,
        # and the case turns vacuous
        case = load_case(REPORT_FORMAT[label][0])
        theorem = THEOREMS[case.id]
        unforced = run_case(case).conditions
        for i, (name, _) in enumerate(theorem.hypothesis):
            rows = list(theorem.hypothesis)
            rows[i] = (name, lambda sides: False)
            monkeypatch.setitem(THEOREMS, case.id,
                                dataclasses.replace(theorem, hypothesis=tuple(rows)))
            rep = run_case(case)
            forced = list(unforced)[i]
            assert rep.conditions == {**unforced, forced: False}
            assert tuple(rep.conditions) == tuple(unforced)
            assert not rep.hypothesis_satisfied and rep.consistent

    def test_an_overflow_names_its_row(self, monkeypatch):
        # the case id and the row (or "conclusion") go in front of the
        # message that the overflow carries last
        theorem = THEOREMS["T1"]

        def overflow(*args):
            raise OverflowError(34, "Numerical result out of range")

        name = theorem.hypothesis[1][0]
        rows = (theorem.hypothesis[0], (name, overflow), *theorem.hypothesis[2:])
        monkeypatch.setitem(THEOREMS, "T1", dataclasses.replace(theorem, hypothesis=rows))
        with pytest.raises(OverflowError,
                           match=f"^T1 {re.escape(name)}: Numerical result out of range$"):
            run_case(_t1_case())
        monkeypatch.setitem(THEOREMS, "T1", theorem)
        monkeypatch.setitem(orders.CHECKERS, theorem.conclusion[0], overflow)
        with pytest.raises(OverflowError, match="^T1 conclusion: Numerical result out of range$"):
            run_case(_t1_case())

    @pytest.mark.parametrize("label", sorted(REPORT_FORMAT))
    def test_declared_grid_kinds_run(self, label):
        # every declared key, set in a spec with its declared kind, loads
        # and runs: a u-grid where a check needs an x-grid would raise
        obj, _, names = REPORT_FORMAT[label]
        rep = run_case(load_case(_with_declared_grids(obj)))
        assert tuple(rep.conditions) == names

    @pytest.mark.parametrize("label", sorted(REPORT_FORMAT))
    def test_report_case_reruns_the_case(self, label):
        # a report's case, grids included, loads back into the case it ran
        rep = run_case(load_case(_with_declared_grids(REPORT_FORMAT[label][0])))
        rerun = run_case(load_case(json.loads(json.dumps(rep.case))))
        assert rerun.to_json() == rep.to_json()


class TestRetiredGridKeys:
    # the ageing and x*r(x) rows read what the baseline states, on no grid,
    # so a case that sets an "ageing" or "xr" grid is refused when it loads
    @pytest.mark.parametrize("label,key", [
        *((label, "ageing") for label in ("T1", "C1", "T2", "C2", "T7", "T8")), ("T5", "xr")])
    def test_a_retired_key_is_refused(self, label, key):
        obj = REPORT_FORMAT[label][0]
        message = rf"^{obj['id']} grids has unknown keys: \['{key}'\]"
        with pytest.raises(ConfigError, match=message):
            load_case({**obj, "grids": {key: {"kind": "x", "n": 64}}})
