"""Command-line interface: subcommands, exit codes, output formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordrel
from ordrel.cli import main
from conftest import (BAD_LENGTH_FIELDS, BAD_SCALAR_FIELDS, T5_XR_OUTSIDE_SUPPORT,
                      T6_UNKNOWN_GRID, T6_WRONG_GRID_KIND, T7_CLAYTON_FRANK,
                      T7_LARGE_FRANK, T7_NEGATIVE_FRANK_DIM_3, T7_OUT_OF_FLOAT_RANGE,
                      run_cli, run_python)

EXP1 = {"family": "exponential", "params": {"rate": 2.0}}
EXP2 = {"family": "exponential", "params": {"rate": 1.0}}
T6 = {"id": "T6", "scenario": {"theta": 1.5, "alphas": [2.0, 2.0], "alphas_star": [1.0, 2.5]}}


@pytest.fixture
def spec_file(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


class TestDist:
    def test_csv_points(self, spec_file, capsys):
        path = spec_file("d.json", EXP1)
        assert main(["dist", "-s", path, "--fn", "sf", "--x", "0.5", "--x", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,value"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.36787944117, rel=1e-9)

    def test_json_format(self, spec_file, capsys):
        path = spec_file("d.json", EXP1)
        assert main(["dist", "-s", path, "--fn", "cdf", "--x", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["x"] == 1.0

    def test_system_spec(self, spec_file, capsys):
        path = spec_file("s.json", {"kind": "series_phr", "components": [
            {"baseline": EXP1, "prop": 1.0}, {"baseline": EXP2, "prop": 1.0}]})
        assert main(["dist", "-s", path, "--fn", "hazard", "--x", "1"]) == 0
        out = capsys.readouterr().out
        assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(3.0)

    def test_grid_file(self, spec_file, capsys):
        dpath = spec_file("d.json", EXP1)
        gpath = spec_file("g.json", {"kind": "x", "lo": 0.0, "hi": 1.0, "n": 64})
        assert main(["dist", "-s", dpath, "--fn", "sf", "--grid", gpath]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 65

    def test_no_points_is_usage_error(self, spec_file, capsys):
        path = spec_file("d.json", EXP1)
        assert main(["dist", "-s", path, "--fn", "sf"]) == 2

    def test_out_file(self, spec_file, tmp_path):
        path = spec_file("d.json", EXP1)
        out = tmp_path / "out.csv"
        assert main(["dist", "-s", path, "--fn", "sf", "--x", "1",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("x,value")

    def test_unwritable_out_is_usage_error(self, spec_file, tmp_path, capsys):
        path = spec_file("d.json", EXP1)
        out = tmp_path / "missing" / "x.csv"
        assert main(["dist", "-s", path, "--fn", "sf", "--x", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestOrder:
    def test_holds_exit_zero(self, spec_file, capsys):
        a, b = spec_file("a.json", EXP1), spec_file("b.json", EXP2)
        assert main(["order", "--relation", "hr", "-s", a, "-s", b]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "holds"

    def test_fails_exit_one(self, spec_file, capsys):
        a, b = spec_file("a.json", EXP2), spec_file("b.json", EXP1)
        assert main(["order", "--relation", "st", "-s", a, "-s", b]) == 1
        assert json.loads(capsys.readouterr().out)["outcome"] == "fails"

    def test_inconclusive_exit_three(self, spec_file, capsys):
        a, b = spec_file("a.json", EXP1), spec_file("b.json", EXP2)
        g = spec_file("g.json", {"kind": "x", "lo": 400.0, "hi": 500.0, "n": 64})
        assert main(["order", "--relation", "hr", "-s", a, "-s", b,
                     "--grid", g]) == 3

    @pytest.mark.parametrize("relation", ["star", "disp"])
    def test_overflowing_quantile_exit_three(self, spec_file, capsys, relation):
        # Pareto-I quantiles (1-u)**(-1/shape) overflow a float for tiny shapes
        a = spec_file("a.json", {"family": "pareto1", "params": {"shape": 0.005}})
        b = spec_file("b.json", {"family": "pareto1", "params": {"shape": 0.004}})
        g = spec_file("g.json", {"kind": "u", "n": 64})
        assert main(["order", "--relation", relation, "-s", a, "-s", b, "--grid", g]) == 3
        assert json.loads(capsys.readouterr().out)["outcome"] == "inconclusive"

    def test_infinite_tolerance_is_usage_error(self, spec_file, capsys):
        # Exp(1) <=_st Exp(2) fails; an infinite tau_pt would forgive it
        a, b = spec_file("a.json", EXP2), spec_file("b.json", EXP1)
        g = spec_file("g.json", {"kind": "x", "n": 64, "tau_pt": float("inf")})
        assert main(["order", "--relation", "st", "-s", a, "-s", b, "--grid", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tau_pt must be strictly positive, got inf\n"

    def test_another_kinds_grid_field_is_usage_error(self, spec_file, capsys):
        a, b = spec_file("a.json", EXP1), spec_file("b.json", EXP2)
        g = spec_file("g.json", {"kind": "u", "hi": 2.0, "n": 64})
        assert main(["order", "--relation", "disp", "-s", a, "-s", b, "--grid", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a u-grid takes no lo or hi, got lo=None, hi=2.0\n"

    def test_one_spec_is_usage_error(self, spec_file):
        a = spec_file("a.json", EXP1)
        assert main(["order", "--relation", "st", "-s", a]) == 2


class TestTheorem:
    def test_consistent_case(self, spec_file, capsys):
        path = spec_file("c.json", {"id": "T6", "scenario": {
            "theta": 1.5, "alphas": [2.0, 2.0], "alphas_star": [1.0, 2.5]}})
        assert main(["theorem", "-s", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["consistent"] is True

    def test_a_component_level_rounding_to_one_is_solved(self, spec_file, capsys):
        # sum p = 0.1: the x-grid's component level 1-(1e-4)**10 rounds to 1
        lomax = _baseline("lomax", shape=2.0, scale=1.0)
        path = spec_file("c.json", {"id": "T1", "scenario": {
            "system_x": _system((lomax, 0.05), (lomax, 0.05)),
            "system_y": _system((lomax, 0.1), (lomax, 0.1))}})
        assert main(["theorem", "-s", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"] == {"satisfied": True, "conditions": {
            "baseline_x_dfr": True, "baseline_y_hr_le_baseline_x": True,
            "sum_beta_ge_sum_alpha": True}}
        assert (report["conclusion_outcome"], report["consistent"]) == ("holds", True)

    def test_csv_summary(self, spec_file, capsys):
        path = spec_file("c.json", {"id": "Ex2", "scenario": {}})
        assert main(["theorem", "-s", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("id,hypothesis_satisfied")
        assert lines[1].startswith("Ex2,True")

    def test_clayton_frank_composition_runs(self, spec_file, capsys):
        assert main(["theorem", "-s", spec_file("c.json", T7_CLAYTON_FRANK)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["conditions"]["composition_super_additive"] is True

    def test_large_frank_theta_runs(self, spec_file, capsys):
        # psi(0) = 1 although 1 - e^-40 rounds to 1
        assert main(["theorem", "-s", spec_file("c.json", T7_LARGE_FRANK)]) == 0
        assert capsys.readouterr().err == ""

    def test_negative_frank_above_dimension_2_exit_two(self, spec_file, capsys):
        assert main(["theorem", "-s", spec_file("c.json", T7_NEGATIVE_FRANK_DIM_3)]) == 2
        assert "2-monotone" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(T7_OUT_OF_FLOAT_RANGE))
    def test_generator_theta_out_of_float_range_exit_two(self, spec_file, capsys, name):
        assert main(["theorem", "-s", spec_file("c.json", T7_OUT_OF_FLOAT_RANGE[name])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("name", ["frank_-800", "clayton_2000"])
    def test_an_overflow_names_its_row(self, spec_file, capsys, name):
        assert main(["theorem", "-s", spec_file("c.json", T7_OUT_OF_FLOAT_RANGE[name])]) == 2
        assert capsys.readouterr().err.startswith("error: T7 composition_super_additive: ")

    def test_schema_violation_exit_two(self, spec_file, capsys):
        path = spec_file("c.json", {"id": "T6", "scenario": {"theta": 1.0}})
        assert main(["theorem", "-s", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,obj", list(BAD_SCALAR_FIELDS.items()))
    def test_bad_scalar_field_exit_two(self, spec_file, capsys, field, obj):
        path = spec_file("c.json", obj)
        assert main(["theorem", "-s", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and repr(field) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field,obj", list(BAD_LENGTH_FIELDS.items()))
    def test_bad_length_field_exit_two(self, spec_file, capsys, field, obj):
        path = spec_file("c.json", obj)
        assert main(["theorem", "-s", path]) == 2
        captured = capsys.readouterr()
        assert f"error: {obj['id']} scenario field {field!r} needs " in captured.err
        assert captured.out == ""

    def test_unknown_grid_key_exit_two(self, spec_file, capsys):
        path = spec_file("c.json", T6_UNKNOWN_GRID)
        assert main(["theorem", "-s", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "rh_grid" in captured.err
        assert captured.out == ""

    def test_wrong_grid_kind_exit_two(self, spec_file, capsys):
        path = spec_file("c.json", T6_WRONG_GRID_KIND)
        assert main(["theorem", "-s", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "T6 grid 'rh' needs kind 'x'" in captured.err
        assert captured.out == ""

    def test_grid_outside_support_exit_two(self, spec_file, capsys):
        # T5 reads no x*r(x) grid, so the grid is refused by its key
        path = spec_file("c.json", T5_XR_OUTSIDE_SUPPORT)
        assert main(["theorem", "-s", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "unknown keys: ['xr']" in captured.err
        assert captured.out == ""

    def test_another_configuration_is_vacuous(self, spec_file, capsys):
        # the reference variances hold for the defaults only: exit 0, vacuous
        path = spec_file("c.json", {"id": "Ex1", "scenario": {
            "shape": 0.7, "rates_x": [2.0, 2.0, 0.9], "rates_y": [1.0, 3.0, 2.3]}})
        assert main(["theorem", "-s", path, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "Ex1,False,default_configuration=False,fails,True")

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert main(["theorem", "-s", str(p)]) == 2
        assert "error:" in capsys.readouterr().err


def _baseline(family, **params):
    return {"family": family, "params": params}


def _system(*components, kind="series_phr", split=None):
    out = {"kind": kind,
           "components": [{"baseline": b, "prop": p} for b, p in components]}
    return out if split is None else {**out, "split": split}


_LOMAX_1, _LOMAX_2 = _baseline("lomax", shape=1.0), _baseline("lomax", shape=2.0)
_EXP = _baseline("exponential", rate=1.0)
_PARETO_15, _PARETO_25 = _baseline("pareto1", shape=1.5), _baseline("pareto1", shape=2.5)
_REFLECTED_1, _REFLECTED_2 = (_baseline("reflected_dfr", inner=lomax)
                              for lomax in (_LOMAX_1, _LOMAX_2))
# an x-grid under the "ageing" key, which no theorem reads
_AGEING_GRID = {"ageing": {"kind": "x", "lo": 0.0, "hi": 5.0, "n": 64}}
_T7 = T7_CLAYTON_FRANK["scenario"]

# Specs the CLI refuses once loaded, each with the one error line it prints:
# {"case": theorem case} runs `theorem`, {"grid": grid} an st `order` call.
REFUSALS = {
    "t1_mixed_system": ({"case": {"id": "T1", "scenario": {
        "system_x": _system((_LOMAX_1, 1.0), (_EXP, 2.0)),
        "system_y": _system((_LOMAX_2, 1.5), (_LOMAX_2, 2.0))}}},
        "T1 needs single-baseline systems"),
    "t5_two_baselines": ({"case": {"id": "T5", "scenario": {
        "system_x": _system((_PARETO_15, 0.5), (_PARETO_15, 0.5)),
        "system_y": _system((_PARETO_25, 1.0), (_PARETO_25, 1.5))}}},
        "T5 needs one common baseline"),
    "t5_reflected_baseline": ({"case": {"id": "T5", "scenario": {
        "system_x": _system((_REFLECTED_2, 0.5), (_REFLECTED_2, 0.5)),
        "system_y": _system((_REFLECTED_2, 1.0), (_REFLECTED_2, 1.5))}}},
        "T5 needs a baseline on [0, inf): the star order compares positive lifetimes"),
    "t1_ageing_grid": ({"case": {"id": "T1", "scenario": {
        "system_x": _system((_LOMAX_1, 1.0), (_LOMAX_1, 2.0)),
        "system_y": _system((_LOMAX_2, 1.5), (_LOMAX_2, 2.0))}, "grids": _AGEING_GRID}},
        "T1 grids has unknown keys: ['ageing']; T1 reads ['hr', 'disp']"),
    "t2_ageing_grid": ({"case": {"id": "T2", "scenario": {
        "system_x": _system((_REFLECTED_1, 1.0), (_REFLECTED_1, 2.0), kind="parallel_prhr"),
        "system_y": _system((_REFLECTED_2, 1.5), (_REFLECTED_2, 2.0), kind="parallel_prhr")},
        "grids": _AGEING_GRID}},
        "T2 grids has unknown keys: ['ageing']; T2 reads ['rh', 'disp']"),
    "t3_unsplit": ({"case": {"id": "T3", "scenario": {
        "system_x": _system((_EXP, 1.0), (_LOMAX_2, 2.0)),
        "system_y": _system((_EXP, 1.5), (_LOMAX_2, 2.0))}}},
        "mixed-baseline theorem needs split systems"),
    # the schema leaves split and theta to the classes, which refuse these
    "split_zero": ({"case": {"id": "T3", "scenario": {
        "system_x": _system((_EXP, 1.0), (_LOMAX_2, 2.0), split=0),
        "system_y": _system((_EXP, 1.5), (_LOMAX_2, 2.0), split=1)}}},
        "T3 scenario field 'system_x': split needs at least 1, got 0"),
    "t7_string_theta": ({"case": {"id": "T7", "scenario": {
        **_T7, "generator_x": {"family": "clayton", "theta": "2.0"}}}},
        "T7 scenario field 'generator_x': Clayton theta must be a real number, got '2.0'"),
    "t7_null_frank_theta": ({"case": {"id": "T7", "scenario": {
        **_T7, "generator_y": {"family": "frank", "theta": None}}}},
        "T7 scenario field 'generator_y': Frank theta must be a real number, got None"),
    "t6_lengths": ({"case": {"id": "T6", "scenario": {
        "theta": 1.5, "alphas": [2.0, 2.0], "alphas_star": [1.0, 2.0, 3.0]}}},
        "T6 needs equal-length shape vectors"),
    "split_block_two_baselines": ({"case": {"id": "T3", "scenario": {
        "system_x": _system((_EXP, 1.0), (_LOMAX_2, 2.0), (_EXP, 1.0), split=1),
        "system_y": _system((_EXP, 1.5), (_LOMAX_2, 2.0), split=1)}}},
        "T3 scenario field 'system_x': each split block must share one baseline"),
    "reversed_grid_bounds": ({"grid": {"kind": "x", "lo": 5.0, "hi": 1.0, "n": 64}},
                             "bad grid bounds [5.0, 1.0]"),
    # finite bounds whose distance overflows: Exp(1) <=_st Exp(2) was judged
    # at x = inf alone and read holds
    "overflowing_grid_width": ({"grid": {"kind": "x", "lo": -1e308, "hi": 1e308, "n": 64}},
                               "bad grid bounds [-1e+308, 1e+308]"),
    # Clayton(2000) against Clayton(1000): the rows read closed forms, and
    # phi overflows at a grid point of the st conclusion inside the grid,
    # ahead of any violation
    "t7_clayton_2000_conclusion": ({"case": {"id": "T7", "scenario": {
        **_T7, "generator_x": {"family": "clayton", "theta": 2000.0},
        "generator_y": {"family": "clayton", "theta": 1000.0}}}},
        "T7 conclusion: math range error"),
    "t7_subnormal_clayton": ({"case": {"id": "T7", "scenario": {
        **_T7, "generator_x": {"family": "clayton", "theta": 5e-324},
        "generator_y": {"family": "clayton", "theta": 1.0}}}},
        "T7 scenario field 'generator_x': Clayton needs a finite normal theta, got 5e-324"),
    "t7_independence_theta": ({"case": {"id": "T7", "scenario": {
        **_T7, "generator_y": {"family": "independence", "theta": -1.0}}}},
        "T7 scenario field 'generator_y': bad generator spec {'family': 'independence', "
        "'theta': -1.0}: Independence.__init__() got an unexpected keyword argument 'theta'"),
}


_LOMAX_HEAVY_X, _LOMAX_HEAVY_Y = _baseline("lomax", shape=0.001), _baseline("lomax", shape=0.0015)
T1_HEAVY_LOMAX = {"id": "T1", "scenario": {
    "system_x": _system((_LOMAX_HEAVY_X, 1.0), (_LOMAX_HEAVY_X, 2.0)),
    "system_y": _system((_LOMAX_HEAVY_Y, 1.5), (_LOMAX_HEAVY_Y, 2.0))}}


def test_heavy_lomax_case_runs(spec_file):
    # Lomax states DFR and its hr order, so every row holds without a grid;
    # the disp conclusion's quantiles overflow, so it is inconclusive
    proc = run_cli("theorem", "-s", spec_file("case.json", T1_HEAVY_LOMAX))
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["hypothesis"] == {"satisfied": True, "conditions": {
        "baseline_x_dfr": True, "baseline_y_hr_le_baseline_x": True,
        "sum_beta_ge_sum_alpha": True}}
    assert (report["conclusion_outcome"], report["consistent"]) == ("inconclusive", True)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "6cd0b3757c08c91dafe156379ab11f7c7ab360b794e7a652b687550510f518a5")


class TestRefusals:
    """Each spec, run as ``python -m ordrel.cli``, exits 2 with its one line."""

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refused_with_its_message(self, spec_file, name):
        spec, message = REFUSALS[name]
        if "case" in spec:
            argv = ["theorem", "-s", spec_file("case.json", spec["case"])]
        else:
            argv = ["order", "--relation", "st", "-s", spec_file("a.json", EXP2),
                    "-s", spec_file("b.json", EXP1), "--grid", spec_file("g.json", spec["grid"])]
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


README = Path(__file__).resolve().parent.parent / "README.md"
# The README quickstart: its spec files, as its shell writes them, and its
# four commands, each with its exit code and the sha256 of its stdout.
QUICKSTART_SPECS = {
    "exp2.json": '{"family": "exponential", "params": {"rate": 2.0}}\n',
    "exp1.json": '{"family": "exponential", "params": {"rate": 1.0}}\n',
    "t6.json": '{"id": "T6", "scenario": {"theta": 1.5,\n'
               ' "alphas": [2.0, 2.0, 2.0], "alphas_star": [1.0, 2.0, 3.0]}}\n',
    "scan.json": '{"id": "T1", "budget": 150, "seed": 7}\n',
}
QUICKSTART = [
    ("ordrel dist -s exp2.json --fn sf --x 0.5 --x 1.0", 0,
     "e84bf6429cd9235607aa097c6e920b51d537114a9d9bdcf238844b1b72b88d54"),
    ("ordrel order --relation hr -s exp2.json -s exp1.json", 0,
     "828b3d8d812ccab6a12b31befc7fb6aec3e65b5c0f2845dfe55600dc13d124df"),
    ("ordrel theorem -s t6.json --format csv", 0,
     "f688a30253a01b4192012b12d2646f03aa0e581b76897a768ff1ab7ebefb200b"),
    ("ordrel scan -s scan.json --format csv", 0,
     "012611d8fff5145c7cc914646bfedcf9ebaf4bdeb8a2d9de7d7da2cd3aafbe97"),
]


class TestQuickstart:
    def test_the_quickstart_is_the_readme_s(self):
        readme = README.read_text()
        for name, text in QUICKSTART_SPECS.items():
            spec = text.rstrip("\n")
            assert (f"echo '{spec}' > {name}" in readme
                    or f"cat > {name} <<'JSON'\n{spec}\nJSON" in readme), name
        for command, _, _ in QUICKSTART:
            assert f"\n{command}\n" in readme, command

    @pytest.mark.parametrize("command,code,digest", QUICKSTART,
                             ids=[c.split()[1] for c, _, _ in QUICKSTART])
    def test_exit_code_and_stdout_are_pinned(self, tmp_path, command, code, digest):
        for name, text in QUICKSTART_SPECS.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in QUICKSTART_SPECS else a for a in command.split()[1:]]
        proc = run_cli(*argv)
        assert proc.returncode == code, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


class TestScan:
    def test_clean_scan_exit_zero(self, spec_file, capsys):
        path = spec_file("scan.json", {"id": "T1", "budget": 5, "seed": 3})
        assert main(["scan", "-s", path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["counts"]["inconsistent"] == 0

    def test_seed_override(self, spec_file, capsys):
        path = spec_file("scan.json", {"id": "T5", "budget": 4, "seed": 1})
        assert main(["scan", "-s", path, "--seed", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2

    @pytest.mark.parametrize("extra", [{"budget": 3.0},
                                       {"box": {"f_shap": [1.0, 2.0]}},
                                       {"box": {"a1": [3.0, -1.0]}}],
                             ids=["float-budget", "unknown-knob", "lo-above-hi"])
    def test_bad_config_exit_two(self, spec_file, capsys, extra):
        path = spec_file("scan.json", {"id": "T1", "budget": 3, **extra})
        assert main(["scan", "-s", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_csv_rows(self, spec_file, capsys):
        path = spec_file("scan.json", {"id": "T6", "budget": 4})
        assert main(["scan", "-s", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + one row per case


class TestImports:
    def test_cli_imports_no_jsonschema_or_numpy(self):
        code = ("import ordrel.cli, sys; "
                "assert 'jsonschema' not in sys.modules and 'numpy' not in sys.modules")
        package_root = os.path.dirname(os.path.dirname(ordrel.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


# Modules a dist or order call has no use for: the theorem harness and what
# only it, a system spec or a scan needs, and the optional heavy libraries.
_UNUSED_BY_DIST_AND_ORDER = {
    "ordrel.harness", "ordrel.copulas", "ordrel.systems", "ordrel.scan",
    "ordrel.majorization", "ordrel.quadrature", "ordrel.special", "jsonschema", "numpy"}

_LOADED_BY = """
import json, sys
from ordrel.cli import main
rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(sys.modules)]))
"""


class TestLoadedModules:
    """Which modules a one-shot CLI process loads, each in a fresh interpreter."""

    def _loaded(self, tmp_path, *argv):
        proc = run_python(_LOADED_BY, *argv, "--out", str(tmp_path / "out.txt"))
        assert proc.returncode == 0, proc.stderr
        rc, modules = json.loads(proc.stdout)
        return rc, set(modules)

    @pytest.mark.parametrize("argv", [["dist", "-s", "{a}", "--fn", "sf", "--x", "0.5"],
                                      ["order", "--relation", "hr", "-s", "{a}", "-s", "{b}"]],
                             ids=["dist", "order"])
    def test_dist_and_order_load_no_harness(self, spec_file, tmp_path, argv):
        paths = {"a": spec_file("a.json", EXP1), "b": spec_file("b.json", EXP2)}
        rc, loaded = self._loaded(tmp_path, *(arg.format_map(paths) for arg in argv))
        assert rc == 0 and "ordrel.orders" in loaded
        assert loaded & _UNUSED_BY_DIST_AND_ORDER == set()

    def test_theorem_loads_no_scan(self, spec_file, tmp_path):
        rc, loaded = self._loaded(tmp_path, "theorem", "-s", spec_file("t6.json", T6))
        assert rc == 0 and "ordrel.harness" in loaded
        assert "ordrel.scan" not in loaded

    def test_a_stated_order_loads_no_fractions(self, spec_file, tmp_path):
        # Lomax's order reads rationals only where the rounded products tie
        rc, loaded = self._loaded(tmp_path, "theorem", "-s", spec_file("t1.json", T1_HEAVY_LOMAX))
        assert rc == 0 and "ordrel.harness" in loaded
        assert "fractions" not in loaded and "decimal" not in loaded

    def test_import_ordrel_loads_no_submodule(self):
        proc = run_python("import json, sys, ordrel; print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert [m for m in json.loads(proc.stdout) if m.startswith("ordrel.")] == []


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_relation(self, spec_file, capsys):
        a = spec_file("a.json", EXP1)
        assert main(["order", "--relation", "total", "-s", a, "-s", a]) == 2

    def test_non_numeric_x_is_usage_error(self, spec_file):
        # exit 1 would read as an order that fails
        for x in ("abc", "nan"):
            proc = run_cli("dist", "-s", spec_file("d.json", EXP1), "--fn", "sf", "--x", x)
            assert (proc.returncode, proc.stdout) == (2, ""), x
            assert "usage:" in proc.stderr and "Traceback" not in proc.stderr, x

    @pytest.mark.parametrize("x,row", [("-1e-3", "-0.001,1"), ("-inf", "-inf,1")],
                             ids=["minus-1e-3", "minus-inf"])
    def test_a_negative_x_after_a_space_is_a_point(self, spec_file, x, row):
        # argparse alone reads such a value as an option and exits 2
        proc = run_cli("dist", "-s", spec_file("d.json", EXP1), "--fn", "sf", "--x", x)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"x,value\n{row}\n", "")

    def test_spec_that_is_not_utf8_is_usage_error(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b"\xff\xfe{")
        proc = run_cli("dist", "-s", str(path), "--fn", "sf", "--x", "1")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: malformed JSON in {path}: ")

