"""Command-line interface: subcommands, exit codes, output formats."""

import json
import os
import subprocess
import sys

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
        path = spec_file("c.json", T5_XR_OUTSIDE_SUPPORT)
        assert main(["theorem", "-s", path]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "outside the support" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tid,kind,inner,lo,hi", [
        ("T1", "series_phr", False, 0.0, 5.0),
        ("T2", "parallel_prhr", True, -5.0, 0.0),
    ], ids=["lower-edge", "upper-edge"])
    def test_ageing_grid_at_a_support_edge_runs(self, spec_file, capsys, tid, kind,
                                                inner, lo, hi):
        # one rate of the baseline is undefined at the edge; the theorem
        # reads only the other
        def baseline(shape):
            lomax = {"family": "lomax", "params": {"shape": shape}}
            return {"family": "reflected_dfr", "params": {"inner": lomax}} if inner else lomax

        def system(shape, props):
            return {"kind": kind, "components": [{"baseline": baseline(shape), "prop": p}
                                                 for p in props]}

        path = spec_file("c.json", {"id": tid, "scenario": {
            "system_x": system(1.0, [1.0, 2.0]), "system_y": system(2.0, [1.5, 2.0])},
            "grids": {"ageing": {"kind": "x", "lo": lo, "hi": hi, "n": 64}}})
        assert main(["theorem", "-s", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis"]["satisfied"] is True
        assert all(report["hypothesis"]["conditions"].values())

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        assert main(["theorem", "-s", str(p)]) == 2
        assert "error:" in capsys.readouterr().err


def _baseline(family, **params):
    return {"family": family, "params": params}


def _series(*components, split=None):
    out = {"kind": "series_phr",
           "components": [{"baseline": b, "prop": p} for b, p in components]}
    return out if split is None else {**out, "split": split}


_LOMAX_1, _LOMAX_2 = _baseline("lomax", shape=1.0), _baseline("lomax", shape=2.0)
_EXP = _baseline("exponential", rate=1.0)
_PARETO_15, _PARETO_25 = _baseline("pareto1", shape=1.5), _baseline("pareto1", shape=2.5)

# Specs the CLI refuses once loaded, each with the one error line it prints:
# {"case": theorem case} runs `theorem`, {"grid": grid} an st `order` call.
REFUSALS = {
    "t1_mixed_system": ({"case": {"id": "T1", "scenario": {
        "system_x": _series((_LOMAX_1, 1.0), (_EXP, 2.0)),
        "system_y": _series((_LOMAX_2, 1.5), (_LOMAX_2, 2.0))}}},
        "T1 needs single-baseline systems"),
    "t5_two_baselines": ({"case": {"id": "T5", "scenario": {
        "system_x": _series((_PARETO_15, 0.5), (_PARETO_15, 0.5)),
        "system_y": _series((_PARETO_25, 1.0), (_PARETO_25, 1.5))}}},
        "T5 needs one common baseline"),
    "t3_unsplit": ({"case": {"id": "T3", "scenario": {
        "system_x": _series((_EXP, 1.0), (_LOMAX_2, 2.0)),
        "system_y": _series((_EXP, 1.5), (_LOMAX_2, 2.0))}}},
        "mixed-baseline theorem needs split systems"),
    "t6_lengths": ({"case": {"id": "T6", "scenario": {
        "theta": 1.5, "alphas": [2.0, 2.0], "alphas_star": [1.0, 2.0, 3.0]}}},
        "T6 needs equal-length shape vectors"),
    "split_block_two_baselines": ({"case": {"id": "T3", "scenario": {
        "system_x": _series((_EXP, 1.0), (_LOMAX_2, 2.0), (_EXP, 1.0), split=1),
        "system_y": _series((_EXP, 1.5), (_LOMAX_2, 2.0), split=1)}}},
        "T3 scenario field 'system_x': each split block must share one baseline"),
    "reversed_grid_bounds": ({"grid": {"kind": "x", "lo": 5.0, "hi": 1.0, "n": 64}},
                             "bad grid bounds [5.0, 1.0]"),
}


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

