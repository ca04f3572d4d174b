"""The benchmark's three workloads.

An instance of a workload class is one *input set*, built from a seed when
it is constructed; building a run's input sets, with the first import of
ordrel, is the set-up the run times.  Each call of ``run_pass`` runs one
*pass* over the set: a fixed list of operations, one at a time (closed
loop, one client).  Passes over the same set do the same work, so their
verdict digests and traced counts repeat exactly.

Class attributes the runner reads:

- ``INPUT_SETS``: how many input sets a run cycles through, so that one
  run averages over several draws of inputs;
- ``MEDIAN_OF_REPEATS``: take an operation's time as the median of its
  repeats in the run.  Set where operations are shorter than the bursts of
  host slowness that speed calibration cannot see;
- ``make_speed``: the calibration that suits the workload (see speed.py).

No workload imports ordrel at module level, so set-up includes the import.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean
from time import perf_counter, time

from speed import interpreter_speed, process_speed
from tracing import SCAN_THEOREMS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CALL_TIMEOUT_S = 60
# per-call means over a traced cli-oneshot pass, measured around the tracer
CLI_METRICS = ("cli.interp_ms", "cli.import_ms", "cli.import_jsonschema_ms", "cli.run_ms")


@dataclass
class Pass:
    """What one pass did: latency samples, failures and its trace."""

    op_s: list = field(default_factory=list)  # seconds per completed operation
    busy_s: float = 0.0  # time in chunks of work; this and op_s at reference speed
    raw_busy_s: float = 0.0  # the same as measured
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    spans: list | None = None  # set on traced passes
    counts: Counter | None = None
    extra: dict = field(default_factory=dict)  # layer metrics taken outside the tracer
    # hashed as they come, so that the run's memory does not grow with them
    _digest: object = field(default_factory=hashlib.sha256, repr=False)

    def note(self, digest_item):
        """Add an outcome (never a floating-point witness) to the digest."""
        self._digest.update(json.dumps(digest_item, sort_keys=True).encode() + b"\n")

    def op(self, seconds: float | None, ok: bool, digest_item, problem: str):
        self.attempted += 1
        if seconds is not None:
            self.op_s.append(seconds)
        self.note(digest_item)
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    @contextmanager
    def chunk(self, speed):
        """Time a chunk of work and rescale it, and the operations recorded
        in it, by the speed factor measured around it."""
        first = len(self.op_s)
        before = speed.factor()
        start = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - start
            f = 0.5 * (before + speed.factor())
            self.op_s[first:] = [s * f for s in self.op_s[first:]]
            self.busy_s += wall * f
            self.raw_busy_s += wall

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _in_process(body, traced: bool, speed) -> Pass:
    """Run ``body(pass, speed)`` with or without the tracer installed."""
    out = Pass()
    tracer = Tracer() if traced else None
    start = perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        body(out, speed)
    finally:
        if tracer is not None:
            left = tracer.restore()
            if left:
                out.problems.append(f"tracer left wrappers on: {left}")
    out.wall_s = perf_counter() - start
    if tracer is not None:
        out.spans, out.counts = tracer.spans, tracer.counts
    return out


class AcceptanceScan:
    """``scan(tid, budget=150, seed)`` for T1-T8; one operation is one case.

    A case fails when it raises, is inconsistent, or has its hypothesis
    satisfied with an inconclusive conclusion.  Each theorem must also keep
    at least 100 satisfied-and-holding cases.
    """

    name = "acceptance-scan"
    INPUT_SETS = 6
    MEDIAN_OF_REPEATS = True  # a case lasts about 1 ms, a burst of host slowness ~10 ms
    make_speed = staticmethod(interpreter_speed)
    BUDGET = 150
    MIN_SATISFIED = 100

    def __init__(self, root: str, seed: int):
        self.seed = seed
        # the package binds ordrel.scan to the function, so go by module name
        self.scan_mod = importlib.import_module("ordrel.scan")

    def run_pass(self, traced: bool, speed) -> Pass:
        return _in_process(self._scans, traced, speed)

    def _scans(self, out: Pass, speed):
        mod = self.scan_mod
        run_case = mod.run_case
        cases: list = []  # (seconds, report or None if it raised)

        def timed_case(case):
            start = perf_counter()
            report = None
            try:
                report = run_case(case)
                return report
            finally:
                cases.append((perf_counter() - start, report))

        mod.run_case = timed_case
        try:
            for tid in SCAN_THEOREMS:
                cases.clear()
                error = ""
                with out.chunk(speed):
                    try:
                        result = mod.scan(tid, budget=self.BUDGET, seed=self.seed)
                    except Exception as exc:  # record it and go on with the next theorem
                        result = None
                        error = f"{tid}: {type(exc).__name__}: {exc}"
                        if not cases or cases[-1][1] is not None:
                            out.op(None, False, [tid, "error"], error)  # raised outside a case
                    for seconds, report in cases:
                        ok = report is not None and report.consistent and not (
                            report.hypothesis_satisfied
                            and report.conclusion_outcome == "inconclusive")
                        item = ([report.hypothesis_satisfied, report.conclusion_outcome]
                                if report is not None else "error")
                        out.op(seconds, ok, [tid, item],
                               error if report is None else f"{tid}: bad case {item}")
                if result is None:
                    continue
                out.note([tid, result.counts])
                if [r for _, r in cases] != list(result.reports):
                    out.problems.append(f"{tid}: timed cases do not match the scan reports")
                if result.counts.get("satisfied_holds", 0) < self.MIN_SATISFIED:
                    out.problems.append(f"{tid}: fewer than {self.MIN_SATISFIED} "
                                        f"satisfied cases: {result.counts}")
        finally:
            mod.run_case = run_case
        if mod.run_case is not run_case:
            out.problems.append("scan.run_case not restored")


def _scaled(values, total):
    s = sum(values)
    return [v * total / s for v in values]


class LargeGridOracle:
    """Checker calls at n=2048 on pairs with a known verdict, and moment
    oracles against closed forms; one operation is one call.

    Every pair runs in both directions: A <= B must hold and B <= A must
    fail, so a checker that always answers "holds" fails half its calls.
    ``inconclusive`` where a verdict is known counts as failed, and a
    moment more than 1e-3 (relative) off its closed form fails.
    """

    name = "large-grid-oracle"
    INPUT_SETS = 1
    MEDIAN_OF_REPEATS = True  # many operations last 1-5 ms
    make_speed = staticmethod(interpreter_speed)
    N = 2048
    PAIRS = 4  # pairs of each single-baseline kind, oracles of each moment family
    MIXED = 4  # mixed-baseline pairs of each kind; their 16 disp calls hold the tail
    MOMENT_RTOL = 1e-3

    def __init__(self, root: str, seed: int):
        ordrel = importlib.import_module("ordrel")
        self.orders = importlib.import_module("ordrel.orders")
        self.systems = importlib.import_module("ordrel.systems")
        rng = random.Random(seed)
        u = rng.uniform
        grid_x = ordrel.GridSpec(kind="x", n=self.N)
        grid_u = ordrel.GridSpec(kind="u", n=self.N)
        osd, series = ordrel.OrderStatDist, self.systems.SERIES_PHR
        self.ops = []  # (label, relation or None for a moment, A, B, grid, expected)

        def pair(label, a, b, relations):
            """a <= b holds in each relation, so b <= a fails."""
            for rel in relations:
                grid = grid_u if rel in ("disp", "star") else grid_x
                self.ops.append((f"{label}:{rel}", rel, a, b, grid, "holds"))
                self.ops.append((f"{label}:{rel}:reversed", rel, b, a, grid, "fails"))

        # A faster exponential, or a same-shape Weibull minimum with a larger
        # rate sum, is smaller in st, hr and lr and less dispersed.
        for k in range(self.PAIRS):
            slow = u(0.5, 2.0)
            pair(f"exponential{k}", ordrel.Exponential(slow * u(1.3, 2.5)),
                 ordrel.Exponential(slow), ("st", "hr", "lr", "disp"))
        for k in range(self.PAIRS):
            base = ordrel.Weibull(u(0.5, 2.0), 1.0)
            small = [u(0.3, 1.5) for _ in range(3)]
            big = _scaled([u(0.3, 1.5) for _ in range(3)], sum(small) * u(1.3, 2.5))
            pair(f"weibull-min{k}", osd(ordrel.series_phr(base, big)),
                 osd(ordrel.series_phr(base, small)), ("st", "hr", "lr", "disp"))
        # Pareto-I minima: the larger sum is smaller in the star order.
        for k in range(self.PAIRS):
            base = ordrel.ParetoI(u(0.5, 3.0))
            small = [u(0.3, 1.5) for _ in range(2)]
            big = _scaled([u(0.3, 1.5) for _ in range(2)], sum(small) * u(1.3, 2.5))
            pair(f"pareto-min{k}", osd(ordrel.series_phr(base, big)),
                 osd(ordrel.series_phr(base, small)), ("star",))
        # Mixed-baseline systems, X with c times Y's parameters (c > 1).  The
        # series baselines are DFR and the parallel ones IRHR, so the larger
        # power is also the less dispersed; quantiles go through bisection.
        for k in range(self.MIXED):
            c = u(1.3, 2.0)
            front, back = [u(0.3, 1.5), u(0.3, 1.5)], [u(0.3, 1.5)]
            front_x, back_x = [c * v for v in front], [c * v for v in back]
            lomax, expo = ordrel.Lomax(u(0.8, 2.5), 1.0), ordrel.Exponential(u(0.5, 2.0))
            pair(f"mixed-series{k}", osd(ordrel.mixed_series(lomax, front_x, expo, back_x)),
                 osd(ordrel.mixed_series(lomax, front, expo, back)), ("st", "hr", "disp"))
            rlomax, rexpo = ordrel.ReflectedDFR(lomax), ordrel.ReflectedDFR(expo)
            par_x = osd(ordrel.mixed_parallel(rlomax, front_x, rexpo, back_x))
            par_y = osd(ordrel.mixed_parallel(rlomax, front, rexpo, back))
            pair(f"mixed-parallel{k}", par_y, par_x, ("st", "rh"))
            pair(f"mixed-parallel{k}", par_x, par_y, ("disp",))
        # Minimum variances: Weibull minima with a common shape a are
        # Weibull(a, sum of rates); Lomax(scale 1) minima are Lomax(sum).
        for k in range(self.PAIRS):
            a = u(0.6, 2.0)
            rates = [u(0.5, 2.5) for _ in range(3)]
            spec = ordrel.SystemSpec(series, tuple((ordrel.Weibull(a, r), 1.0) for r in rates))
            var = sum(rates) ** (-2.0 / a) * (math.gamma(1 + 2 / a) - math.gamma(1 + 1 / a) ** 2)
            self.ops.append((f"weibull-variance{k}", None, osd(spec), var, None, "ok"))
        for k in range(self.PAIRS):
            shapes = [u(1.0, 3.0) for _ in range(3)]
            spec = ordrel.SystemSpec(series, tuple((ordrel.Lomax(s, 1.0), 1.0) for s in shapes))
            s = sum(shapes)
            var = s / ((s - 2.0) * (s - 1.0) ** 2)
            self.ops.append((f"lomax-variance{k}", None, osd(spec), var, None, "ok"))

    def run_pass(self, traced: bool, speed) -> Pass:
        return _in_process(self._calls, traced, speed)

    def _calls(self, out: Pass, speed):
        for label, rel, a, b, grid, expected in self.ops:
            with out.chunk(speed):
                start = perf_counter()
                try:
                    if rel is None:
                        var = self.systems.numeric_mean_variance(a)[1]
                        outcome = "ok" if abs(var - b) <= self.MOMENT_RTOL * b else "off"
                    else:
                        outcome = self.orders.CHECKERS[rel](a, b, grid).outcome
                except Exception as exc:  # a raising call is a failed operation
                    outcome = f"error {type(exc).__name__}: {exc}"
                seconds = perf_counter() - start
                out.op(seconds, outcome == expected, [label, outcome],
                       f"{label}: expected {expected}, got {outcome}")


def _parse_json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _check_dist(expected_values):
    def check(stdout):
        lines = stdout.strip().splitlines()
        if lines[:1] != ["x,value"] or len(lines) != len(expected_values) + 1:
            return "bad-csv"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        good = all(abs(v - e) <= 1e-9 * e for v, e in zip(values, expected_values))
        return "ok" if good else "off"
    return check


def _check_order(stdout):
    obj = _parse_json(stdout)
    return obj.get("outcome", "bad-json") if isinstance(obj, dict) else "bad-json"


def _check_theorem_json(stdout):
    obj = _parse_json(stdout)
    if not isinstance(obj, dict):
        return "bad-json"
    return f"{obj.get('conclusion_outcome')}/consistent={obj.get('consistent')}"


def _check_theorem_csv(stdout):
    lines = stdout.strip().splitlines()
    if len(lines) != 2 or not lines[0].startswith("id,"):
        return "bad-csv"
    row = lines[1].split(",")
    return f"{row[0]}/{row[1]}/{row[-2]}/consistent={row[-1]}"


def _check_scan(budget):
    def check(stdout):
        obj = _parse_json(stdout)
        if not isinstance(obj, dict) or "counts" not in obj:
            return "bad-json"
        n = obj["counts"]
        clean = (n.get("total") == budget and n.get("inconsistent") == 0
                 and n.get("inconclusive") == 0 and len(obj.get("reports", ())) == budget)
        return "clean" if clean else f"unclean {n}"
    return check


def _importtime_ms(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return float(parts[1]) / 1e3
    return 0.0


class CliOneshot:
    """Sequential ``python -m ordrel.cli`` processes on spec files written
    at set-up: dist, order (one holds, one fails with exit code 1), theorem
    Ex1/Ex2/T6 and a small scan.  One operation is one process, timed from
    spawn to exit; it fails on a wrong exit code or wrong output.
    """

    name = "cli-oneshot"
    INPUT_SETS = 1
    MEDIAN_OF_REPEATS = False
    make_speed = staticmethod(process_speed)
    SCAN_BUDGET = 10

    def __init__(self, root: str, seed: int):
        self.root = root
        self.work = os.path.join(root, ".bench_work", f"cli-seed{seed}")
        os.makedirs(self.work, exist_ok=True)
        rng = random.Random(seed)
        slow = rng.uniform(0.5, 1.5)
        fast = slow * rng.uniform(1.3, 2.0)
        xs = [rng.uniform(0.1, 3.0) for _ in range(3)]
        star = sorted(rng.uniform(0.5, 3.0) for _ in range(3))
        mean = sum(star) / 3  # the mean vector is majorized by any vector with its sum
        tid = SCAN_THEOREMS[seed % len(SCAN_THEOREMS)]
        files = {
            "fast": {"family": "exponential", "params": {"rate": fast}},
            "slow": {"family": "exponential", "params": {"rate": slow}},
            "ex1": {"id": "Ex1", "scenario": {}},
            "ex2": {"id": "Ex2", "scenario": {}},
            "t6": {"id": "T6", "scenario": {"theta": rng.uniform(0.5, 2.0),
                                            "alphas": [mean] * 3, "alphas_star": star}},
            "scan": {"id": tid, "budget": self.SCAN_BUDGET, "seed": seed},
        }
        path = {}
        for name, obj in files.items():
            path[name] = os.path.join(self.work, f"{name}.json")
            with open(path[name], "w") as fh:
                json.dump(obj, fh)
        x_args = [arg for x in xs for arg in ("--x", repr(x))]
        # (label, arguments, expected exit code, output check, expected outcome)
        self.ops = [
            ("dist", ["dist", "-s", path["fast"], "--fn", "sf", *x_args], 0,
             _check_dist([math.exp(-fast * x) for x in xs]), "ok"),
            ("order-hr-holds", ["order", "--relation", "hr", "-s", path["fast"],
                                "-s", path["slow"]], 0, _check_order, "holds"),
            ("order-st-fails", ["order", "--relation", "st", "-s", path["slow"],
                                "-s", path["fast"]], 1, _check_order, "fails"),
            ("theorem-Ex1", ["theorem", "-s", path["ex1"]], 0,
             _check_theorem_json, "holds/consistent=True"),
            ("theorem-Ex2", ["theorem", "-s", path["ex2"]], 0,
             _check_theorem_json, "holds/consistent=True"),
            ("theorem-T6", ["theorem", "-s", path["t6"], "--format", "csv"], 0,
             _check_theorem_csv, "T6/True/holds/consistent=True"),
            (f"scan-{tid}", ["scan", "-s", path["scan"]], 0,
             _check_scan(self.SCAN_BUDGET), "clean"),
        ]
        # One untimed call first, so byte-compiled modules exist as they
        # would for an installed CLI.
        self._call(self.ops[0], traced=False, out=Pass(), extra=None)

    def run_pass(self, traced: bool, speed) -> Pass:
        out = Pass()
        extra = {name: [] for name in CLI_METRICS} if traced else None
        if traced:
            out.spans, out.counts = [], Counter()
        start = perf_counter()
        for op in self.ops:
            with out.chunk(speed):
                self._call(op, traced, out, extra)
        out.wall_s = perf_counter() - start
        if traced:
            out.extra = {name: fmean(v) if v else 0.0 for name, v in extra.items()}
        return out

    def _call(self, op, traced: bool, out: Pass, extra: dict | None):
        label, args, want_rc, check, want = op
        child_out = os.path.join(self.work, "child.json")
        if traced:
            if os.path.exists(child_out):
                os.remove(child_out)
            argv = [sys.executable, "-X", "importtime",
                    os.path.join(BENCH_DIR, "cli_child.py"), child_out, *args]
        else:
            argv = [sys.executable, "-m", "ordrel.cli", *args]
        spawned = time()
        start = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=self.root,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            out.op(perf_counter() - start, False, [label, "timeout"], f"{label}: timed out")
            return
        seconds = perf_counter() - start
        try:
            outcome = check(proc.stdout)
        except (ValueError, IndexError):
            outcome = "unparsable output"
        ok = proc.returncode == want_rc and outcome == want
        out.op(seconds, ok, [label, proc.returncode, outcome],
               f"{label}: exit {proc.returncode} (want {want_rc}), output {outcome!r} "
               f"(want {want!r}); stderr: {proc.stderr.strip()[-300:]}")
        if traced:
            self._collect(child_out, spawned, proc.stderr, out, extra)

    @staticmethod
    def _collect(child_out, spawned, stderr, out: Pass, extra: dict):
        try:
            with open(child_out) as fh:
                child = json.load(fh)
        except (OSError, ValueError) as exc:
            out.problems.append(f"no trace from the CLI process: {exc}")
            return
        offset = len(out.spans)
        out.spans += [(name, parent + offset if parent >= 0 else -1, start, end)
                      for name, parent, start, end in child["spans"]]
        out.counts.update(child["counts"])
        if child["left"]:
            out.problems.append(f"tracer left wrappers on: {child['left']}")
        extra["cli.interp_ms"].append(1e3 * (child["t_enter"] - spawned))
        extra["cli.import_ms"].append(1e3 * child["import_s"])
        extra["cli.import_jsonschema_ms"].append(_importtime_ms(stderr, "jsonschema"))
        extra["cli.run_ms"].append(1e3 * child["run_s"])


WORKLOADS = {w.name: w for w in (AcceptanceScan, LargeGridOracle, CliOneshot)}
