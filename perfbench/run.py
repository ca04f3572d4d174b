"""ordrel benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ordrel from ``src/`` next to
this directory and nothing else.  Workloads (see workloads.py and
BENCHMARK.json): acceptance-scan, large-grid-oracle, cli-oneshot.

A run cycles through the workload's input sets, drawn from the seed, one
pass at a time for S seconds.  ``--trace 0`` runs untraced passes and
reports the end-to-end metrics.  ``--trace 1`` follows each untraced pass
with a traced pass over the same set and reports the per-layer metrics:
counts from one traced pass (they must repeat exactly), times as the median
over traced passes, and ``trace.overhead_frac`` from the pairs of passes.
Spans are written to ``.bench_work/`` when the run ends.

Human-readable lines (provenance, verdict digest, each metric with its
unit) come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from importlib import metadata
from statistics import median
from time import perf_counter

from tracing import layer_metrics, self_times
from workloads import CLI_METRICS, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7  # this process's set-up plus fresh processes that only set up
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up and print the time it took")
    return p.parse_args(argv)


def set_up(args, speed):
    """Build the run's input sets; return them and the set-up time at
    reference speed."""
    cls = WORKLOADS[args.workload]
    speed.measure()  # a first, cold measurement would understate the speed
    before = speed.measure()
    start = perf_counter()
    sets = [cls(ROOT, args.seed * cls.INPUT_SETS + j) for j in range(cls.INPUT_SETS)]
    seconds = perf_counter() - start
    return sets, seconds * 0.5 * (before + speed.measure())


def setup_probe(args) -> float:
    """Set-up time (at reference speed) of a fresh process, which imports
    ordrel anew."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(samples):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_passes(sets, args, speed, traced: bool):
    """Cycle through the input sets, one pass at a time, until the given
    seconds have passed and every set has run; with ``traced``, each
    untraced pass is followed by a traced pass over the same set.
    Returns (set index, untraced pass, traced pass or None) per step."""
    steps = []
    start = perf_counter()
    while len(steps) < len(sets) or perf_counter() - start < args.seconds:
        j = len(steps) % len(sets)
        plain = sets[j].run_pass(False, speed)
        steps.append((j, plain, sets[j].run_pass(True, speed) if traced else None))
    return steps


def latency_windows(steps, median_of_repeats: bool):
    """Operation times in ms, one window per input set: every sample, or
    each operation's median over its repeats."""
    wins = []
    for j in sorted({j for j, _, _ in steps}):
        runs = [p.op_s for i, p, _ in steps if i == j]
        if median_of_repeats:
            wins.append([1e3 * median(ts) for ts in zip(*runs)])
        else:
            wins.append([1e3 * t for op_s in runs for t in op_s])
    return wins


def run_digest(steps, problems) -> str:
    """Digest over the input sets in order; every pass over a set must
    give the set's digest, traced or not."""
    by_set: dict[int, set] = {}
    for j, plain, traced in steps:
        by_set.setdefault(j, set()).update(p.digest for p in (plain, traced) if p)
    for j, digests in by_set.items():
        if len(digests) > 1:
            problems.append(f"input set {j}: verdict digest differs between passes")
    return hashlib.sha256("".join(min(by_set[j]) for j in sorted(by_set)).encode()).hexdigest()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    sha = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = None
    if sha is not None:
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha or "unavailable (not a git checkout)",
        "git_dirty": dirty, "python": platform.python_version(),
        "numpy": _version("numpy"), "jsonschema": _version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
    }


def timed_run(sets, args, speed, setup_s):
    """Untraced passes for the given seconds -> end-to-end metrics."""
    steps = run_passes(sets, args, speed, traced=False)
    passes = [p for _, p, _ in steps]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    wins = latency_windows(steps, WORKLOADS[args.workload].MEDIAN_OF_REPEATS)
    tails = [tail(w) for w in wins]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": attempted / sum(p.busy_s for p in passes),
        "op_ms_p50": median(median(w) for w in wins),
        "op_ms_tail": median(t for t, _ in tails),
        "peak_rss_mb": peak_rss_mb,
    }
    per_window = f"median over {len(wins)} input sets of {min(map(len, wins))}+ samples"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{attempted} ops in {len(passes)} passes, busy "
                     f"{sum(p.raw_busy_s for p in passes):.2f} s as measured",
        "op_ms_p50": per_window,
        "op_ms_tail": f"p{min(p for _, p in tails):.2f}, {per_window}",
        "peak_rss_mb": "children" if who == resource.RUSAGE_CHILDREN else "this process",
    }
    print(f"info failed_frac {failed / attempted if attempted else 0.0} ({failed}/{attempted})")
    return steps, metrics, notes


def traced_run(sets, args, speed, units, problems):
    """Untraced and traced passes over each set in turn -> per-layer
    metrics: counts of the first traced pass (over input set 0), times as
    the median over traced passes."""
    steps = run_passes(sets, args, speed, traced=True)
    first_counts: dict[int, dict] = {}
    per_pass = []
    for j, _, p in steps:
        own = self_times(p.spans)
        if sum(own) > p.wall_s or min(own, default=0.0) < -1e-9:
            problems.append(f"self times ({sum(own):.4f} s) exceed the traced wall "
                            f"time ({p.wall_s:.4f} s) or go negative")
        m = {**dict.fromkeys(CLI_METRICS, 0.0),  # set on cli-oneshot only
             **layer_metrics(p.spans, p.counts), **p.extra}
        f = p.busy_s / p.raw_busy_s  # the pass's mean speed factor
        per_pass.append({k: v * f if units.get(k) == "ms" else v for k, v in m.items()})
        counts = {k: v for k, v in m.items() if units.get(k) == "count"}
        if first_counts.setdefault(j, counts) != counts:
            problems.append(f"input set {j}: counts differ between traced passes")
    metrics = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(first_counts[0])
    metrics["trace.overhead_frac"] = median(t.busy_s / p.busy_s for _, p, t in steps) - 1.0
    notes = {"trace.overhead_frac": f"median over {len(steps)} pairs of passes"}
    write_spans(args, steps)
    return steps, metrics, notes


def write_spans(args, steps):
    out_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for i, (j, _, p) in enumerate(steps):
            fh.write(json.dumps({"pass": i, "input_set": j, "wall_s": p.wall_s,
                                 "counts": p.counts, "spans": p.spans}) + "\n")
    print(f"info spans written to {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ordrel", "__init__.py")):
        print(f"error: no ordrel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    speed = WORKLOADS[args.workload].make_speed()
    if args.setup_probe:
        _, setup_s = set_up(args, speed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("provenance " + json.dumps(provenance(args)))
    sets, setup_s = set_up(args, speed)
    ordrel = sys.modules.get("ordrel")
    if ordrel is not None and not os.path.abspath(ordrel.__file__).startswith(SRC + os.sep):
        print(f"error: imported ordrel from {ordrel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    problems: list[str] = []
    if args.trace:
        units = {m["name"]: m["unit"] for m in wanted}
        steps, values, notes = traced_run(sets, args, speed, units, problems)
    else:
        steps, values, notes = timed_run(sets, args, speed, setup_s)
    passes = [p for _, plain, traced in steps for p in (plain, traced) if p]
    for p in passes:
        problems += p.problems
    print(f"digest {args.workload} seed={args.seed} {run_digest(steps, problems)}")

    names = [m["name"] for m in wanted]
    if set(names) != set(values):
        print(f"error: metrics out of step with BENCHMARK.json: missing "
              f"{sorted(set(names) - set(values))}, extra {sorted(set(values) - set(names))}",
              file=sys.stderr)
        return 2
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"metric {m['name']} {value} {m['unit']}{note}")
    for problem in problems[:50]:
        print(f"problem {problem}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
