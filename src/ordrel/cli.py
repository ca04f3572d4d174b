"""Command-line front end.

Subcommands: dist, order, theorem, scan.  Non-trivial objects always come
in as JSON files (the nesting does not flatten sanely into flags).  Exit
codes: 0 success/holds, 1 order fails or inconsistency found, 2 usage or
schema error, or a run that overflows a float, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import serialize
from .errors import OrdrelError
from .grids import GridSpec
from .orders import CHECKERS, FAILS, INCONCLUSIVE

_FNS = ("cdf", "sf", "pdf", "quantile", "hazard", "rev_hazard")

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _point(text: str) -> float:
    """A --x value: any float but NaN (+-inf are points)."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if math.isnan(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    return x


def _default_grid(args) -> GridSpec | None:
    if getattr(args, "grid", None):
        return serialize.load_grid(serialize.read_json_file(args.grid))
    return None


def _cmd_dist(args) -> int:
    d = serialize.load_dist_or_system(serialize.read_json_file(args.spec))
    fn = getattr(d, args.fn)
    if args.x:
        xs = args.x
    else:
        grid = _default_grid(args)
        if grid is None:
            raise serialize.ConfigError("dist needs --x values or a --grid file")
        xs = grid.u_points() if grid.kind == "u" else grid.x_points((d,))
    rows = [(x, fn(x)) for x in xs]
    if args.format == "json":
        payload = [{"x": x, "value": v} for x, v in rows]
        _emit(_json_dumps(payload), args.out)
    else:
        lines = ["x,value"] + [f"{_fmt(x)},{_fmt(v)}" for x, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_order(args) -> int:
    if len(args.spec) != 2:
        raise serialize.ConfigError("order needs exactly two --spec files")
    a = serialize.load_dist_or_system(serialize.read_json_file(args.spec[0]))
    b = serialize.load_dist_or_system(serialize.read_json_file(args.spec[1]))
    checker = CHECKERS[args.relation]
    verdict = checker(a, b, _default_grid(args))
    _emit(_json_dumps(verdict.to_json()), args.out)
    if verdict.outcome == FAILS:
        return EXIT_FAILS
    if verdict.outcome == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _emit_reports(args, reports, result) -> int:
    """The reports as CSV, or ``result`` as JSON; exit 1 if any report is
    inconsistent."""
    if args.format == "csv":
        lines = ["id,hypothesis_satisfied,conditions,outcome,consistent"]
        for r in reports:
            conds = ";".join(f"{k}={v}" for k, v in r.conditions.items())
            lines.append(f"{r.id},{r.hypothesis_satisfied},{conds},"
                         f"{r.conclusion_outcome},{r.consistent}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dumps(result.to_json()), args.out)
    return EXIT_OK if all(r.consistent for r in reports) else EXIT_FAILS


def _cmd_theorem(args) -> int:
    from .harness import run_case

    report = run_case(serialize.load_case(serialize.read_json_file(args.spec)))
    return _emit_reports(args, [report], report)


def _cmd_scan(args) -> int:
    from .scan import scan

    cfg = serialize.load_scan_config(serialize.read_json_file(args.spec))
    if args.seed is not None:
        cfg["seed"] = args.seed
    result = scan(**cfg)
    return _emit_reports(args, result.reports, result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordrel",
        description="Numerical stochastic-order verification for PHR/PRHR "
                    "order statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="evaluate a distribution surface")
    p_dist.add_argument("--spec", "-s", required=True,
                        help="DistSpec or SystemSpec JSON file")
    p_dist.add_argument("--fn", required=True, choices=_FNS)
    p_dist.add_argument("--x", action="append", type=_point,
                        help="evaluation point (repeatable)")
    p_dist.add_argument("--grid", help="GridSpec JSON file")
    p_dist.add_argument("--out", help="output file (default stdout)")
    p_dist.add_argument("--format", choices=("json", "csv"), default="csv")
    p_dist.set_defaults(fn_impl=_cmd_dist)

    p_order = sub.add_parser("order", help="run one stochastic-order check")
    p_order.add_argument("--spec", "-s", action="append", required=True,
                         help="spec file; give twice (A then B, checks A <= B)")
    p_order.add_argument("--relation", required=True, choices=sorted(CHECKERS))
    p_order.add_argument("--grid", help="GridSpec JSON file")
    p_order.add_argument("--out", help="output file (default stdout)")
    p_order.set_defaults(fn_impl=_cmd_order)

    p_thm = sub.add_parser("theorem", help="run one theorem case")
    p_thm.add_argument("--spec", "-s", required=True, help="TheoremCase JSON file")
    p_thm.add_argument("--out", help="output file (default stdout)")
    p_thm.add_argument("--format", choices=("json", "csv"), default="json")
    p_thm.set_defaults(fn_impl=_cmd_theorem)

    p_scan = sub.add_parser("scan", help="run a configuration scan")
    p_scan.add_argument("--spec", "-s", required=True, help="scan config JSON file")
    p_scan.add_argument("--seed", type=int, help="override the config seed")
    p_scan.add_argument("--out", help="output file (default stdout)")
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.set_defaults(fn_impl=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn_impl(args)
    except (OrdrelError, OSError, OverflowError) as exc:  # overflow: an extreme theta
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
