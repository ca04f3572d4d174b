"""Run one ordrel CLI call under the layer tracer.

The cli-oneshot workload starts this file in place of ``python -m
ordrel.cli`` for its traced passes, with ``-X importtime`` so that the
parent can read the jsonschema import time from stderr:

    python -X importtime perfbench/cli_child.py TRACE_JSON CLI_ARGS...

It writes its entry time, import and run times, spans and counts to
TRACE_JSON and exits with the CLI's exit code.
"""

import time

T_ENTER = time.time()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import ordrel.cli  # noqa: F401
    import_s = time.perf_counter() - start
    cli = sys.modules["ordrel.cli"]

    from tracing import Tracer  # after the timed import, so it adds nothing to it

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        rc = tracer.span("cli.run", lambda: cli.main(argv))
    finally:
        run_s = time.perf_counter() - start
        left = tracer.restore()
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump({"t_enter": T_ENTER, "import_s": import_s, "run_s": run_s,
                   "spans": tracer.spans, "counts": tracer.counts, "left": left}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
