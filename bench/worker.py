"""Run one workload's ops in this process through ``struveops.cli.main``.

    python3 bench/worker.py <work_dir> <name> (--seconds S | --count N | --edge) \
        [--rss-after K] [--trace]

Reads ``<work_dir>/ops.json`` (the warm-up ops and the timed ops, each the
argument list of one CLI call), imports ``struveops`` from ``src/`` under the
current directory, runs the warm-up ops untimed, then runs the timed ops in
order, one at a time in one thread (a closed loop with one client), cycling if
they run out: for ``S`` seconds, or exactly ``N`` ops.  ``--edge`` instead
runs each op of the edge probe once, without warm-up.  Each op's stdout and
stderr are captured.  With ``--trace`` every public function of the nine layers
is wrapped (see ``tracer.py``) after the warm-up; the spans are saved as
``<work_dir>/<name>-spans.npz``.  Each op's index, latency, exit code and
output are appended to ``<work_dir>/<name>.jsonl`` as soon as it finishes, so
this process holds no growing record of past ops; the run's totals go to
``<work_dir>/<name>.json``.  Peak resident memory is read after the first ``K``
timed ops (or at the end, if fewer ran): a fixed amount of work, so a faster
program that finishes more ops in the window is not charged for their caches.

A run with ``--seconds`` also times ``calibrate`` before the first op, then
before an op whenever ``CAL_EVERY_S`` have passed since the last calibration,
and once after the last op; the times go to ``<work_dir>/<name>.json`` with
the index of the op each one preceded.

The benchmark checks the outputs in another process, so this process's time
and peak memory are the program's own work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

LAYERS = ("series", "specialfn", "hypergeom", "quadrature", "operator",
          "classes", "bounds", "suites", "cli")


def f21_region(hp, z, *args, **kwargs) -> str:
    """The 2F1 dispatcher's region of ``z``: series (|z| <= 1/2), pfaff
    (|z| > 1/2, Re z < 1/2) or outer (|z| > 1/2, Re z >= 1/2).  Regions, not
    the code path taken, so the label keeps its meaning when the dispatcher
    gains routes."""
    z = complex(z)
    if abs(z) <= 0.5:
        return "series"
    return "pfaff" if z.real < 0.5 else "outer"


#: Longest stretch of ops between two calibrations, in seconds.
CAL_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds a fixed piece of work takes, about 3 ms: a complex series loop
    in Python and small numpy array operations, the two kinds of work the
    program does, in code that does not depend on the program.  The benchmark
    scales op latencies by the calibrations around them to take the host's
    changes of speed out of its figures (see ``run.py``)."""
    t = time.perf_counter()
    z, term, total = 0.3 + 0.4j, 1.0 + 0.0j, 0.0j
    for n in range(8000):
        term *= (0.5 + n) / (1.5 + n) * z
        total += term
    x = np.linspace(0.0, 1.0, 720)
    for _ in range(10):
        total += np.exp(1j * np.log1p(x * z)).sum()
    return time.perf_counter() - t


def run_op(cli, argv: list[str]) -> tuple[int | None, str, str, str | None]:
    """One CLI call: (exit code, stdout, stderr, uncaught exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the CLI let an exception escape: a crash
            rc, crash = None, f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), crash


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("work_dir")
    parser.add_argument("name")
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--count", type=int)
    budget.add_argument("--edge", action="store_true")
    parser.add_argument("--rss-after", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import struveops.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"struveops was imported from {cli.__file__}, not from {src}")

    with open(os.path.join(args.work_dir, "ops.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.edge:
        ops = spec["edge"]
        args.count = len(ops)
    else:
        ops = spec["ops"]
        for argv in spec["warmup"]:
            run_op(cli, argv)

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer("struveops", LAYERS, {"hypergeom.f21": f21_region})
        tracer.install()

    clock = time.perf_counter
    peak_rss_kb = None
    calibrations: list[tuple[int, float]] = []
    last_cal = float("-inf")
    with open(os.path.join(args.work_dir, f"{args.name}.jsonl"), "w", encoding="utf-8") as log:
        begin = clock()
        i = 0
        while True:
            if args.seconds is not None and clock() - last_cal >= CAL_EVERY_S:
                calibrations.append((i, calibrate()))
                last_cal = clock()
            argv = ops[i % len(ops)]
            if tracer is not None:
                tracer.begin_op(i)
            t = clock()
            rc, out, err, crash = run_op(cli, argv)
            latency = clock() - t
            if tracer is not None:
                tracer.end_op()
            log.write(json.dumps([i % len(ops), latency, rc, out, err, crash]) + "\n")
            i += 1
            if i == args.rss_after:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.count is not None:
                if i >= args.count:
                    break
            elif clock() - begin >= args.seconds:
                break
        wall = clock() - begin
    if args.seconds is not None:
        calibrations.append((i, calibrate()))
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "import_s": import_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "calibrations": calibrations,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(os.path.join(args.work_dir, f"{args.name}-spans.npz"))
    with open(os.path.join(args.work_dir, f"{args.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
