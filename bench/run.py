"""The struveops benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {verify-replay,member-sweep,eval-mix} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
``src/struveops`` there, never from an installed copy, and scratch files go to
``.bench_build/bench/``.  Without ``src/struveops`` it exits with code 2.

Every op is one ``struveops`` CLI call made in-process through
``struveops.cli.main`` with stdout captured, by one client in one thread that
sends the next op when the previous one has finished (a closed loop).  The
ops come from ``workloads.py`` and depend only on the workload and the seed.
Each run:

1. writes the inputs, regenerates them to check that the seed reproduces
   them byte for byte and that ``seed + 1`` changes them, and meanwhile runs
   ``verify --suite all --seed 1`` in a fresh interpreter to print the sha256
   of its stdout (information for refactors, not a gate);
2. ``--trace 0``: times ``SETUP_RUNS`` fresh interpreters running the
   workload's first op as ``python -m struveops.cli ...`` (``setup_s``, their
   median), then runs the timed ops untraced for ``S`` seconds in a fresh
   worker process after a warm-up, reading its peak memory after
   ``RSS_OPS`` of them.  ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms``
   come from op latencies scaled by a calibration loop timed between the
   ops (see ``scaled_latencies``); the unscaled figures are printed too;
   ``--trace 1``: runs the ops untraced for ``S/2`` seconds, then again
   traced in a second fresh worker over the first ``TRACED_OPS`` of them (or
   all the untraced run finished, if fewer), and reports the per-layer
   numbers and the tracing overhead on those same ops;
3. on eval-mix, runs the edge probe (see ``workloads.py``) once in a third
   worker, after the measured phases;
4. checks every output in this process, outside the timed phase, against
   references computed here (numpy, scipy.special, mpmath), itemises the
   failures by kind and prints a report, then the result as the last line.

An op fails when it raises out of the CLI (``crash``), exits with a numeric
or usage error (``convergence``, ``domain``, ``pole``, ``parameter``, ...), or
returns an answer the check rejects (``wrong``).  The workloads keep to inputs
the program answers correctly, so ``correct`` is false when any measured op
fails, when the input-regeneration check or the ``verify --seed 1`` replay
fails, when a set-up run exits abnormally, or when an edge-probe op crashes.
The edge probe's other failures are the program's known defects at the edge
of its domain (2F1 near the unit circle, Struve H at large z): they are not
counted in ``attempted``, ``failed`` or ``ok_frac``, but listed by kind in
every eval-mix run and reported as the ``edge.*`` metrics of a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402  (needs the path above)
from tracer import HARNESS  # noqa: E402

SETUP_RUNS = 3
#: Traced ops per workload: whole passes over the member pool, whole eval-mix
#: blocks, so a traced run does the same work on every commit.
TRACED_OPS = {"verify-replay": 12, "member-sweep": W.MEMBER_POOL, "eval-mix": 8 * 240}
#: Timed ops after which peak memory is read (about half a run at the seed):
#: the caches of the program grow with the ops it finishes, so a fixed count
#: keeps a faster program from being charged for doing more work.
RSS_OPS = {"verify-replay": 20, "member-sweep": 2 * W.MEMBER_POOL, "eval-mix": 10 * 240}
LAYERS = ("series", "specialfn", "hypergeom", "quadrature", "operator",
          "classes", "bounds", "suites", "cli")
SUITES = ("recurrence", "ode", "hypergeom", "dominant", "radius", "starlike",
          "re-bounds", "modulus-bounds", "inclusion")
#: eval targets whose evaluator lives in specialfn (for ``specialfn.wrong``).
SPECIALFN_TARGETS = ("struve-h", "struve-l", "struve-n")
SHOWN_FAILURES = 5
#: Calibration time of the reference host the timed figures are scaled to
#: (see ``scaled_latencies``); about the median on a 2-vCPU Xeon VM.
CAL_REF_S = 0.003
#: Every child process is stopped by this many seconds after the start, so a
#: hung program ends the run with an error instead of outliving its budget.
DEADLINE_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "struveops", "cli.py")):
        print(f"error: no struveops source under {root}/src; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    try:
        return Run(root, args).execute()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class BenchError(Exception):
    """The run could not produce a result."""


class Run:
    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = os.path.join(".bench_build", "bench", f"{self.workload}-{self.seed}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.correct = True
        self.notes: list[str] = []
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"the run took longer than {DEADLINE_S} s")
        return left

    def fail_check(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)

    # ---------------------------------------------------------------- phases

    def execute(self) -> int:
        work = os.path.join(self.root, self.work)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        with open(os.path.join(work, "verify-seed1.out"), "wb") as sink:
            replay = subprocess.Popen(self.cli_cmd(["verify", "--suite", "all", "--seed", "1"]),
                                      cwd=self.root, env=self.env, stdout=sink,
                                      stderr=subprocess.DEVNULL)
            try:
                inputs = self.make_inputs(work)
                replay_rc = replay.wait(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                raise BenchError("verify --suite all --seed 1 did not finish") from None
            finally:
                if replay.poll() is None:
                    replay.kill()
                    replay.wait()
        with open(os.path.join(work, "verify-seed1.out"), "rb") as fh:
            replay_sha = hashlib.sha256(fh.read()).hexdigest()
        if replay_rc != 0:
            self.fail_check(f"verify --suite all --seed 1 exited {replay_rc}")
        self.print_env(inputs, replay_sha)

        checker = Checker(inputs.workload, inputs.meta)
        if not self.trace:
            setup = self.time_setup(inputs.ops[0])
            timed = self.run_worker("timed", ["--seconds", str(self.seconds),
                                              "--rss-after", str(RSS_OPS[self.workload])])
            records = timed["ops"]
            outcomes = checker.classify_all(records)
            metrics = self.end_to_end(setup, timed, outcomes)
        else:
            untraced = self.run_worker("untraced", ["--seconds", str(self.seconds / 2)])
            count = min(TRACED_OPS[self.workload], len(untraced["ops"]))
            traced = self.run_worker("traced", ["--count", str(count), "--trace"])
            records = traced["ops"]
            outcomes = checker.classify_all(records)
            metrics = self.per_layer(untraced, traced)
            # The untraced ops are checked too, though only the traced ones
            # are counted in the result.
            self.judge(checker.classify_all(untraced["ops"]))
        self.judge(outcomes)
        failed = sum(o is not None for o in outcomes)
        self.print_failures("failures by kind", inputs.ops, outcomes, [r[0] for r in records])
        if inputs.edge:
            edge = self.run_edge(inputs, checker)
            if self.trace:
                metrics.update(edge)
        for note in self.notes:
            print(f"# check failed: {note}")
        print(json.dumps({"correct": self.correct, "attempted": len(outcomes),
                          "failed": failed, "metrics": metrics}))
        return 0

    def judge(self, outcomes: list) -> None:
        if any(o is not None and o[0] == "crash" for o in outcomes):
            self.fail_check("an op raised out of the CLI")
        failed = sum(o is not None for o in outcomes)
        if failed:
            self.fail_check(f"{failed} ops failed on {self.workload}")

    def run_edge(self, inputs: W.Inputs, checker: Checker) -> dict:
        """Run and check the edge probe; returns its per-layer metrics."""
        records = self.run_worker("edge", ["--edge"])["ops"]
        outcomes = Checker(inputs.workload, inputs.edge_meta, checker.oracle).classify_all(records)
        if any(o is not None and o[0] == "crash" for o in outcomes):
            self.fail_check("an edge-probe op raised out of the CLI")
        self.print_failures("edge probe failures by kind", inputs.edge, outcomes,
                            [r[0] for r in records])
        kinds = [o[0] for o in outcomes if o is not None]
        struve_wrong = sum(
            o is not None and o[0] == "wrong" and inputs.edge_meta[r[0]]["kind"] in SPECIALFN_TARGETS
            for r, o in zip(records, outcomes))
        values = {
            "edge.ops": len(outcomes),
            "edge.failed": len(kinds),
            "edge.convergence": kinds.count("convergence"),
            "edge.wrong": kinds.count("wrong"),
            "specialfn.wrong": struve_wrong,
        }
        return {name: {"value": value, "unit": "count"} for name, value in values.items()}

    def make_inputs(self, work: str) -> W.Inputs:
        inputs = W.generate(self.workload, self.seed, self.work)
        if W.generate(self.workload, self.seed, self.work).digest() != inputs.digest():
            self.fail_check("the same seed did not regenerate identical inputs")
        if W.generate(self.workload, self.seed + 1, self.work).digest() == inputs.digest():
            self.fail_check("a different seed regenerated the same inputs")
        for name, data in inputs.files.items():
            with open(os.path.join(work, name), "wb") as fh:
                fh.write(data)
        with open(os.path.join(work, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump({"ops": inputs.ops, "warmup": inputs.warmup, "edge": inputs.edge}, fh)
        return inputs

    def cli_cmd(self, argv: list[str]) -> list[str]:
        return [sys.executable, "-m", "struveops.cli", *argv]

    def time_setup(self, argv: list[str]) -> list[float]:
        """Launch-to-exit wall time of fresh interpreters running ``argv``."""
        times = []
        for _ in range(SETUP_RUNS):
            t = time.perf_counter()
            try:
                rc = subprocess.run(self.cli_cmd(argv), cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                    timeout=self.remaining()).returncode
            except subprocess.TimeoutExpired:
                raise BenchError("a set-up run did not finish") from None
            times.append(time.perf_counter() - t)
            if rc not in (0, 1, 2, 3):
                self.fail_check(f"set-up run exited {rc}")
        return times

    def run_worker(self, name: str, budget: list[str]) -> dict:
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), self.work, name, *budget]
        try:
            rc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                                timeout=self.remaining()).returncode
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {name} did not finish") from None
        if rc != 0:
            raise BenchError(f"worker {name} exited {rc}")
        base = os.path.join(self.root, self.work, name)
        with open(f"{base}.json", encoding="utf-8") as fh:
            result = json.load(fh)
        with open(f"{base}.jsonl", encoding="utf-8") as fh:
            result["ops"] = [json.loads(line) for line in fh]
        return result

    # --------------------------------------------------------------- metrics

    def end_to_end(self, setup: list[float], timed: dict, outcomes: list) -> dict:
        raw = [r[1] for r in timed["ops"]]
        scaled = scaled_latencies(raw, timed["calibrations"])
        latencies = sorted(scaled)
        n = len(latencies)
        ok = sum(o is None for o in outcomes)
        # Highest percentile with at least ten samples above it; the maximum
        # when a short run has fewer than eleven.
        tail_at = n - 11 if n >= 11 else n - 1
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (ok / sum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (latencies[tail_at] * 1e3, "ms"),
            "ok_frac": (ok / n, "ratio"),
            "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        }
        cal = [c[1] for c in timed["calibrations"]]
        print(f"# setup_s runs: {', '.join(f'{t:.4f}' for t in setup)}")
        print(f"# op_tail_ms is p{100.0 * (tail_at + 1) / n:.2f} of {n} ops "
              f"({n - tail_at - 1} slower); timed phase {timed['wall_s']:.3f} s")
        print(f"# calibration: {len(cal)} runs, median {statistics.median(cal) * 1e3:.4f} ms "
              f"(min {min(cal) * 1e3:.4f}, max {max(cal) * 1e3:.4f}); op times scaled to "
              f"{CAL_REF_S * 1e3:g} ms")
        print(f"# unscaled: ops_per_s {ok / sum(raw):.6g} 1/s, op_p50_ms "
              f"{statistics.median(raw) * 1e3:.6g} ms, op_tail_ms "
              f"{sorted(raw)[tail_at] * 1e3:.6g} ms")
        print(f"# fail_frac = {(n - ok) / n:.6f} ({n - ok} of {n} ops); peak_rss_mb read "
              f"after {min(n, RSS_OPS[self.workload])} ops")
        for name, (value, unit) in values.items():
            print(f"# {name:12s} {value:.6g} {unit}")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def per_layer(self, untraced: dict, traced: dict) -> dict:
        t = traced["trace"]
        fns = t["functions"]
        m = len(traced["ops"])
        zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "yields": 0}

        def fn(name: str) -> dict:
            # A function a later change removes or renames reads as idle.
            return fns.get(name, zero)

        out: dict[str, tuple[float, str]] = {}
        for layer in (*LAYERS, "harness"):
            mine = [v for name, v in fns.items() if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = (sum(v["calls"] for v in mine), "count")
            out[f"{layer}.self_s"] = (sum(v["self_s"] for v in mine), "s")
            if layer != "harness":
                out[f"{layer}.errors"] = (sum(v["errors"] for v in mine), "count")
        samples = fn("classes.iter_membership_samples")["yields"]
        out["classes.samples"] = (samples, "count")
        out["classes.us_per_sample"] = (
            out["classes.self_s"][0] / samples * 1e6 if samples else 0.0, "us")
        out["bounds.q.calls"] = (fn("bounds.best_dominant_q")["calls"], "count")
        out["bounds.q.self_s"] = (fn("bounds.best_dominant_q")["self_s"], "s")
        out["bounds.h.self_s"] = (fn("bounds.sharp_bound_h")["self_s"], "s")
        for suite in SUITES:
            out[f"suites.{suite}.s"] = (fn(f"suites.run_{suite.replace('-', '_')}")["incl_s"], "s")
        quad = [v for name, v in fns.items() if name.startswith("quadrature.")]
        lookups = sum(v["calls"] for v in quad)
        builds = sum(v["builds"] for v in quad)
        out["quadrature.lookups"] = (lookups, "count")
        out["quadrature.builds"] = (builds, "count")
        out["quadrature.hit_ratio"] = (1.0 - builds / lookups if lookups else 0.0, "ratio")
        out["quadrature.build_s"] = (sum(v["build_s"] for v in quad), "s")
        out["quadrature.cached_rules"] = (sum(v["cached"] for v in quad), "count")
        for route in ("series", "pfaff", "outer"):
            tagged = t["tagged"].get(f"hypergeom.f21:{route}", {"calls": 0, "self_s": 0.0})
            out[f"hypergeom.route.{route}.calls"] = (tagged["calls"], "count")
            out[f"hypergeom.route.{route}.self_s"] = (tagged["self_s"], "s")
        out["hypergeom.euler.self_s"] = (fn("hypergeom.f21_euler")["self_s"], "s")
        out["specialfn.struve.self_s"] = (
            sum(fn(f"specialfn.{f}")["self_s"] for f in ("struve_h", "struve_l", "generalized_m")), "s")
        out["specialfn.gamma.calls"] = (fn("specialfn.gamma")["calls"], "count")
        # Overwritten by the edge probe on eval-mix, the only workload with one.
        for name in ("edge.ops", "edge.failed", "edge.convergence", "edge.wrong",
                     "specialfn.wrong"):
            out[name] = (0, "count")
        out["cli.parser_s"] = (fn("cli.build_parser")["self_s"], "s")
        out["setup.import_s"] = (untraced["import_s"], "s")
        base = sum(r[1] for r in untraced["ops"][:m])
        out["trace.overhead_frac"] = (sum(r[1] for r in traced["ops"]) / base - 1.0, "ratio")
        accounted = sum(v["self_s"] for v in fns.values())
        out["trace.accounted_frac"] = (accounted / t["wall_s"], "ratio")
        out["trace.wall_s"] = (t["wall_s"], "s")
        out["trace.ops"] = (m, "count")
        out["trace.spans"] = (t["spans"], "count")

        print(f"# traced {m} ops, {t['spans']} spans, wall {t['wall_s']:.4f} s; layer and "
              f"harness self times sum to {accounted:.4f} s")
        for layer in (*LAYERS, "harness"):
            share = out[f"{layer}.self_s"][0] / t["wall_s"]
            print(f"# {layer:10s} self {out[f'{layer}.self_s'][0]:10.5f} s ({share:6.1%})"
                  f"  calls {out[f'{layer}.calls'][0]}")
        print(f"# quadrature hit ratio {out['quadrature.hit_ratio'][0]:.4f} of {lookups} lookups")
        self.report_unreached(fns)
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}

    # ---------------------------------------------------------------- report

    def print_env(self, inputs: W.Inputs, replay_sha: str) -> None:
        versions = {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")}
        cpu = "unknown"
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        info = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "verify_seed1_sha256": replay_sha, "inputs_sha256": inputs.digest(),
        }
        print(f"# env {json.dumps(info)}")

    def print_failures(self, title: str, ops: list[list[str]], outcomes: list,
                       indices: list[int]) -> None:
        kinds: dict[str, int] = {}
        shown = []
        for idx, outcome in zip(indices, outcomes):
            if outcome is None:
                continue
            kinds[outcome[0]] = kinds.get(outcome[0], 0) + 1
            if len(shown) < SHOWN_FAILURES:
                shown.append((idx, outcome))
        total = len(outcomes)
        parts = ", ".join(f"{k} {n} ({n / total:.4%})" for k, n in sorted(kinds.items()))
        print(f"# {title}: {parts or 'none'} of {total} ops")
        for idx, (kind, detail) in shown:
            argv = " ".join(shlex.quote(a) for a in ops[idx])
            print(f"#   op {idx} [{kind}] struveops {argv}  -- {detail}")

    def report_unreached(self, fns: dict) -> None:
        """Public functions no traced op reached, for this workload and for every
        workload traced so far against the same source tree."""
        digest = hashlib.sha256()
        src = os.path.join(self.root, "src", "struveops")
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
        store = os.path.join(self.root, ".bench_build", "bench", "reached", digest.hexdigest()[:16])
        os.makedirs(store, exist_ok=True)
        public = sorted(name for name in fns if name != HARNESS)
        reached = sorted(name for name in public if fns[name]["calls"])
        with open(os.path.join(store, f"{self.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(reached, fh)
        unreached = [name for name in public if name not in reached]
        print(f"# unreached by {self.workload}: {', '.join(unreached) or 'none'}")
        seen, union = [], set()
        for name in sorted(os.listdir(store)):
            with open(os.path.join(store, name), encoding="utf-8") as fh:
                union.update(json.load(fh))
            seen.append(name[: -len(".json")])
        never = [name for name in public if name not in union]
        print(f"# unreached by every traced workload ({', '.join(seen)}): {', '.join(never) or 'none'}")


def scaled_latencies(latencies: list[float], calibrations: list) -> list[float]:
    """Op latencies scaled to a host that runs ``worker.calibrate`` in
    ``CAL_REF_S``.

    A shared host can change speed by 10-30 % for seconds at a time (seen on
    a 2-vCPU VM), which moves every op and the calibration alike; unscaled,
    the figures of the same code then spread between runs by as much as the
    bounds allow.  Each op is multiplied by ``CAL_REF_S`` over the median of the two
    calibrations before it and the two after it (``latencies`` are in run
    order; each calibration is ``(index of the op it preceded, seconds)``).
    The calibration does not call the program, so a faster program still
    reads faster.
    """
    at = [c[0] for c in calibrations]
    secs = [c[1] for c in calibrations]
    scaled = []
    for k, latency in enumerate(latencies):
        j = bisect.bisect_right(at, k)
        scaled.append(latency * CAL_REF_S / statistics.median(secs[max(0, j - 2): j + 2]))
    return scaled


class Checker:
    """Classifies op outcomes; caches references per op index."""

    def __init__(self, workload: str, meta: list[dict], oracle: W.EvalOracle | None = None) -> None:
        self.workload = workload
        self.meta = meta
        self.oracle = oracle or (W.EvalOracle() if workload == "eval-mix" else None)
        self.member_refs: dict[int, float] = {}
        self.verdicts: dict[tuple[int, str], tuple[str, str] | None] = {}

    def classify_all(self, records: list) -> list[tuple[str, str] | None]:
        return [self.classify(rec) for rec in records]

    def classify(self, rec: list) -> tuple[str, str] | None:
        """None for a correct op, else ``(kind, detail)``."""
        idx, _, rc, out, err, crash = rec
        if crash is not None:
            return "crash", crash
        if rc in (2, 3):
            match = re.match(r"error \[([\w-]+)\]", err)
            last = err.strip().splitlines()[-1] if err.strip() else f"exit {rc}"
            return (match.group(1) if match else "usage"), last
        key = (idx, out)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(idx, rc, out)
        return self.verdicts[key]

    def _check(self, idx: int, rc: int, out: str) -> tuple[str, str] | None:
        meta = self.meta[idx]
        workload = self.workload
        try:
            if workload == "verify-replay":
                reason = W.check_verify(meta, rc, out)
            elif workload == "member-sweep":
                if idx not in self.member_refs:
                    self.member_refs[idx] = W.member_reference(meta)
                reason = (f"exit {rc}" if rc not in (0, 1)
                          else W.check_member(meta, rc, out, self.member_refs[idx]))
            else:
                reason = f"exit {rc}" if rc != 0 else W.check_eval(self.oracle, meta, out)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc}"
        return None if reason is None else ("wrong", reason)


if __name__ == "__main__":
    sys.exit(main())
