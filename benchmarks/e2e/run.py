#!/usr/bin/env python3
"""End-to-end benchmark: raw documents to served queries, one command.

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace] [--smoke]
                                  [--runs K]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in a subprocess of its own (so
``peak_rss_mb`` is attributable), the results are written to
``results/run_<sha>_<seed>.json`` and one row is appended to
``results/trajectory.jsonl``.  With ``--workload`` this process is that
subprocess: it measures one workload, prints every metric by name with its
unit and ends with one JSON line, the form the driver described in
``BENCHMARK.json`` reads.  See README.md.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter, thread_time
from typing import Any

import spec
from trace import Ledger, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = spec.REPO
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")  # same filesystem as the checkout
DEFAULT_SEED = 1

PRODUCT_DEFAULTS = ("sync_wal=False slow_query_seconds=1.0 backend=None "
                    "gate=8 concurrent/16 queued, telemetry spans off")


def _import_program() -> None:
    """Make ``repro`` importable from the checkout this file sits in."""
    source = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"e2e benchmark: no program to measure: {source}/repro is "
                 "missing (run from a checkout of the repository)")
    if source not in sys.path:
        sys.path.insert(1, source)


class Machine:
    """How much slower than at its best the sandbox runs, meanwhile.

    Two things, neither of them the program's doing (README, "Why durations
    are divided by the machine's speed"): the hypervisor holds our CPU for
    part of the time (``steal`` in ``/proc/stat``), and the CPU it gives us
    runs at one of two speeds.  Every ``PERIOD`` seconds a thread reads the
    first and times a fixed piece of interpreter work for the second - in
    thread CPU time, so that waiting for the interpreter lock is not read
    as a slow machine - at a cost of ~1% of the interpreter's time.
    """

    PERIOD = 0.1
    REFERENCE_S = 0.001  # what the loop takes when the sandbox runs fast

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        #: (perf_counter, seconds stolen from our CPU so far, loop seconds)
        self.readings: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e2e-machine",
                                        daemon=True)

    def _stolen(self) -> float:
        with open("/proc/stat", encoding="ascii") as f:
            for line in f:
                if line.startswith(f"cpu{self.cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
        raise RuntimeError(f"/proc/stat has no line for cpu{self.cpu}")

    def _read(self) -> None:
        started = thread_time()
        total = 0
        for i in range(25_000):
            total += i & 7
        loop = thread_time() - started
        self.readings.append((perf_counter(), self._stolen(), loop))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            self._read()

    def start(self) -> None:
        self._read()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, since: float, until: float,
                 wall_clock: bool = True) -> float:
        """Time between two ``perf_counter()`` instants over what the same
        work takes on the sandbox at its best: the median loop reading over
        the reference and, for durations on the wall clock, over the share
        of the time the CPU was ours.  From the readings in between and the
        last one before them."""
        last = [i for i, r in enumerate(self.readings) if r[0] <= since][-1:]
        inside = self.readings[last[0] if last else 0:]
        inside = [r for r in inside if r[0] <= until]
        speed = statistics.median(r[2] for r in inside) / self.REFERENCE_S
        elapsed = inside[-1][0] - inside[0][0]
        if not wall_clock or not elapsed:
            return speed
        stolen = (inside[-1][1] - inside[0][1]) / elapsed
        return speed / max(0.1, 1.0 - stolen)


# --------------------------------------------------------------------------
# one workload, in this process
# --------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, trace_path: str | None = None) -> dict[str, Any]:
    """Set up, run the three timed rounds, check; returns the full result."""
    _import_program()
    from repro.telemetry import metrics

    from workloads import UNTRACED, WORKLOADS

    def counters() -> dict[str, float]:
        return dict(metrics.get_registry().snapshot()["counters"])

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    recorder = Recorder() if trace else None
    # One CPU for the whole process: the interpreter lock serialises the
    # program's threads anyway, and on one CPU what the hypervisor steals
    # from us and how fast the CPU runs are both known exactly.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    machine = Machine(min(allowed))
    machine.start()
    try:
        workload = WORKLOADS[name](seed, seconds, smoke, workdir)
        setups = []  # (wall s, machine slowdown meanwhile)
        for attempt in range(workload.setups):
            if attempt:
                workload.discard()
                gc.collect()
            started = perf_counter()
            workload.setup()
            ended = perf_counter()
            setups.append((ended - started,
                           machine.slowdown(started, ended)))
        # Noise hygiene: what set-up allocated is neither collected nor
        # scanned again while the clock runs.
        gc.collect()
        gc.freeze()
        rounds = []
        before = counters()
        try:
            for index in range(spec.ROUNDS):
                traced = recorder is not None and index > 0
                if traced and index == 1:
                    recorder.install()
                    before = counters()
                rounds.append(workload.run_round(
                    index, recorder if traced else UNTRACED))
            after = counters()
        finally:
            if recorder is not None:
                recorder.uninstall()
        machine.stop()
        # (of a round's wall, of its samples)
        slowdowns = []
        for r in rounds:
            timed = machine.slowdown(*r.timed)
            slowdowns.append((timed, machine.slowdown(
                *r.sampled, wall_clock=False) if r.sampled else timed))
        window = rounds[1:] if trace else rounds
        checks = workload.finish()
        stats = workload.stats(window)  # wall clock, as measured
        system = workload.system
        table = ({"rows": system.db.table_size("facts"),
                  "segments": system.db.segment_counts().get("facts", 0)}
                 if system is not None else None)
        workload.discard()
    finally:
        machine.stop()
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(workdir, ignore_errors=True)
        gc.unfreeze()

    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    facts = workload.facts_written(window)
    if facts:
        stats["workload.wal_bytes_per_fact"] = (
            delta.get("rdbms.wal.bytes", 0.0) / facts)
    attempted = sum(r.attempted for r in rounds) + len(checks)
    failed = sum(r.failed for r in rounds) + sum(
        1 for ok in checks.values() if not ok)

    result: dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "sizes": workload.sizes(),
        "correct": failed == 0 and bool(stats),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "valid": workload.valid(stats),
        "checks": checks, "errors": workload.errors,
        "slowdown_rounds": slowdowns,
    }
    steady = [r.at_reference_speed(*slow)
              for r, slow in zip(rounds, slowdowns)]
    if not trace:
        # What the driver holds against its bounds: the same durations at
        # reference speed, each round divided by its own slowdown.
        gated = workload.stats(steady)
        result["setup_s_each"] = [wall / slow for wall, slow in setups]
        gated["setup_s"] = statistics.median(result["setup_s_each"])
        gated["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_round = [workload.stats([r]) for r in steady]
        samples = workload.sample_counts(rounds)
        samples["setup_s"] = len(setups)
        names = spec.names("end_to_end")
        result["metrics"] = {n: gated[n] for n in names}
        result["rounds"] = {n: [r.get(n) for r in per_round] for n in names
                            if n in per_round[0]}
        result["samples"] = samples
        # the issue's workload-specific names: plain wall clock
        result["also"] = {n: v for n, v in stats.items()
                          if n.startswith("workload.")}
        result["disk_bytes"] = workload.disk
    else:
        ledger = recorder.ledger()
        result["metrics"] = _layer_metrics(ledger, stats, delta, steady, table)
        result["layers_self_s"] = dict(sorted(
            ledger.by_layer().items(), key=lambda kv: -kv[1]))
        result["spans"] = len(recorder.spans)
        if trace_path is not None:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            recorder.write(trace_path, ledger)
            result["trace_file"] = os.path.relpath(trace_path, REPO)
    return result


def _layer_metrics(ledger: Ledger, stats: dict[str, float],
                   delta: dict[str, float], rounds: list[Any],
                   table: dict[str, int] | None) -> dict[str, float]:
    """Every per-layer metric over the traced window (rounds 2 and 3):
    self times from the spans, counts from the registry delta, the rest
    from the workload's own stopwatches; zero where a layer did nothing.
    ``rounds`` are all three, at reference speed."""
    out = {name: 0.0 for name in spec.names("per_layer")}
    for name in out:
        if name in ledger.by_metric:
            out[name] = ledger.by_metric[name]
    for counter, name in spec.COUNTERS.items():
        out[name] = delta.get(counter, 0.0)
    out.update({n: v for n, v in stats.items() if n in out})

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out["extraction.chars_scanned.n"] = sum(
        v for k, v in delta.items() if k.startswith("executor.chars_scanned."))
    out["docmodel.parse.n"] = ledger.calls.get("docmodel.parse_s", 0)
    out["cache.hit_rate"] = ratio(
        out["cache.hits.n"], out["cache.hits.n"] + out["cache.misses.n"])
    out["integration.pairs_per_doc"] = ratio(
        out["integration.pairs_scored.n"], out["core.streaming.docs_in.n"])
    out["storage.rdbms.mvcc.builds_per_commit"] = ratio(
        out["storage.rdbms.mvcc.snapshot_builds.n"],
        out["storage.rdbms.engine.commits.n"])
    out["storage.rdbms.qcache.hit_rate"] = ratio(
        out["storage.rdbms.qcache.hits.n"],
        out["storage.rdbms.qcache.hits.n"]
        + out["storage.rdbms.qcache.misses.n"])
    traced = rounds[1:]
    returned = sum(r.counts.get("rows_returned", 0) for r in traced)
    if table is not None and returned:
        # No counter says how many rows a scan read, so: rows fetched by
        # index + whole segments scanned + whole-table full scans.
        per_segment = ratio(table["rows"], table["segments"])
        examined = (out["storage.rdbms.index.rows_fetched.n"]
                    + out["storage.rdbms.segments.scanned.n"] * per_segment
                    + out["storage.rdbms.planner.plans.full_scan.n"]
                    * table["rows"])
        out["storage.rdbms.planner.rows_examined_per_row_returned"] = (
            examined / returned)
    waits = [own for trace_id, own in ledger.root_self.items()
             if trace_id.startswith("delta-")]
    if waits:
        out["core.streaming.wait_p50_ms"] = statistics.median(waits) * 1000.0
    out["bench.ledger_coverage"] = ledger.coverage
    # round 1 ran untraced; at reference speed, or the machine changing
    # speed between the rounds reads as overhead
    untraced = ratio(rounds[0].wall, rounds[0].ops)
    out["bench.trace_overhead_share"] = ratio(
        ratio(sum(r.wall for r in traced), sum(r.ops for r in traced))
        - untraced, untraced)
    out["bench.traced_ops.n"] = sum(r.attempted for r in traced)
    return out


def report(result: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the driver's result line."""
    print(f"# e2e workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']} "
          f"smoke={int(result['smoke'])}")
    print(f"# product defaults: {PRODUCT_DEFAULTS}")
    print(f"# python {platform.python_version()} nproc={os.cpu_count()} "
          f"gc threshold={gc.get_threshold()}, collected and frozen after "
          "set-up; pinned to one CPU; temp workspaces under "
          "benchmarks/e2e/.work")
    print(f"# sizes: {json.dumps(result['sizes'])}")
    print("# machine slowdown by round (stolen CPU and a reference loop, "
          f"1 = {Machine.REFERENCE_S * 1000:g} ms): "
          + ", ".join(f"{a:.3f}" if a == b else f"{a:.3f} (samples {b:.3f})"
                      for a, b in result["slowdown_rounds"])
          + ("" if result["trace"] else "; the end-to-end durations are "
             "divided by it, workload.* rows are plain wall clock"))
    metrics = result["metrics"]
    if result["trace"]:
        print("# per-layer metrics over the traced window (rounds 2 and 3; "
              "round 1 ran untraced as the overhead reference)")
        for name, value in metrics.items():
            print(f"{name:<58} {_fmt(value):>14} {spec.units()[name]}")
        top = list(result["layers_self_s"].items())[:3]
        print("# top self-time layers: " + ", ".join(
            f"{layer} {seconds:.3f} s" for layer, seconds in top))
    else:
        print(f"{'# metric':<40} {'value':>12} {'unit':<5} {'n':>6}  rounds")
        for name, value in metrics.items():
            each = result["rounds"].get(name) or (
                result["setup_s_each"] if name == "setup_s" else ())
            shown = "[" + ", ".join(_fmt(v) for v in each) + "]" if each \
                else ""
            print(f"{name:<40} {_fmt(value):>12} {spec.units()[name]:<5} "
                  f"{result['samples'].get(name, 1):>6}  {shown}")
        for name, value in result["also"].items():
            print(f"{name:<40} {_fmt(value):>12} {spec.units()[name]:<5}")
        if result.get("disk_bytes"):
            print(f"# stored bytes by store: {json.dumps(result['disk_bytes'])}")
    for check, ok in result["checks"].items():
        print(f"# check {'ok    ' if ok else 'FAILED'} {check}")
    for error in result["errors"]:
        print(f"# error: {error}")
    if not result["valid"]:
        print("# INVALID RUN: the open-loop generator ran late "
              "(more than a tenth of freshness, at the median or at p95)")
    print(f"# failed {result['failed']} of {result['attempted']} attempted "
          f"(failed_share {result['failed_share']:.6f}), "
          f"correct {int(result['correct'])}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": spec.units()[name]}
                    for name, value in metrics.items()},
    }))


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(int(value))


# --------------------------------------------------------------------------
# all workloads, one subprocess each
# --------------------------------------------------------------------------

def git_state() -> tuple[str, bool]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip())
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def run_all(args: argparse.Namespace) -> int:
    os.makedirs(RESULTS, exist_ok=True)
    sha, dirty = git_state()
    runs = []
    for repeat in range(args.runs):
        for name in spec.names("workloads"):
            for trace in ((0, 1) if args.trace else (0,)):
                handle, detail = tempfile.mkstemp(suffix=".json", dir=RESULTS)
                os.close(handle)
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", detail]
                if args.smoke:
                    command.append("--smoke")
                try:
                    done = subprocess.run(command, cwd=REPO)
                    if done.returncode != 0:
                        print(f"e2e: {name} exited {done.returncode}",
                              file=sys.stderr)
                        return done.returncode
                    with open(detail, encoding="utf-8") as f:
                        runs.append(json.load(f))
                finally:
                    os.unlink(detail)
                print()
    meta = {
        "sha": sha, "dirty": dirty, "seed": args.seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "gc": {"threshold": gc.get_threshold(),
               "policy": "collect + freeze after set-up"},
        "flush_policy": "sync_wal=False",
        "seconds": args.seconds, "smoke": args.smoke, "runs": args.runs,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }
    out_dir = args.out or RESULTS
    os.makedirs(out_dir, exist_ok=True)
    run_path = os.path.join(out_dir, f"run_{sha[:12]}_{args.seed}.json")
    with open(run_path, "w", encoding="utf-8") as f:
        json.dump({"meta": meta, "runs": runs}, f, indent=1)
    row = dict(meta, metrics=medians(runs))
    with open(os.path.join(out_dir, "trajectory.jsonl"), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(row) + "\n")
    print(f"wrote {os.path.relpath(run_path)} and one trajectory row")
    bad = [r for r in runs if not r["correct"]]
    return 1 if bad else 0


def medians(runs: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per workload, the median over runs of every metric reported; a name
    both kinds of run report (``workload.*``) is taken from the untraced."""
    values: dict[str, dict[str, list[float]]] = {}
    untraced: dict[str, set[str]] = {}
    for run in sorted(runs, key=lambda r: r["trace"]):
        into = values.setdefault(run["workload"], {})
        mine = untraced.setdefault(run["workload"], set())
        reported = {**run["metrics"], **run.get("also", {})}
        if not run["trace"]:
            mine.update(reported)
        for name, value in reported.items():
            if not run["trace"] or name not in mine:
                into.setdefault(name, []).append(value)
    return {workload: {name: statistics.median(v) for name, v in m.items()}
            for workload, m in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in "
                        "this process (otherwise: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec.contract()["run_seconds"],
                        help="length of the timed phase the work is sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="install the span wrappers and "
                        "report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up; for test_smoke.py")
    parser.add_argument("--runs", type=int, default=1,
                        help="repetitions of every workload (all-workload mode)")
    parser.add_argument("--out", help="with --workload: write the full "
                        "result here as JSON; otherwise: results directory")
    args = parser.parse_args(argv)
    if args.workload is None:
        _import_program()
        return run_all(args)
    if args.workload not in spec.names("workloads"):
        parser.error(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(spec.names("workloads")))
    trace_path = (os.path.join(RESULTS, f"trace_{args.workload}.jsonl")
                  if args.trace else None)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke, trace_path)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
