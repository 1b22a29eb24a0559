"""One-shot gate: run E5, smoke-run E15, run the E16–E24 benches, then tier-1 tests.

Intended as the pre-merge check — it runs the snapshot-store bench (E5:
fails unless the diff store is >= 13.5x smaller than full copies after 30
daily crawls, every version 0 checks out identical to its page, and an
unchanged re-commit writes nothing), exercises the real-parallelism path
end to end (small workload, equality invariants enforced, no timing
assertions), runs the full telemetry-overhead bench (E16: fails when
end-to-end instrumentation costs more than 10%), runs the full extraction
cache bench (E17: fails unless a warm run after 10% churn is >= 3x faster
than cold and warm work exactly matches the churned text), runs the full
fault-tolerance bench (E18: fails unless output under 1/5/10% injected
faults is byte-identical to the fault-free run minus quarantined
documents, fault-free retry overhead is < 5%, and crash recovery loses no
committed transactions), runs the full query-serving bench (E19: fails
unless the cost-based planner beats naive execution by >= 5x on the
selective join and >= 3x on the range scan at 100k rows, a warm
result-cache hit is >= 10x over cold, and every planner query is
row-identical to naive), runs the full columnar-scan bench (E20: fails
unless the vectorized segment executor beats naive row-at-a-time by
>= 10x on full-scan aggregates at 1M rows, zone maps prune most segments
on the trailing-window query, every query is byte-identical to naive,
and compaction survives a simulated crash), runs the full observability
bench (E21: fails unless EXPLAIN ANALYZE actuals match the naive oracle
exactly, the slow-query log captures 100% above / 0% below threshold,
an attached-but-idle slow-query log costs < 2%, full EXPLAIN ANALYZE
instrumentation costs < 15%, and a stale-stats misestimate feeds back
into a targeted re-ANALYZE that corrects the estimate), runs the full
planned-scan bench (E22: fails unless every scan/aggregate query over a
compacted 150k-row table is byte-identical to naive execution; it
reports the planned time, naive for information), runs the full
concurrent-serving bench (E23: fails unless MVCC snapshot readers stay
consistent and row-identical to a serialized oracle under writer +
compaction churn with zero reader lock waits and <= 2x idle
p99 tail latency, and graceful shutdown drains in-flight queries with a
consistent post-drain reopen), runs the full streaming-DGE bench (E24:
fails unless a 1% churn batch over 10k documents re-scores >= 10x fewer
pairs than a full re-resolution while clusters, fused values, and
standing-query notifications stay byte-identical to a full recompute
after every batch, and a producer 5x faster than the consumer is
throttled by the bounded queues without dropping a delta), re-validates
every
``results/BENCH_*.json`` against its declared gates in one place
(``check_gates.py``), and then confirms the whole repo is still
green::

    python benchmarks/run_all.py
    python benchmarks/run_all.py --only E22      # a single step
    python benchmarks/run_all.py --smoke         # tiny workloads, no gates

Exits non-zero if any step fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(title: str, cmd: list[str]) -> int:
    print(f"\n=== {title} ===\n$ {' '.join(cmd)}", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    return subprocess.call(cmd, cwd=REPO_ROOT, env=env)


def _bench(script: str, *extra: str) -> list[str]:
    return [sys.executable,
            os.path.join(REPO_ROOT, "benchmarks", script), *extra]


def build_steps(smoke: bool) -> list[tuple[str, str, list[str]]]:
    """(key, title, cmd) triples.  ``smoke`` shrinks every bench and
    drops its timing gates (identity invariants are still enforced)."""
    flag = ("--smoke",) if smoke else ()
    return [
        ("E5", "E5 snapshot-store bench (space ratio + identity + dedup gates)",
         _bench("bench_e5_snapshot_store.py")),
        ("E15", "E15 parallel-backend bench (smoke)",
         _bench("bench_e15_parallel_backend.py", "--smoke")),
        ("E16", "E16 telemetry-overhead bench (<=10% gate)",
         _bench("bench_e16_telemetry_overhead.py", *flag)),
        ("E17", "E17 extraction-cache bench (>=3x warm speedup gate)",
         _bench("bench_e17_cache_churn.py", *flag)),
        ("E18", "E18 fault-tolerance bench (identity + <5% overhead gates)",
         _bench("bench_e18_fault_tolerance.py", *flag)),
        ("E19", "E19 query-serving bench (planner speedup + cache gates)",
         _bench("bench_e19_query_serving.py", *flag)),
        ("E20", "E20 columnar-scan bench (vectorized speedup + crash gates)",
         _bench("bench_e20_columnar_scan.py", *flag)),
        ("E21", "E21 observability bench (accuracy + overhead gates)",
         _bench("bench_e21_observability.py", *flag)),
        ("E22", "E22 planned-scan bench (identity gate)",
         _bench("bench_e22_planned_scan.py", *flag)),
        ("E23", "E23 concurrent-serving bench (MVCC + admission gates)",
         _bench("bench_e23_concurrent_serving.py", *flag)),
        ("E24", "E24 streaming-DGE bench (O(delta) + identity gates)",
         _bench("bench_e24_streaming.py", *flag)),
        ("gates", "declared-gate re-validation (check_gates.py)",
         _bench("check_gates.py")),
        ("tests", "tier-1 tests",
         [sys.executable, "-m", "pytest", "-x", "-q"]),
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="STEP", default=None,
                        help="run one step by key: E5, E15..E24, 'gates', "
                             "or 'tests'")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads everywhere, no timing gates")
    args = parser.parse_args(argv)

    steps = build_steps(args.smoke)
    if args.only is not None:
        key = args.only.strip()
        key = key.upper() if key.lower().startswith("e") else key.lower()
        steps = [s for s in steps if s[0] == key]
        if not steps:
            keys = ", ".join(k for k, _, _ in build_steps(args.smoke))
            print(f"unknown step {args.only!r}; choose from: {keys}",
                  file=sys.stderr)
            return 2
    for _, title, cmd in steps:
        code = _run(title, cmd)
        if code != 0:
            print(f"\nFAILED: {title} (exit {code})")
            return code
    print("\nall steps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
