"""E22 — sharded tables: parallel SQL execution vs the unsharded oracle.

The scale-out claim of the PR: hash-partitioning a fact table
(``CREATE TABLE ... SHARD BY (region) SHARDS 4``) and fanning the
planner's scans/aggregates out as per-shard tasks on the process
backend makes set-oriented SQL several times faster than the naive
single-threaded interpreter — while every query stays byte-identical
to an *unsharded* oracle database, and plan-time shard pruning skips
the shards a shard-key point predicate pins away.

Checked invariants (recorded as a ``gates`` list in ``BENCH_e22.json``
and re-validated by ``benchmarks/check_gates.py``):
  * at >= 100k rows with 4 process workers, parallel scan/aggregate
    workloads are >= 3x faster than naive execution (min-of-N);
  * every bench query returns byte-identical JSON (``sort_keys=True``)
    to ``use_planner=False`` on the unsharded oracle — including FLOAT
    aggregates, which are type-gated out of partial->final merging and
    must fall back to the serial fold;
  * a shard-key point predicate prunes >= 50% of the shards
    (``parallel.shards.pruned`` counter);
  * the shard-pruned point query is no slower than the PR 5 index path
    (<= 1.2x an indexed unsharded database on the same query).

Run standalone (writes ``results/BENCH_e22.json``)::

    PYTHONPATH=src python benchmarks/bench_e22_sharded_parallel.py
    PYTHONPATH=src python benchmarks/bench_e22_sharded_parallel.py --smoke

or via pytest: ``pytest benchmarks/bench_e22_sharded_parallel.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from _tables import assert_gates, gate, write_table

from repro.cluster.backends import ProcessPoolBackend
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e22.json")

REGIONS = ["na", "eu", "apac", "latam", "mea", "anz", "in", "jp"]
STATUSES = ["ok", "late", "failed", "retry"]
DAYS = 365
SHARDS = 4
WORKERS = 4


def _schema() -> TableSchema:
    return TableSchema(
        "events",
        (Column("event_id", ColumnType.INT, nullable=False),
         Column("day", ColumnType.INT),
         Column("region", ColumnType.TEXT),
         Column("status", ColumnType.TEXT),
         Column("qty", ColumnType.INT),
         Column("amount", ColumnType.FLOAT),
         Column("flagged", ColumnType.BOOL)),
        primary_key="event_id",
    )


def build_db(num_rows: int, sharded: bool, seed: int = 22) -> Database:
    """The E20-style events fact table, optionally SHARD BY (region)."""
    rng = random.Random(seed)
    db = Database()
    if sharded:
        db.create_table(_schema(), shard_key="region", shard_count=SHARDS)
    else:
        db.create_table(_schema())
    batch = []
    rows_per_day = max(num_rows // DAYS, 1)
    for i in range(num_rows):
        batch.append({
            "event_id": i,
            "day": min(i // rows_per_day, DAYS - 1),
            "region": REGIONS[rng.randrange(len(REGIONS))],
            "status": STATUSES[rng.randrange(len(STATUSES))],
            "qty": rng.randrange(1, 100) if rng.random() > 0.02 else None,
            "amount": rng.random() * 1000.0,
            "flagged": rng.random() < 0.01,
        })
        if len(batch) >= 50_000:
            chunk = batch
            db.run(lambda txn, c=chunk: txn.insert_many("events", c))
            batch = []
    if batch:
        db.run(lambda txn, c=batch: txn.insert_many("events", c))
    # fine-grained segments give the day zone maps room to prune; the
    # coordinator drops pruned segments before pickling task payloads
    db.compact("events", target_rows=4096)
    db.statistics().analyze("events")
    return db


def workloads() -> list[dict]:
    """Bench queries; ``gate`` is the minimum parallel-vs-naive speedup.
    FLOAT aggregates carry no gate: they exercise the type-gated
    fallback (serial fold over the rid-merged parallel scan), whose
    point is identity, not speed."""
    return [
        {"name": "count(*)",
         "sql": "SELECT COUNT(*) FROM events", "gate": 3.0},
        {"name": "count/sum qty (nullable)",
         "sql": "SELECT COUNT(qty), SUM(qty) FROM events", "gate": 3.0},
        {"name": "min/max day",
         "sql": "SELECT MIN(day), MAX(day), MIN(region), MAX(region) "
                "FROM events", "gate": 3.0},
        {"name": "group by region",
         "sql": "SELECT region, COUNT(*), SUM(qty) FROM events "
                "GROUP BY region", "gate": 3.0},
        {"name": "group by region+status",
         "sql": "SELECT region, status, COUNT(*) FROM events "
                "GROUP BY region, status", "gate": 3.0},
        {"name": "selective scan",
         "sql": "SELECT * FROM events WHERE qty > 95 AND "
                "status = 'failed'", "gate": 3.0},
        {"name": "sum/avg amount (float fallback)",
         "sql": "SELECT SUM(amount), AVG(amount) FROM events",
         "gate": None},
        {"name": "group by region avg amount (float fallback)",
         "sql": "SELECT region, AVG(amount) FROM events GROUP BY region",
         "gate": None},
    ]


IDENTITY_QUERIES = [
    "SELECT * FROM events WHERE region = 'eu' AND day < 30",
    "SELECT * FROM events WHERE region IN ('eu', 'jp') AND qty > 90",
    "SELECT COUNT(*) FROM events WHERE qty IS NULL",
    "SELECT event_id, amount FROM events WHERE day = 3 "
    "ORDER BY amount DESC LIMIT 20",
    "SELECT COUNT(*) FROM events WHERE region LIKE 'a%'",
    "SELECT * FROM events ORDER BY qty DESC LIMIT 10",
]


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_speedups(db: Database, oracle: Database,
                   repeats: int) -> list[dict]:
    """Parallel (sharded + process backend) vs naive (unsharded oracle)
    wall-clock per workload; byte-identity asserted first."""
    out = []
    for w in workloads():
        sql = w["sql"]
        fast = execute_sql(db, sql)
        slow = execute_sql(oracle, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), f"rows differ on: {sql}"
        fast_s = _time(lambda: execute_sql(db, sql), repeats)
        slow_s = _time(
            lambda: execute_sql(oracle, sql, use_planner=False), repeats)
        plan = "\n".join(
            r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}"))
        out.append({
            "name": w["name"],
            "sql": sql,
            "gate": w["gate"],
            "naive_seconds": slow_s,
            "parallel_seconds": fast_s,
            "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
            "plan": plan,
        })
    return out


def bench_shard_pruning(db: Database) -> dict:
    """A shard-key point predicate must skip the pinned-away shards."""
    from repro.telemetry import metrics

    registry = metrics.get_registry()
    scanned0 = registry.get("parallel.shards.scanned")
    pruned0 = registry.get("parallel.shards.pruned")
    sql = "SELECT COUNT(*), SUM(qty) FROM events WHERE region = 'eu'"
    execute_sql(db, sql)
    scanned = registry.get("parallel.shards.scanned") - scanned0
    pruned = registry.get("parallel.shards.pruned") - pruned0
    return {
        "sql": sql,
        "shards_scanned": scanned,
        "shards_pruned": pruned,
        "prune_fraction": pruned / (scanned + pruned)
        if scanned + pruned else 0.0,
    }


def bench_pruned_vs_index(db: Database, oracle: Database,
                          repeats: int) -> dict:
    """The shard-pruned point query vs the PR 5 index path on the same
    predicate: pruning must not regress point serving."""
    oracle.create_index("events", "region", "hash")
    oracle.statistics().analyze("events")
    sql = ("SELECT COUNT(*), SUM(qty) FROM events "
           "WHERE region = 'eu' AND day < 30")
    fast = execute_sql(db, sql)
    indexed = execute_sql(oracle, sql)
    assert json.dumps(fast, sort_keys=True) == \
        json.dumps(indexed, sort_keys=True)
    pruned_s = _time(lambda: execute_sql(db, sql), repeats)
    index_s = _time(lambda: execute_sql(oracle, sql), repeats)
    return {
        "sql": sql,
        "pruned_seconds": pruned_s,
        "index_seconds": index_s,
        "ratio": pruned_s / index_s if index_s > 0 else float("inf"),
        "index_plan": "\n".join(
            r["plan"] for r in execute_sql(oracle, f"EXPLAIN {sql}")),
    }


def check_identity(db: Database, oracle: Database) -> int:
    """Byte-identity of the selection battery vs the unsharded naive."""
    for sql in IDENTITY_QUERIES:
        fast = execute_sql(db, sql)
        slow = execute_sql(oracle, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), f"rows differ on: {sql}"
    return len(IDENTITY_QUERIES)


def run_bench(num_rows: int = 150_000, repeats: int = 3,
              smoke: bool = False) -> dict:
    backend = ProcessPoolBackend(max_workers=WORKERS)
    try:
        db = build_db(num_rows, sharded=True)
        db.exec_backend = backend
        oracle = build_db(num_rows, sharded=False)

        # warm the worker pool so timing measures steady state
        execute_sql(db, "SELECT COUNT(*) FROM events WHERE day < 0")

        queries = bench_speedups(db, oracle, repeats)
        pruning = bench_shard_pruning(db)
        point = bench_pruned_vs_index(db, oracle, repeats)
        identity_count = check_identity(db, oracle)

        assert any("ParallelScan" in q["plan"] for q in queries)
        assert any("ParallelAggregate" in q["plan"] for q in queries)

        gates = []
        if not smoke:
            for q in queries:
                if q["gate"] is not None:
                    gates.append(gate(f"speedup:{q['name']}",
                                       q["speedup"], ">=", q["gate"]))
            gates.append(gate("prune_fraction",
                               pruning["prune_fraction"], ">=", 0.5))
            gates.append(gate("pruned_vs_index_ratio",
                               point["ratio"], "<=", 1.2))

        write_table(
            "e22_sharded_parallel",
            f"E22: sharded parallel execution vs unsharded naive "
            f"({num_rows} rows, {SHARDS} shards, {WORKERS} process "
            f"workers, min of {repeats})",
            ["workload", "naive s", "parallel s", "speedup", "gate"],
            [[q["name"], q["naive_seconds"], q["parallel_seconds"],
              q["speedup"], q["gate"] or "-"] for q in queries],
        )
        write_table(
            "e22_shard_pruning",
            f"E22: shard pruning on a shard-key point predicate "
            f"({num_rows} rows)",
            ["metric", "value"],
            [["shards scanned", pruning["shards_scanned"]],
             ["shards pruned", pruning["shards_pruned"]],
             ["prune fraction", pruning["prune_fraction"]],
             ["pruned point s", point["pruned_seconds"]],
             ["index point s", point["index_seconds"]],
             ["pruned/index ratio", point["ratio"]]],
        )

        payload = {
            "experiment": "e22_sharded_parallel",
            "smoke": smoke,
            "cpu_count": os.cpu_count(),
            "num_rows": num_rows,
            "shards": SHARDS,
            "workers": WORKERS,
            "backend": "process",
            "queries": queries,
            "shard_pruning": pruning,
            "pruned_vs_index": point,
            "identity_queries_checked": identity_count,
            "gates": gates,
        }
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(JSON_PATH, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"\nwrote {JSON_PATH}")

        assert_gates(gates)
        return payload
    finally:
        backend.close()


# --------------------------------------------------------------- pytest


def test_e22_smoke():
    """Small-scale E22: identity + plan-shape invariants; no gates."""
    payload = run_bench(num_rows=8_000, repeats=1, smoke=True)
    assert payload["identity_queries_checked"] == len(IDENTITY_QUERIES)
    assert payload["shard_pruning"]["prune_fraction"] >= 0.5
    assert any("ParallelScan" in q["plan"] for q in payload["queries"])


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=150_000,
                        help="rows in the events table")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (min is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no timing gates")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = min(args.rows, 8_000)
        args.repeats = 1
    payload = run_bench(num_rows=args.rows, repeats=args.repeats,
                        smoke=args.smoke)
    for q in payload["queries"]:
        print(f"{q['name']}: {q['speedup']:.1f}x over naive")
    pruning = payload["shard_pruning"]
    print(f"shard pruning: {pruning['shards_pruned']} of "
          f"{pruning['shards_pruned'] + pruning['shards_scanned']} shards "
          f"skipped ({pruning['prune_fraction']:.0%})")
    print(f"pruned point vs index: "
          f"{payload['pruned_vs_index']['ratio']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
