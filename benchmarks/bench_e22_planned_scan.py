"""E22 — set-oriented SQL over a compacted fact table: the planned path.

The planner's default plan over columnar segments (zone-map pruning,
column-kernel filters, the vectorized aggregate fold) runs E22's eight
scan / aggregate queries on one thread, and every one of them, and the
six identity queries beside them, must return byte-identical JSON
(``sort_keys=True``) to the naive row-at-a-time interpreter
(``use_planner=False``).  The planned time is the reported number; the
naive time is an information column, not a gate.

Checked invariant (recorded as a ``gates`` list in ``BENCH_e22.json``
and re-validated by ``benchmarks/check_gates.py``):
  * every bench query is byte-identical to naive execution.

Run standalone (writes ``results/BENCH_e22.json``)::

    PYTHONPATH=src python benchmarks/bench_e22_planned_scan.py
    PYTHONPATH=src python benchmarks/bench_e22_planned_scan.py --smoke

or via pytest: ``pytest benchmarks/bench_e22_planned_scan.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from _tables import assert_gates, gate, write_table

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e22.json")

REGIONS = ["na", "eu", "apac", "latam", "mea", "anz", "in", "jp"]
STATUSES = ["ok", "late", "failed", "retry"]
DAYS = 365


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


def build_db(num_rows: int, seed: int = 22) -> Database:
    """The E20-style events fact table, compacted into 4,096-row
    segments (room for the day zone maps to prune) and analyzed."""
    rng = random.Random(seed)
    db = Database()
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
    db.compact("events", target_rows=4096)
    db.statistics().analyze("events")
    return db


WORKLOADS = [
    ("count(*)", "SELECT COUNT(*) FROM events"),
    ("count/sum qty (nullable)", "SELECT COUNT(qty), SUM(qty) FROM events"),
    ("min/max day", "SELECT MIN(day), MAX(day), MIN(region), MAX(region) "
                    "FROM events"),
    ("group by region", "SELECT region, COUNT(*), SUM(qty) FROM events "
                        "GROUP BY region"),
    ("group by region+status", "SELECT region, status, COUNT(*) FROM events "
                               "GROUP BY region, status"),
    ("selective scan", "SELECT * FROM events WHERE qty > 95 AND "
                       "status = 'failed'"),
    ("sum/avg amount (float)", "SELECT SUM(amount), AVG(amount) FROM events"),
    ("group by region avg amount (float)",
     "SELECT region, AVG(amount) FROM events GROUP BY region"),
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


def _identical(db: Database, sql: str) -> bool:
    return json.dumps(execute_sql(db, sql), sort_keys=True) == json.dumps(
        execute_sql(db, sql, use_planner=False), sort_keys=True)


def bench_queries(db: Database, repeats: int) -> list[dict]:
    """Planned and naive wall-clock per workload (min of ``repeats``),
    with the planned answer's identity to naive."""
    out = []
    for name, sql in WORKLOADS:
        out.append({
            "name": name,
            "sql": sql,
            "identical": _identical(db, sql),
            "planned_seconds": _time(lambda: execute_sql(db, sql), repeats),
            "naive_seconds": _time(
                lambda: execute_sql(db, sql, use_planner=False), repeats),
            "plan": "\n".join(
                r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}")),
        })
    return out


def run_bench(num_rows: int = 150_000, repeats: int = 3,
              smoke: bool = False) -> dict:
    db = build_db(num_rows)
    queries = bench_queries(db, repeats)
    identity = [_identical(db, sql) for sql in IDENTITY_QUERIES]
    checked = len(queries) + len(identity)
    identical = sum(q["identical"] for q in queries) + sum(identity)
    gates = [gate("identical_to_naive", identical, "==", checked)]

    write_table(
        "e22_planned_scan",
        f"E22: planned path over a compacted table ({num_rows} rows, "
        f"one thread, min of {repeats}); naive for information",
        ["workload", "planned ms", "naive ms", "identical"],
        [[q["name"], q["planned_seconds"] * 1000.0,
          q["naive_seconds"] * 1000.0, q["identical"]] for q in queries],
    )
    payload = {
        "experiment": "e22_planned_scan",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "repeats": repeats,
        "queries": queries,
        "identity_queries_checked": len(identity),
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")
    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e22_smoke():
    """Small-scale E22: every query identical to naive, columnar plans."""
    payload = run_bench(num_rows=8_000, repeats=1, smoke=True)
    assert payload["identity_queries_checked"] == len(IDENTITY_QUERIES)
    assert all(q["identical"] for q in payload["queries"])
    assert any("VectorizedAggregate" in q["plan"] for q in payload["queries"])
    assert any("SegmentScan" in q["plan"] for q in payload["queries"])


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=150_000,
                        help="rows in the events table")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (min is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, one repeat")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = min(args.rows, 8_000)
        args.repeats = 1
    payload = run_bench(num_rows=args.rows, repeats=args.repeats,
                        smoke=args.smoke)
    for q in payload["queries"]:
        print(f"{q['name']}: {q['planned_seconds'] * 1000.0:.2f} ms planned, "
              f"{q['naive_seconds'] * 1000.0:.1f} ms naive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
