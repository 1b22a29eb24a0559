"""E22 — set-oriented SQL over a compacted fact table: the planned path.

The planner's default plan over columnar segments (zone-map pruning,
column-kernel filters, the vectorized aggregate fold) runs E22's eight
scan / aggregate queries on one thread, and every one of them, and the
six identity queries beside them, must return byte-identical JSON
(``sort_keys=True``) to the naive row-at-a-time interpreter
(``use_planner=False``).  The planned time is the reported number; the
naive time is an information column, not a gate.

A second table runs the serving workloads' ``range_topk`` shape
(``attribute = X AND value_num > N ORDER BY value_num DESC LIMIT 10``)
on a 20,000-row one-segment ``facts`` table indexed like the system's:
the rows it examines per row it returns — index rows fetched plus rows
the top-k walk tested (``rdbms.index.rows_fetched`` +
``planner.topk.rows_walked``) — and its median time per statement.
The index-then-filter plan examined 2,000 rows for 10 (200).

Checked invariants (recorded as a ``gates`` list in ``BENCH_e22.json``
and re-validated by ``benchmarks/check_gates.py``):
  * every bench query is byte-identical to naive execution;
  * ``range_topk`` examines at most 40 rows per row returned (a fifth of
    the index-then-filter plan's 200).

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
import statistics
import sys
import time

from _tables import assert_gates, gate, write_table

from repro.core.system import facts_schema
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics

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


#: ``range_topk`` statements timed, and the gate on the rows they
#: examine per row they return (a fifth of the index plan's 200).
TOPK_STATEMENTS = 100
TOPK_EXAMINED_GATE = 40.0


def build_facts(entities: int = 2_000, seed: int = 22) -> Database:
    """The serving workloads' ``facts`` table: ``entities`` x 10
    attributes, values distinct per attribute, hash indexes on ``entity``
    and ``attribute``, compacted into one segment."""
    rng = random.Random(seed)
    db = Database()
    db.create_table(facts_schema())
    db.create_index("facts", "entity")
    db.create_index("facts", "attribute")
    values = {a: rng.sample(range(100_000), entities) for a in range(10)}
    db.run(lambda txn: txn.insert_many("facts", [
        {"fact_id": e * 10 + a, "entity": f"entity_{e:05d}",
         "attribute": f"attr_{a:02d}", "value_text": None,
         "value_num": values[a][e] / 100.0,
         "confidence": rng.randrange(300, 1000) / 1000.0,
         "doc_id": f"doc_{e % 977}"}
        for e in range(entities) for a in range(10)]))
    db.compact("facts")
    return db


def bench_range_topk(repeats: int, seed: int = 22) -> dict:
    """``range_topk`` over :func:`build_facts`: rows examined per row
    returned, median milliseconds per statement (each the min of
    ``repeats``), the plan, and identity to the naive interpreter."""
    db = build_facts()
    rng = random.Random(seed)
    sqls = [("SELECT entity, value_num FROM facts WHERE attribute = "
             f"'attr_{rng.randrange(10):02d}' AND value_num > "
             f"{rng.randrange(0, 900)} ORDER BY value_num DESC LIMIT 10")
            for _ in range(TOPK_STATEMENTS)]
    registry = metrics.get_registry()
    names = ("rdbms.index.rows_fetched", "planner.topk.rows_walked")
    for sql in sqls:  # the first reads build the index contents, imprints
        execute_sql(db, sql)
    before = [registry.get(name) for name in names]
    returned = sum(len(execute_sql(db, sql)) for sql in sqls)
    examined = int(sum(registry.get(name) for name in names) - sum(before))
    return {
        "statements": len(sqls),
        "rows_returned": returned,
        "rows_examined": examined,
        "examined_per_returned": examined / returned,
        "median_ms": statistics.median(
            _time(lambda sql=sql: execute_sql(db, sql), repeats) * 1000.0
            for sql in sqls),
        "identical": all(_identical(db, sql) for sql in sqls[:20]),
        "plan": "\n".join(
            r["plan"] for r in execute_sql(db, f"EXPLAIN {sqls[0]}")),
    }


def run_bench(num_rows: int = 150_000, repeats: int = 3,
              smoke: bool = False) -> dict:
    db = build_db(num_rows)
    queries = bench_queries(db, repeats)
    identity = [_identical(db, sql) for sql in IDENTITY_QUERIES]
    topk = bench_range_topk(repeats)
    checked = len(queries) + len(identity) + 1
    identical = sum(q["identical"] for q in queries) + sum(identity) \
        + topk["identical"]
    gates = [gate("identical_to_naive", identical, "==", checked),
             gate("range_topk_rows_examined_per_row_returned",
                  topk["examined_per_returned"], "<=", TOPK_EXAMINED_GATE)]

    write_table(
        "e22_planned_scan",
        f"E22: planned path over a compacted table ({num_rows} rows, "
        f"one thread, min of {repeats}); naive for information",
        ["workload", "planned ms", "naive ms", "identical"],
        [[q["name"], q["planned_seconds"] * 1000.0,
          q["naive_seconds"] * 1000.0, q["identical"]] for q in queries],
    )
    write_table(
        "e22_range_topk",
        "E22: range_topk (attribute = X AND value_num > N ORDER BY "
        f"value_num DESC LIMIT 10), {topk['statements']} statements over "
        "a 20,000-row one-segment facts table",
        ["rows examined", "rows returned", "examined per returned",
         "gate", "median ms", "identical"],
        [[topk["rows_examined"], topk["rows_returned"],
          topk["examined_per_returned"], f"<= {TOPK_EXAMINED_GATE:g}",
          topk["median_ms"], topk["identical"]]],
    )
    payload = {
        "experiment": "e22_planned_scan",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "repeats": repeats,
        "queries": queries,
        "range_topk": topk,
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
    assert "walk=value_num desc" in payload["range_topk"]["plan"]


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
    topk = payload["range_topk"]
    print(f"range_topk: {topk['examined_per_returned']:.1f} rows examined "
          f"per row returned, {topk['median_ms']:.3f} ms median")
    return 0


if __name__ == "__main__":
    sys.exit(main())
