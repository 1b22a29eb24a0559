"""E20 — columnar segments: vectorized scan/aggregate vs row-at-a-time.

The cold-data claim of the PR: freezing committed heap rows into typed
column segments (``ALTER TABLE ... COMPACT``) makes full-scan aggregates
an order of magnitude faster — the executor sums ``array`` buffers and
consults zone maps instead of materializing a python dict per row — while
every query stays byte-identical to the naive interpreter.

Checked invariants (the timing and skip bars are recorded as a ``gates``
list in ``BENCH_e20.json`` and re-validated by ``benchmarks/check_gates.py``):
  * at 1M rows the vectorized executor is >= 10x faster than naive
    row-at-a-time execution on full-scan COUNT/SUM/AVG (min-of-N
    wall-clock) and >= 5x on GROUP BY;
  * a selective range predicate skips segments via zone maps (the
    ``segments.skipped`` counter moves; most segments are never decoded);
  * every bench query — aggregates, GROUP BY, selections — returns
    byte-identical JSON (``sort_keys=True``) to ``use_planner=False``;
  * compaction is WAL-covered: after a simulated crash (torn WAL tail,
    no clean close) the reopened database returns the identical rows and
    the segment layout is rebuilt;
  * late materialization (positions, not row dicts, from every access
    path to Project): an index probe + residual filter + top-k, a
    primary-key point read and a filtered GROUP BY on a dictionary column
    are >= 5x / >= 5x / >= 2x faster than the parent commit's numbers for
    the same statements (``PARENT_SECONDS`` below), rows identical to
    the naive interpreter;
  * writes beside segments (PR 17: delete vectors, no melt): a one-row
    UPDATE by primary key of a frozen 65,536-row segment is >= 20x
    faster than at the parent commit, the GROUP BY right after it >= 5x
    faster and <= 1.5x its time on the untouched segment, no row is
    melted; COMPACT after 10 scattered updates on 16 segments rewrites
    <= 10 of them and freezes no more rows than they hold;
  * COMPACT after that one-row UPDATE splices the segment (its kept rows
    copied as buffers, the one tail row encoded): it takes <= 0.5x the
    time of ``Segment.from_columns`` of the same rows, the two timed
    alternately in one process, and makes the same image;
  * a GROUP BY over a key of 4,000 values, filtered by LIKE / IN on the
    key's own dictionary column, is no slower than at the parent commit
    (``PARENT_SECONDS``), compacted and with the segment cut into six
    stretches by writes; a FLOAT-filtered case is reported, not gated.

Run standalone (writes ``results/BENCH_e20.json``)::

    PYTHONPATH=src python benchmarks/bench_e20_columnar_scan.py
    PYTHONPATH=src python benchmarks/bench_e20_columnar_scan.py --smoke

or via pytest: ``pytest benchmarks/bench_e20_columnar_scan.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time

from _tables import assert_gates, gate, write_table

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.segments import Segment
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.table import gather_column, gather_rids
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e20.json")

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


def build_db(num_rows: int, seed: int = 20,
             workspace: str | None = None) -> Database:
    """events: 1M-row style fact table; ``day`` correlates with insert
    order, so segments get tight day zone maps (the skip demo)."""
    rng = random.Random(seed)
    db = Database(workspace)
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
    return db


def workloads() -> list[dict]:
    """Bench queries; ``gate`` is the minimum vectorized speedup."""
    return [
        {"name": "count(*)",
         "sql": "SELECT COUNT(*) FROM events", "gate": 10.0},
        {"name": "sum/avg amount",
         "sql": "SELECT SUM(amount), AVG(amount) FROM events", "gate": 10.0},
        {"name": "count/sum qty (nullable)",
         "sql": "SELECT COUNT(qty), SUM(qty) FROM events", "gate": 10.0},
        {"name": "min/max",
         "sql": "SELECT MIN(amount), MAX(amount), MIN(day), MAX(day) "
                "FROM events", "gate": 10.0},
        {"name": "group by region",
         "sql": "SELECT region, COUNT(*), SUM(amount) FROM events "
                "GROUP BY region", "gate": 5.0},
        {"name": "group by region+status",
         "sql": "SELECT region, status, COUNT(*), AVG(qty) FROM events "
                "GROUP BY region, status", "gate": 5.0},
        {"name": "filtered aggregate",
         "sql": "SELECT COUNT(*), SUM(amount) FROM events "
                "WHERE status = 'failed'", "gate": None},
        {"name": "zone-map range (last week)",
         "sql": f"SELECT COUNT(*), SUM(amount) FROM events "
                f"WHERE day >= {DAYS - 7}", "gate": None},
    ]


IDENTITY_QUERIES = [
    "SELECT region, COUNT(*), SUM(amount), MIN(qty), MAX(qty) "
    "FROM events GROUP BY region",
    "SELECT status, AVG(amount) FROM events WHERE flagged = TRUE "
    "GROUP BY status",
    "SELECT COUNT(*) FROM events WHERE qty IS NULL",
    "SELECT COUNT(*) FROM events WHERE region IN ('eu', 'jp') "
    "AND amount < 100.0",
    "SELECT event_id, amount FROM events WHERE day = 3 "
    "ORDER BY amount DESC LIMIT 20",
    "SELECT COUNT(*) FROM events WHERE region LIKE 'a%'",
]


#: What the late-materialization cases cost at the parent commit
#: (c6e5f94: row dicts from the scan up) — same statements, same 1M-row
#: table, timed as here (fresh process: build, compact, analyze, index,
#: cases) on the 1-core box the other numbers come from: the median of
#: three runs, each a min of 3 (0.0207/0.0304/0.0351, 0.873/0.934/1.352,
#: 0.385/0.416/0.493).
PARENT_SECONDS = {
    "index_residual_topk": 0.0304,
    "pk_point": 0.934,
    "group_by_dict_key": 0.416,
}

#: What a write to a frozen row cost at the parent commit (0a34e71: it
#: melted the row's segment) — :func:`bench_writes_beside_segments` run
#: against that commit's ``src/`` on the same box, the median of three
#: runs, each a min of 3 (0.0870/0.0955/0.0971, 0.1088/0.1424/0.1479; its
#: COMPACT after the ten updates re-froze the same 10 segments / 40,960
#: rows, the melts having been paid by the updates).
PARENT_SECONDS.update({
    "update_frozen_row": 0.0955,
    "group_by_after_update": 0.1424,
})

#: What the high-cardinality GROUP BY cases cost at the parent commit
#: (276a4d1: a per-query bucket loop over the selected positions) —
#: :func:`bench_high_cardinality` run against that commit's ``src/`` on
#: the same box, the median of three fresh processes, each a min of 3.
PARENT_SECONDS.update({
    "high_card_like_compacted": 0.00460,
    "high_card_in_compacted": 0.00959,
    "high_card_range_compacted": 0.0402,
    "high_card_like_after_writes": 0.00922,
    "high_card_in_after_writes": 0.0353,
    "high_card_range_after_writes": 0.0871,
})

PK_PROBES = 200

#: One default-sized segment: the table the write cases run on.
WRITE_TABLE_ROWS = 65_536

#: Distinct keys of the high-cardinality arm's TEXT column (still
#: dictionary-encoded: at most ``DICT_MAX_ENTRIES``).
HIGH_CARD_KEYS = 4_000


def high_card_cases() -> list[dict]:
    """Grouped aggregates over a key of :data:`HIGH_CARD_KEYS` values:
    two filtered on the key's own dictionary column (LIKE, IN), one on a
    FLOAT column that keeps about half the rows of every group."""
    cities = ", ".join(f"'c{i:04d}'" for i in range(0, HIGH_CARD_KEYS, 40))
    return [
        {"name": "like", "sql": "SELECT city, COUNT(*), AVG(amount) "
                                "FROM places WHERE city LIKE 'c00%' "
                                "GROUP BY city"},
        {"name": "in", "sql": "SELECT city, COUNT(*), AVG(amount) "
                              f"FROM places WHERE city IN ({cities}) "
                              "GROUP BY city"},
        {"name": "range", "sql": "SELECT city, COUNT(*), AVG(amount), "
                                 "MAX(qty) FROM places WHERE amount > 500.0 "
                                 "GROUP BY city"},
    ]


def late_cases(num_rows: int) -> list[dict]:
    """The late-materialization cases; ``gate`` is the minimum speedup
    over :data:`PARENT_SECONDS`."""
    step = max(num_rows // PK_PROBES, 1)
    return [
        {"name": "index_residual_topk", "gate": 5.0, "sqls": [
            "SELECT event_id, amount FROM events WHERE day = 100 "
            "AND amount > 250.0 ORDER BY amount DESC LIMIT 10"]},
        {"name": "pk_point", "gate": 5.0, "sqls": [
            f"SELECT region, amount FROM events WHERE event_id = {i * step}"
            for i in range(PK_PROBES)]},
        {"name": "group_by_dict_key", "gate": 2.0, "sqls": [
            "SELECT region, COUNT(*), AVG(amount) FROM events "
            "WHERE amount > 300.0 GROUP BY region"]},
    ]


def bench_late_materialization(db: Database, num_rows: int,
                               repeats: int) -> list[dict]:
    """Seconds per case (all its statements, min of ``repeats``) on the
    planned path; identity to the naive interpreter asserted.  Runs
    first, on the freshly built table, like the parent's numbers did;
    the hash index on ``day`` it adds serves no other E20 timing query
    (``day >= n`` needs a sorted index)."""
    db.create_index("events", "day", "hash")
    out = []
    for case in late_cases(num_rows):
        sqls = case["sqls"]
        for sql in sqls[:3]:
            fast = execute_sql(db, sql)
            slow = execute_sql(db, sql, use_planner=False)
            assert fast == slow, f"rows differ on: {sql}"
        seconds = _time(lambda: [execute_sql(db, sql) for sql in sqls],
                        repeats)
        plan = "\n".join(
            r["plan"] for r in execute_sql(db, f"EXPLAIN {sqls[0]}"))
        out.append({
            "name": case["name"],
            "statements": len(sqls),
            "gate": case["gate"],
            "seconds": seconds,
            "parent_seconds": PARENT_SECONDS[case["name"]],
            "speedup_over_parent": PARENT_SECONDS[case["name"]] / seconds,
            "plan": plan,
        })
    return out


def bench_writes_beside_segments(repeats: int,
                                 num_rows: int = WRITE_TABLE_ROWS) -> dict:
    """What a write to a frozen row costs, and what it costs the next
    reader, on a one-segment table of ``num_rows``, and what the COMPACT
    after it costs against a fresh encode of the same rows; then what
    COMPACT rewrites after 10 scattered updates on the same rows cut into
    16 segments.  Each repeat starts from a fully frozen table (COMPACT
    between repeats); rows identical to the naive interpreter."""
    group_by = ("SELECT region, COUNT(*), AVG(amount) FROM events "
                "WHERE amount > 300.0 GROUP BY region")
    db = build_db(num_rows)
    db.compact("events")
    db.statistics().analyze("events")
    heap = db._table("events")
    registry = metrics.get_registry()
    untouched = _time(lambda: execute_sql(db, group_by), repeats)
    update_s = after_s = splice_s = encode_s = float("inf")
    melted0 = registry.get("segments.rows_melted")
    for r in range(repeats):
        key = (r * 7919 + num_rows // 2) % num_rows
        started = time.perf_counter()
        execute_sql(db, f"UPDATE events SET amount = {r}.5 "
                        f"WHERE event_id = {key}")
        update_s = min(update_s, time.perf_counter() - started)
        tail_rows = heap.tail_size
        started = time.perf_counter()
        fast = execute_sql(db, group_by)
        after_s = min(after_s, time.perf_counter() - started)
        assert fast == execute_sql(db, group_by, use_planner=False)
        # the rows the compaction freezes, encoded afresh (what every
        # compaction did before segments were spliced), then the splice
        started = time.perf_counter()
        units = list(heap.scan_units())
        fresh = Segment.from_columns(
            heap.schema, gather_rids(units),
            (gather_column(units, name) for name in heap.schema.column_names))
        encode_s = min(encode_s, time.perf_counter() - started)
        started = time.perf_counter()
        db.compact("events")
        splice_s = min(splice_s, time.perf_counter() - started)
        assert [s.image() for s in heap.segments] == [fresh.image()]
    rows_melted = registry.get("segments.rows_melted") - melted0

    segment_rows = max(num_rows // 16, 1)
    db = build_db(num_rows)
    db.compact("events", target_rows=segment_rows)
    segments = db._table("events").segment_count()
    for i in range(10):  # ten segments, one row each
        execute_sql(db, f"UPDATE events SET qty = {i} WHERE event_id = "
                        f"{i * segment_rows + segment_rows // 3}")
    started = time.perf_counter()
    summary = db.compact("events", target_rows=segment_rows)
    compact_s = time.perf_counter() - started
    sql = "SELECT status, COUNT(*), SUM(qty) FROM events GROUP BY status"
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False)
    return {
        "rows": num_rows,
        "update_seconds": update_s,
        "update_parent_seconds": PARENT_SECONDS["update_frozen_row"],
        "update_speedup_over_parent":
            PARENT_SECONDS["update_frozen_row"] / update_s,
        "tail_rows_after_update": tail_rows,
        "rows_melted": rows_melted,
        "group_by_untouched_seconds": untouched,
        "group_by_after_update_seconds": after_s,
        "group_by_parent_seconds": PARENT_SECONDS["group_by_after_update"],
        "group_by_speedup_over_parent":
            PARENT_SECONDS["group_by_after_update"] / after_s,
        "group_by_vs_untouched": after_s / untouched,
        "compact_after_update_seconds": splice_s,
        "fresh_encode_seconds": encode_s,
        "compact_over_fresh_encode": splice_s / encode_s,
        "compact_segments_before": segments,
        "compact_segments_rewritten": summary["segments_created"],
        "compact_rows_frozen": summary["rows_frozen"],
        "compact_rows_budget": 10 * segment_rows,
        "compact_seconds": compact_s,
    }


def bench_high_cardinality(repeats: int,
                           num_rows: int = WRITE_TABLE_ROWS) -> list[dict]:
    """Seconds per :func:`high_card_cases` statement (min of
    ``repeats``) on a one-segment table of ``num_rows``: compacted, then
    after five UPDATEs and one DELETE of frozen rows (the segment folds
    as six stretches around the tail rows, past a dead position).  Rows
    identical to the naive interpreter."""
    rng = random.Random(26)
    db = Database()
    db.create_table(TableSchema(
        "places",
        (Column("id", ColumnType.INT, nullable=False),
         Column("city", ColumnType.TEXT),
         Column("amount", ColumnType.FLOAT),
         Column("qty", ColumnType.INT)),
        primary_key="id"))
    db.run(lambda txn: txn.insert_many("places", [
        {"id": i, "city": f"c{rng.randrange(HIGH_CARD_KEYS):04d}",
         "amount": rng.random() * 1000.0,
         "qty": rng.randrange(100) if rng.random() > 0.05 else None}
        for i in range(num_rows)]))
    db.compact("places")
    out = []
    for layout in ("compacted", "after_writes"):
        if layout == "after_writes":
            for k in range(5):
                execute_sql(db, "UPDATE places SET amount = 1.5 WHERE id = "
                                f"{(2 * k + 1) * num_rows // 11}")
            execute_sql(db, f"DELETE FROM places WHERE id = {num_rows // 2}")
        for case in high_card_cases():
            sql = case["sql"]
            assert json.dumps(execute_sql(db, sql), sort_keys=True) == \
                json.dumps(execute_sql(db, sql, use_planner=False),
                           sort_keys=True), f"rows differ on: {sql}"
            name = f"high_card_{case['name']}_{layout}"
            seconds = _time(lambda: execute_sql(db, sql), repeats)
            out.append({"name": name, "seconds": seconds,
                        "parent_seconds": PARENT_SECONDS[name],
                        "speedup_over_parent": PARENT_SECONDS[name] / seconds})
    return out


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_aggregates(db: Database, repeats: int) -> list[dict]:
    """Vectorized vs naive wall-clock per workload; identity asserted."""
    out = []
    for w in workloads():
        sql = w["sql"]
        fast = execute_sql(db, sql)
        slow = execute_sql(db, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), f"rows differ on: {sql}"
        fast_s = _time(lambda: execute_sql(db, sql), repeats)
        slow_s = _time(
            lambda: execute_sql(db, sql, use_planner=False), repeats)
        plan = "\n".join(
            r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}"))
        out.append({
            "name": w["name"],
            "sql": sql,
            "gate": w["gate"],
            "naive_seconds": slow_s,
            "vectorized_seconds": fast_s,
            "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
            "plan": plan,
        })
    return out


def bench_zone_map_skip(db: Database) -> dict:
    """The skip demo: a trailing-window predicate must prune most
    segments without decoding them."""
    registry = metrics.get_registry()
    scanned0 = registry.get("segments.scanned")
    skipped0 = registry.get("segments.skipped")
    sql = (f"SELECT COUNT(*), SUM(amount) FROM events "
           f"WHERE day >= {DAYS - 7}")
    fast = execute_sql(db, sql)
    slow = execute_sql(db, sql, use_planner=False)
    assert json.dumps(fast, sort_keys=True) == \
        json.dumps(slow, sort_keys=True)
    scanned = registry.get("segments.scanned") - scanned0
    skipped = registry.get("segments.skipped") - skipped0
    return {
        "sql": sql,
        "segments_scanned": scanned,
        "segments_skipped": skipped,
        "skip_fraction": skipped / (scanned + skipped)
        if scanned + skipped else 0.0,
    }


def memory_mb(db: Database) -> dict:
    """What the events table's segments hold, in MiB: their column
    buffers, and the group orders the GROUP BY statements built on them
    (positions, inverses, column copies and null flags — each a typed
    buffer, counted by its size); plus the process's peak RSS."""
    columns = orders = 0
    for segment in db._table("events").segments:
        columns += sum(sys.getsizeof(col.data)
                       for col in segment.columns.values())
        for order in segment._group_orders.values():
            orders += sys.getsizeof(order.positions) \
                + sys.getsizeof(order._rank or b"")
            for name, (data, nulls) in order._copies.items():
                if data is not segment.columns[name].data:
                    orders += sys.getsizeof(data)
                orders += sys.getsizeof(nulls or b"")
    return {"column_buffers": columns / 2 ** 20,
            "group_orders": orders / 2 ** 20,
            "peak_rss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024}


def check_identity(db: Database) -> int:
    """Byte-identity of the selection/aggregate battery vs naive."""
    for sql in IDENTITY_QUERIES:
        fast = execute_sql(db, sql)
        slow = execute_sql(db, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), f"rows differ on: {sql}"
    return len(IDENTITY_QUERIES)


def check_crash_consistency(num_rows: int) -> dict:
    """WAL-covered compaction: kill (torn tail, no close) then reopen."""
    workdir = tempfile.mkdtemp(prefix="e20_crash_")
    try:
        db = build_db(num_rows, workspace=workdir)
        db.compact("events", target_rows=max(num_rows // 8, 1))
        db.run(lambda txn: txn.insert_many("events", [{
            "event_id": num_rows + j, "day": 0, "region": "na",
            "status": "ok", "qty": 1, "amount": 1.0, "flagged": False,
        } for j in range(25)]))
        before = execute_sql(
            db, "SELECT * FROM events ORDER BY event_id",
            use_planner=False)
        segments_before = db._table("events").segment_count()
        # simulated crash: torn half-record at the log tail, no close()
        wal_dir = os.path.join(workdir, "wal")
        with open(os.path.join(wal_dir, max(os.listdir(wal_dir))), "a",
                  encoding="utf-8") as f:
            f.write('{"id": 999999, "txn": 7, "type": "ins')
        db2 = Database(workdir)
        after = execute_sql(
            db2, "SELECT * FROM events ORDER BY event_id",
            use_planner=False)
        assert json.dumps(before, sort_keys=True) == \
            json.dumps(after, sort_keys=True), \
            "rows changed across crash/reopen"
        segments_after = db2._table("events").segment_count()
        assert segments_after == segments_before, (
            f"segment layout not re-established: "
            f"{segments_before} -> {segments_after}")
        agg_fast = execute_sql(
            db2, "SELECT region, COUNT(*), SUM(amount) FROM events "
                 "GROUP BY region")
        agg_slow = execute_sql(
            db2, "SELECT region, COUNT(*), SUM(amount) FROM events "
                 "GROUP BY region", use_planner=False)
        assert json.dumps(agg_fast, sort_keys=True) == \
            json.dumps(agg_slow, sort_keys=True)
        db2.close()
        return {
            "rows": len(after),
            "segments": segments_after,
            "rows_identical": True,
            "layout_restored": True,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_bench(num_rows: int = 1_000_000, repeats: int = 3,
              smoke: bool = False) -> dict:
    db = build_db(num_rows)
    summary = db.compact("events")
    assert summary["rows_frozen"] == num_rows
    db.statistics().analyze("events")

    late = bench_late_materialization(db, num_rows, repeats)
    queries = bench_aggregates(db, repeats)
    memory = memory_mb(db)  # after the GROUP BYs on both keys
    skip = bench_zone_map_skip(db)
    identity_count = check_identity(db)
    crash = check_crash_consistency(min(num_rows, 20_000))
    writes = bench_writes_beside_segments(
        repeats, min(num_rows, WRITE_TABLE_ROWS))
    high_card = bench_high_cardinality(repeats,
                                       min(num_rows, WRITE_TABLE_ROWS))

    write_table(
        "e20_columnar_scan",
        f"E20: vectorized segment scan vs naive execution "
        f"({num_rows} rows, min of {repeats})",
        ["workload", "naive s", "vectorized s", "speedup", "gate"],
        [[q["name"], q["naive_seconds"], q["vectorized_seconds"],
          q["speedup"], q["gate"] or "-"] for q in queries],
    )
    write_table(
        "e20_zone_map_skip",
        f"E20: zone-map segment skipping ({num_rows} rows)",
        ["metric", "value"],
        [["segments scanned", skip["segments_scanned"]],
         ["segments skipped", skip["segments_skipped"]],
         ["skip fraction", skip["skip_fraction"]]],
    )
    write_table(
        "e20_memory",
        f"E20: memory after the GROUP BY statements, MiB ({num_rows} rows)",
        ["metric", "MiB"],
        [["segment column buffers", memory["column_buffers"]],
         ["group orders (2 keys)", memory["group_orders"]],
         ["peak RSS", memory["peak_rss"]]],
    )

    write_table(
        "e20_late_materialization",
        f"E20: late materialization vs the parent commit "
        f"({num_rows} rows, min of {repeats}; parent numbers are for 1M)",
        ["case", "statements", "parent s", "this tree s", "speedup", "gate"],
        [[c["name"], c["statements"], c["parent_seconds"], c["seconds"],
          c["speedup_over_parent"], c["gate"]] for c in late],
    )

    write_table(
        "e20_writes_beside_segments",
        f"E20: a write to a frozen row, and the read after it "
        f"({writes['rows']} rows in one segment, min of {repeats}; "
        f"parent numbers are for {WRITE_TABLE_ROWS})",
        ["case", "parent s", "this tree s", "speedup"],
        [["one-row UPDATE by primary key", writes["update_parent_seconds"],
          writes["update_seconds"], writes["update_speedup_over_parent"]],
         ["GROUP BY right after it", writes["group_by_parent_seconds"],
          writes["group_by_after_update_seconds"],
          writes["group_by_speedup_over_parent"]],
         ["GROUP BY, untouched segment", "-",
          writes["group_by_untouched_seconds"], "-"],
         ["its rows encoded afresh", "-", writes["fresh_encode_seconds"],
          "-"],
         ["COMPACT after the UPDATE (splice)", "-",
          writes["compact_after_update_seconds"],
          1.0 / writes["compact_over_fresh_encode"]]],
    )

    write_table(
        "e20_high_cardinality",
        f"E20: GROUP BY a key of {HIGH_CARD_KEYS} values vs the parent "
        f"commit ({min(num_rows, WRITE_TABLE_ROWS)} rows in one segment, "
        f"min of {repeats}; parent numbers are for {WRITE_TABLE_ROWS})",
        ["case", "parent s", "this tree s", "speedup"],
        [[c["name"], c["parent_seconds"], c["seconds"],
          c["speedup_over_parent"]] for c in high_card],
    )

    gates = []
    if not smoke:
        gates = [gate(f"speedup:{q['name']}", q["speedup"], ">=", q["gate"])
                 for q in queries if q["gate"] is not None]
        gates.append(gate("zone_map_skip_fraction", skip["skip_fraction"],
                          ">=", 0.5))
        gates += [gate(f"speedup_over_parent:{c['name']}",
                       c["speedup_over_parent"], ">=", c["gate"])
                  for c in late]
        gates += [
            gate("speedup_over_parent:update_frozen_row",
                 writes["update_speedup_over_parent"], ">=", 20.0),
            gate("speedup_over_parent:group_by_after_update",
                 writes["group_by_speedup_over_parent"], ">=", 5.0),
            gate("group_by_after_update_vs_untouched",
                 writes["group_by_vs_untouched"], "<=", 1.5),
            gate("compact_after_update_over_fresh_encode",
                 writes["compact_over_fresh_encode"], "<=", 0.5),
        ]
        # the key's own dictionary filtered: no worse than the parent
        gates += [gate(f"speedup_over_parent:{c['name']}",
                       c["speedup_over_parent"], ">=", 1.0)
                  for c in high_card if "_range_" not in c["name"]]
    # counts, not stopwatches: gated at every scale
    gates += [
        gate("compact_segments_rewritten",
             writes["compact_segments_rewritten"], "<=", 10),
        gate("compact_rows_frozen", writes["compact_rows_frozen"], "<=",
             writes["compact_rows_budget"]),
        gate("rows_melted_by_updates", writes["rows_melted"], "<=", 0),
    ]

    payload = {
        "experiment": "e20_columnar_scan",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "num_rows": num_rows,
        "segments_created": summary["segments_created"],
        "queries": queries,
        "memory_mb": memory,
        "zone_map_skip": skip,
        "late_materialization": late,
        "writes_beside_segments": writes,
        "high_cardinality": high_card,
        "identity_queries_checked": identity_count,
        "crash_consistency": crash,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e20_smoke():
    """Small-scale E20: identity + crash invariants; no timing gates."""
    payload = run_bench(num_rows=20_000, repeats=1, smoke=True)
    assert payload["segments_created"] >= 1
    assert payload["crash_consistency"]["rows_identical"]
    assert payload["crash_consistency"]["layout_restored"]
    assert any("SegmentScan" in q["plan"] for q in payload["queries"])
    assert any("VectorizedAggregate" in q["plan"]
               for q in payload["queries"])
    plans = {c["name"]: c["plan"] for c in payload["late_materialization"]}
    assert "IndexLookup" in plans["index_residual_topk"]
    assert "PkLookup" in plans["pk_point"]
    assert "VectorizedAggregate" in plans["group_by_dict_key"]


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="rows in the events table")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (min is reported)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no timing assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = min(args.rows, 20_000)
        args.repeats = 1
    payload = run_bench(num_rows=args.rows, repeats=args.repeats,
                        smoke=args.smoke)
    for q in payload["queries"]:
        print(f"{q['name']}: {q['speedup']:.1f}x over naive")
    for c in payload["late_materialization"]:
        print(f"{c['name']}: {c['speedup_over_parent']:.1f}x over the "
              "parent commit")
    skip = payload["zone_map_skip"]
    print(f"zone-map skip: {skip['segments_skipped']} of "
          f"{skip['segments_skipped'] + skip['segments_scanned']} segments "
          f"pruned ({skip['skip_fraction']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
