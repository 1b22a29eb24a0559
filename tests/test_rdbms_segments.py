"""Columnar segments: compaction, delete vectors beside frozen segments,
vectorized execution, zone-map skipping, WAL/checkpoint recovery, and the
reopen regression."""

import json
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.filestore import RecordFileStore
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.segments import Segment
from repro.storage.rdbms.sql import SqlError, execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.telemetry.report import render_report, summarize_trace


def _schema():
    return TableSchema(
        "t",
        (Column("id", ColumnType.INT, nullable=False),
         Column("v", ColumnType.INT),
         Column("f", ColumnType.FLOAT),
         Column("s", ColumnType.TEXT),
         Column("b", ColumnType.BOOL)),
        primary_key="id",
    )


def _row(i):
    return {
        "id": i,
        "v": (i % 37) if i % 11 else None,
        "f": i * 0.25,
        "s": f"g{i % 5}" if i % 7 else None,
        "b": i % 2 == 0,
    }


def _load(db, n=300):
    db.create_table(_schema())

    def insert(txn):
        for i in range(n):
            txn.insert("t", _row(i))

    db.run(insert)


def _rows(db, use_planner=True):
    return execute_sql(db, "SELECT * FROM t ORDER BY id",
                       use_planner=use_planner)


# ------------------------------------------------------------- compaction


def test_compact_freezes_tail_and_scan_is_identical():
    db = Database()
    _load(db)
    before = _rows(db)
    summary = db.compact("t")
    assert summary["rows_frozen"] == 300
    assert summary["segments_created"] >= 1
    heap = db._table("t")
    assert heap.tail_size == 0
    assert len(heap) == 300
    after = _rows(db)
    assert json.dumps(before, sort_keys=True) == json.dumps(after,
                                                            sort_keys=True)


def test_compact_is_idempotent_and_chunked():
    db = Database()
    _load(db, 100)
    created, frozen, _ = db._table("t").compact(target_rows=30)
    assert (created, frozen) == (4, 100)  # 30+30+30+10
    assert db.compact("t")["rows_frozen"] == 0  # nothing left to freeze


def test_alter_table_compact_sql():
    db = Database()
    _load(db, 50)
    out = execute_sql(db, "ALTER TABLE t COMPACT")
    assert out == [{"compacted": "t", "segments_created": 1,
                    "rows_frozen": 50}]
    with pytest.raises(SqlError, match="unknown table"):
        execute_sql(db, "ALTER TABLE nope COMPACT")


def test_insert_after_compact_lands_in_tail_and_scan_merges():
    db = Database()
    _load(db, 20)
    db.compact("t")
    db.run(lambda txn: txn.insert("t", _row(20)))
    heap = db._table("t")
    assert heap.tail_size == 1
    assert [r["id"] for r in _rows(db)] == list(range(21))


# ------------------------------------------- writes beside frozen segments


def test_update_of_frozen_row_masks_one_position():
    db = Database()
    _load(db, 60)
    db.compact("t")
    registry = metrics.get_registry()
    melted_before = registry.get("segments.melted")
    masked_before = registry.get("segments.rows_masked")

    def bump(txn):
        rid = next(r.rid for r in txn.scan("t") if r.values["id"] == 3)
        txn.update("t", rid, {"v": 999})

    db.run(bump)
    heap = db._table("t")
    assert registry.get("segments.melted") == melted_before
    assert registry.get("segments.rows_masked") == masked_before + 1
    assert (heap.segment_count(), heap.tail_size, heap.dead_rows) == (1, 1, 1)
    assert len(heap) == 60 and heap.rids() == list(range(60))
    assert db.segment_counts() == {"t": 1}
    assert db.dead_row_counts() == {"t": 1}
    got = execute_sql(db, "SELECT v FROM t WHERE id = 3")
    assert got == [{"v": 999}]
    assert _rows(db) == _rows(db, use_planner=False)


def test_delete_of_frozen_row_melts_and_preserves_rest():
    db = Database()
    _load(db, 40)
    db.compact("t")

    def drop(txn):
        rid = next(r.rid for r in txn.scan("t") if r.values["id"] == 10)
        txn.delete("t", rid)

    db.run(drop)
    ids = [r["id"] for r in _rows(db)]
    assert ids == [i for i in range(40) if i != 10]
    heap = db._table("t")
    assert (heap.segment_count(), heap.tail_size, heap.dead_rows) == (1, 0, 1)
    assert len(heap) == 39 and 10 not in heap.rids()
    with pytest.raises(KeyError):
        heap.get(10)


def test_abort_after_melt_restores_values():
    db = Database()
    _load(db, 30)
    db.compact("t")
    before = _rows(db)
    txn = db.begin()
    rid = next(r.rid for r in txn.scan("t") if r.values["id"] == 5)
    txn.update("t", rid, {"v": -1})
    other = next(r.rid for r in txn.scan("t") if r.values["id"] == 9)
    txn.delete("t", other)
    txn.abort()
    assert _rows(db) == before
    assert _rows(db, use_planner=False) == before
    assert execute_sql(db, "SELECT id FROM t WHERE id = 9") == [{"id": 9}]


def test_pinned_snapshot_keeps_the_row_a_later_write_masks():
    db = Database()
    _load(db, 30)
    db.compact("t")
    before = _rows(db)
    pinned = db.begin_snapshot()
    execute_sql(db, "UPDATE t SET v = 777 WHERE id = 4")
    execute_sql(db, "DELETE FROM t WHERE id = 20")
    assert [r.values for r in pinned.scan("t")] == before
    assert pinned.get_by_pk("t", 4).values == before[4]
    assert pinned.get_by_pk("t", 20).values == before[20]
    now = _rows(db)
    assert len(now) == 29 and now[4]["v"] == 777
    assert now == _rows(db, use_planner=False)


def test_rejected_update_of_frozen_row_changes_nothing():
    db = Database()
    _load(db, 8)
    heap = db._table("t")
    heap.compact(max_rid=3)
    heap.compact(target_rows=4)
    layout = heap.segment_layout()
    for changes in ({"v": "x"}, {"id": None}, {"id": 2}):
        with pytest.raises(Exception) as err:
            heap.update(5, changes)
        assert type(err.value).__name__ == "SchemaError"
        assert heap.segment_layout() == layout
        assert (heap.tail_size, heap.dead_rows) == (0, 0)
    assert heap.get(5).values == _row(5)


def test_compact_rewrites_only_touched_segments():
    db = Database()
    _load(db, 40)
    heap = db._table("t")
    heap.compact(target_rows=10)
    kept = {id(s) for s in heap.segments}
    execute_sql(db, "UPDATE t SET v = 1 WHERE id = 13")
    execute_sql(db, "DELETE FROM t WHERE id = 35")
    db.run(lambda txn: txn.insert("t", _row(40)))
    created, frozen, _ = heap.compact(target_rows=10)
    # segments [10..19] and [30..39] are rewritten, 40 joins the latter
    assert (created, frozen) == (2, 10 + 9 + 1)
    assert len(kept & {id(s) for s in heap.segments}) == 2
    assert (heap.tail_size, heap.dead_rows) == (0, 0)
    assert sorted(heap.segment_layout()) == [
        [0, 9, 10], [10, 19, 10], [20, 29, 10], [30, 40, 10]]
    assert _rows(db) == _rows(db, use_planner=False)


def _straddle_probe(db):
    """ISSUE 17 probe: a compaction after a write to a middle segment
    must not freeze a chunk that reaches across the next segment."""
    _load(db, 12)
    db.compact("t", target_rows=4)
    db.run(lambda txn: txn.delete("t", 5))
    db.run(lambda txn: txn.insert("t", _row(12)))
    db.compact("t", target_rows=4)


def _assert_no_straddle(db):
    heap = db._table("t")
    ranges = sorted((lo, hi) for lo, hi, _ in heap.segment_layout())
    assert all(a[1] < b[0] for a, b in zip(ranges, ranges[1:])), ranges
    assert heap.tail_size == 0
    units = list(heap.scan_units())
    assert [kind for kind, _, _ in units] == ["segment"] * len(ranges)
    assert [r["id"] for r in _rows(db)] == [i for i in range(13) if i != 5]


def test_compact_chunks_never_straddle_an_existing_segment():
    db = Database()
    _straddle_probe(db)
    _assert_no_straddle(db)


def test_replayed_compact_never_straddles_an_existing_segment(tmp_path):
    db = Database(str(tmp_path))
    _straddle_probe(db)
    reopened = Database(str(tmp_path))  # no checkpoint: pure WAL replay
    _assert_no_straddle(reopened)
    assert reopened._table("t").segment_layout() == \
        db._table("t").segment_layout()


# ------------------------------------------------------ vectorized parity

_PARITY_QUERIES = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(v) FROM t",
    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
    "SELECT SUM(f), AVG(f), MIN(f), MAX(f) FROM t",
    "SELECT MIN(s), MAX(s), COUNT(s) FROM t",
    "SELECT SUM(b), COUNT(b) FROM t",
    "SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s",
    "SELECT b, s, AVG(f) FROM t GROUP BY b, s",
    "SELECT COUNT(*) FROM t WHERE v > 10",
    "SELECT SUM(f) FROM t WHERE id >= 100 AND id < 200",
    "SELECT s, MAX(id) FROM t WHERE s != 'g2' GROUP BY s",
    "SELECT COUNT(*) FROM t WHERE s IN ('g1', 'g3')",
    "SELECT COUNT(*) FROM t WHERE s LIKE 'g%'",
    "SELECT COUNT(*) FROM t WHERE v IS NULL",
    "SELECT COUNT(*) FROM t WHERE v IS NOT NULL AND b = TRUE",
    "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s DESC LIMIT 2",
    "SELECT MIN(v) FROM t WHERE id > 9000",  # empty result group
]


def test_vectorized_aggregates_match_naive_oracle():
    db = Database()
    _load(db)
    db._table("t").compact(target_rows=64)  # several segments
    for sql in _PARITY_QUERIES:
        fast = execute_sql(db, sql, use_planner=True)
        slow = execute_sql(db, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), sql


def test_parity_with_segments_plus_tail():
    db = Database()
    _load(db, 150)
    db.compact("t")
    db.run(lambda txn: [txn.insert("t", _row(i)) for i in range(150, 200)])
    for sql in _PARITY_QUERIES:
        fast = execute_sql(db, sql, use_planner=True)
        slow = execute_sql(db, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), sql


# ------------------------------------ grouped aggregates over group orders

_NAN = float("nan")
_GROUPED_SCHEMA = TableSchema(
    "g",
    (Column("id", ColumnType.INT, nullable=False),
     Column("s", ColumnType.TEXT),    # dictionary-encoded key
     Column("r", ColumnType.INT),     # raw past int64, typed otherwise
     Column("f", ColumnType.FLOAT),   # -0.0 joins 0.0, NaN keys stay apart
     Column("b", ColumnType.BOOL),
     Column("v", ColumnType.INT),     # operands
     Column("w", ColumnType.FLOAT)),
    primary_key="id",
)
_grouped_rows = st.lists(st.fixed_dictionaries({
    "s": st.sampled_from([None, "a", "b", "c"]),
    "r": st.sampled_from([None, 5, 2 ** 70, -(2 ** 70)]),
    "f": st.sampled_from([None, 0.0, -0.0, 1.5, _NAN]),
    "b": st.sampled_from([None, True, False]),
    "v": st.one_of(st.none(), st.integers(-50, 50)),
    "w": st.one_of(st.none(), st.sampled_from([_NAN, -0.0]),
                   st.floats(-100, 100)),
}), max_size=40)
_KERNEL_CONJUNCTS = ["v > 0", "w <= 10.5", "s IN ('a', 'c')", "f IS NOT NULL",
                     "s LIKE 'b%'", "r = 5", "b = TRUE", "v != 3"]
_FALLBACK_CONJUNCTS = ["(v > 10 OR s = 'a')", "NOT (w < 0.0)", "v < id"]


@st.composite
def _grouped_query(draw):
    keys = draw(st.lists(st.sampled_from("srfb"), min_size=1, max_size=2,
                         unique=True))
    aggs = draw(st.lists(st.sampled_from(
        ["COUNT(*)", "COUNT(v)", "COUNT(s)", "SUM(v)", "SUM(w)", "AVG(v)",
         "AVG(w)", "MIN(v)", "MAX(w)", "MIN(s)", "MAX(b)", "SUM(r)"]),
        min_size=1, max_size=4, unique=True))
    where = draw(st.lists(st.sampled_from(
        _KERNEL_CONJUNCTS + _FALLBACK_CONJUNCTS), max_size=2, unique=True))
    sql = f"SELECT {', '.join(keys + aggs)} FROM g"
    if where:
        sql += " WHERE " + " AND ".join(where)
    return sql + " GROUP BY " + ", ".join(keys)


@given(rows=_grouped_rows, target_rows=st.integers(1, 16),
       update=st.booleans(), delete=st.booleans(),
       queries=st.lists(_grouped_query(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_grouped_aggregates_match_naive_oracle(rows, target_rows, update,
                                               delete, queries):
    db = Database()
    db.create_table(_GROUPED_SCHEMA)
    db.run(lambda t: t.insert_many(
        "g", [{"id": i, **row} for i, row in enumerate(rows)]))
    db._table("g").compact(target_rows=target_rows)  # several segments
    if update and rows:  # a tail row inside a segment's rid range
        execute_sql(db, f"UPDATE g SET v = 7, w = 2.5 WHERE id = "
                        f"{len(rows) // 2}")
    if delete and len(rows) > 1:  # a dead position
        execute_sql(db, f"DELETE FROM g WHERE id = {len(rows) // 3}")
    for sql in queries:
        assert json.dumps(execute_sql(db, sql)) == json.dumps(
            execute_sql(db, sql, use_planner=False)), sql


@given(rows=_grouped_rows, queries=st.lists(_grouped_query(), min_size=1,
                                            max_size=4))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_grouped_aggregates_on_a_sharded_table_match_naive_oracle(rows,
                                                                  queries):
    # Tables are no longer split by a shard key: the whole table freezes
    # through a logged compaction into one segment, which the grouped
    # fold reads as the row-by-row executor does.
    db = Database()
    db.create_table(_GROUPED_SCHEMA)
    db.run(lambda t: t.insert_many(
        "g", [{"id": i, **row} for i, row in enumerate(rows)]))
    db.compact("g")
    assert len(db._table("g").segments) == (1 if rows else 0)
    for sql in queries:
        assert json.dumps(execute_sql(db, sql)) == json.dumps(
            execute_sql(db, sql, use_planner=False)), sql


def test_groups_enter_in_the_order_of_their_first_selected_row():
    # NaN keys compare unordered, so the output order of these groups is
    # the order they were first met in: the 1.5 group's first row fails
    # the WHERE, so the NaN group comes first, as row by row.
    db = Database()
    db.create_table(_GROUPED_SCHEMA)
    db.run(lambda t: t.insert_many("g", [
        {"id": 0, "f": 1.5, "v": -1}, {"id": 1, "f": _NAN, "v": 5},
        {"id": 2, "f": 1.5, "v": 5}, {"id": 3, "f": -0.0, "v": 2},
        {"id": 4, "f": 0.0, "v": 3}]))
    db.compact("g")
    sql = "SELECT f, COUNT(*), SUM(v) FROM g WHERE v > 0 GROUP BY f"
    got = execute_sql(db, sql)
    assert json.dumps(got) == json.dumps(execute_sql(db, sql,
                                                     use_planner=False))
    assert json.dumps([r["f"] for r in got]) == "[NaN, -0.0, 1.5]"


def test_a_group_order_is_built_once_per_segment_and_key():
    db = Database()
    _load(db, 300)
    db._table("t").compact(target_rows=100)  # three segments
    sql = "SELECT s, COUNT(*), SUM(v) FROM t WHERE v > {} GROUP BY s"
    registry = MetricsRegistry()
    with use_registry(registry):
        for bound in range(5):
            execute_sql(db, sql.format(bound))
        lines = [r["plan"] for r in execute_sql(db, f"EXPLAIN ANALYZE "
                                                    f"{sql.format(0)}")]
    assert registry.get("segments.group_orders_built") == 3
    assert "group_orders_built=3" in render_report(summarize_trace([]),
                                                   registry.snapshot())
    # one slice per group per segment: g0..g4 and NULL
    assert "groups=18" in lines[0] and "VectorizedAggregate" in lines[0]


def test_readers_sharing_a_new_group_order_agree_with_the_oracle():
    # Threads race to build a segment's group order, its column copies
    # and its rank (dead positions need it) at a 10 µs switch interval:
    # a reader that saw a half-built one would fold the wrong rows.
    db = Database()
    _load(db, 20_000)
    sqls = [f"SELECT s, b, COUNT(*), SUM(v), MIN(f) FROM t WHERE v > {k} "
            "GROUP BY s, b" for k in range(3)]
    for round_ in range(4):
        db.compact("t")  # a fresh segment: nothing built yet
        execute_sql(db, f"DELETE FROM t WHERE id = {5000 + round_}")
        execute_sql(db, f"INSERT INTO t (id, v, f, s, b) VALUES "
                        f"({5000 + round_}, 1, 0.5, 'g1', TRUE)")
        want = [json.dumps(execute_sql(db, sql, use_planner=False))
                for sql in sqls]
        got: list[list[str]] = [[] for _ in range(6)]
        start = threading.Barrier(6)

        def read(slot):
            start.wait(timeout=30)
            for sql in sqls:
                got[slot].append(json.dumps(execute_sql(db, sql)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, args=(slot,))
                       for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(rows == want for rows in got)


def test_a_lasting_group_order_copies_columns_typed():
    # A copy kept for the segment's life costs what the column does:
    # 8 bytes a FLOAT row, one byte a null flag, not a list of objects.
    db = Database()
    _load(db, 200)
    db.compact("t")
    segment = db._table("t").segments[0]
    lasting = segment.group_order(["s"])
    data, nulls = lasting.column("v")
    cells = [segment.columns["v"].value_at(p) for p in lasting.positions]
    assert [None if null else v for v, null in zip(data, nulls)] == cells
    assert lasting.column("f")[1] is None  # no NULLs: no flags
    assert lasting.column("f")[0].typecode == "d"
    assert lasting.column("v")[0].typecode == "q"
    assert isinstance(lasting.column("v")[1], bytearray)


def test_a_kernel_runs_once_per_segment_not_once_per_group(monkeypatch):
    # A dictionary column's kernel builds a verdict per dictionary entry
    # (a regex match each, for LIKE): per group slice, that would cost
    # groups x dictionary for every stretch of the segment.
    from repro.storage.rdbms import planner

    db = Database()
    db.create_table(_schema())
    db.run(lambda t: t.insert_many("t", [
        {**_row(i), "s": f"k{i % 150:03d}"} for i in range(600)]))
    db.compact("t")
    for rid in (100, 400):  # tail rows inside the segment: three stretches
        execute_sql(db, f"UPDATE t SET v = 1 WHERE id = {rid}")
    execute_sql(db, "DELETE FROM t WHERE id = 250")  # a dead position
    calls = []
    real = planner._conjunct_bitmap
    monkeypatch.setattr(planner, "_conjunct_bitmap",
                        lambda *args: calls.append(args[1]) or real(*args))
    sql = ("SELECT s, COUNT(*), SUM(v) FROM t WHERE s LIKE 'k1%' AND v > 3 "
           "GROUP BY s")
    got = execute_sql(db, sql)
    assert len(calls) == 2  # one segment, two kernel conjuncts
    assert json.dumps(got) == json.dumps(execute_sql(db, sql,
                                                     use_planner=False))


def test_sum_type_error_parity_on_text_column():
    db = Database()
    _load(db, 20)
    db.compact("t")
    with pytest.raises(TypeError):
        execute_sql(db, "SELECT SUM(s) FROM t", use_planner=False)
    with pytest.raises(TypeError):
        execute_sql(db, "SELECT SUM(s) FROM t", use_planner=True)


def test_vectorized_agg_counter_and_explain():
    db = Database()
    _load(db, 50)
    db.compact("t")
    registry = metrics.get_registry()
    before = registry.get("planner.plans.vectorized_agg")
    execute_sql(db, "SELECT s, COUNT(*) FROM t GROUP BY s")
    assert registry.get("planner.plans.vectorized_agg") == before + 1
    lines = [r["plan"].split("  [")[0] for r in execute_sql(
        db, "EXPLAIN SELECT s, COUNT(*) FROM t GROUP BY s")]
    assert lines == [
        "VectorizedAggregate(group_by=[s], items=[s, count(*)])",
        "  SegmentScan(t, pred=TRUE)",
    ]


# ------------------------------------------------- full-tree EXPLAIN goldens


def _explain(db, sql):
    return [r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}")]


def _golden_db():
    db = Database()
    _load(db, 300)
    db._table("t").compact(target_rows=100)
    return db


def test_explain_golden_segment_scan_vector_conjuncts():
    assert _explain(
        _golden_db(),
        "SELECT id, s FROM t WHERE v > 10 AND s LIKE 'g1%' "
        "AND id IN (5, 150, 250) AND f IS NOT NULL") == [
        "Project(id, s)",
        "  SegmentScan(t, pred=v > 10 AND s LIKE 'g1%' AND id IN (5, 150, 250)"
        " AND f IS NOT NULL)  [rows~0 cost~46]",
    ]


def test_explain_golden_fallback_conjunct_keeps_row_scan():
    # A conjunct that cannot run as a column kernel (OR, col-to-col)
    # forfeits the columnar discount, so a table never plans a
    # SegmentScan with fallback conjuncts: the row scan wins by one probe.
    assert _explain(
        _golden_db(),
        "SELECT id FROM t WHERE v > 10 AND (b = TRUE OR v < id)") == [
        "Project(id)",
        "  Filter(v > 10 AND (b = TRUE OR v < id))  [rows~96 cost~300]",
        "    FullScan(t)  [rows~300 cost~300]",
    ]


def test_explain_golden_vectorized_aggregate_global():
    assert _explain(
        _golden_db(),
        "SELECT COUNT(*), SUM(v), MIN(f) FROM t WHERE id >= 100") == [
        "VectorizedAggregate(group_by=[()], items=[count(*), sum(v), min(f)])",
        "  SegmentScan(t, pred=id >= 100)  [rows~194 cost~24]",
    ]


def test_explain_golden_vectorized_aggregate_grouped():
    assert _explain(
        _golden_db(),
        "SELECT s, COUNT(*), AVG(f) FROM t WHERE v IS NOT NULL "
        "GROUP BY s ORDER BY s LIMIT 3") == [
        "Limit(3)",
        "  Sort(key=s, asc)",
        "    VectorizedAggregate(group_by=[s], items=[s, count(*), avg(f)])",
        "      SegmentScan(t, pred=v IS NOT NULL)  [rows~150 cost~24]",
    ]


def test_explain_golden_aggregate_over_non_columnar_source():
    heap_only = Database()
    _load(heap_only, 300)
    assert _explain(
        heap_only, "SELECT s, COUNT(*) FROM t WHERE v > 10 GROUP BY s") == [
        "Aggregate(group_by=[s], items=[s, count(*)])",
        "  Filter(v > 10)  [rows~192 cost~300]",
        "    FullScan(t)  [rows~300 cost~300]",
    ]
    # SUM over TEXT folds off the segment too, raising what the naive
    # fold raises (test_sum_type_error_parity_on_text_column).
    assert _explain(_golden_db(), "SELECT SUM(s) FROM t") == [
        "VectorizedAggregate(group_by=[()], items=[sum(s)])",
        "  SegmentScan(t, pred=TRUE)  [rows~300 cost~24]",
    ]


# -------------------------------------------------------- zone-map skipping


def test_zone_maps_skip_out_of_range_segments():
    db = Database()
    _load(db, 200)
    db._table("t").compact(target_rows=50)  # 4 segments: id 0-49, 50-99, ...
    registry = metrics.get_registry()
    skipped = registry.get("segments.skipped")
    scanned = registry.get("segments.scanned")
    out = execute_sql(db, "SELECT COUNT(*) FROM t WHERE id >= 150")
    assert out == [{"count(*)": 50}]
    assert registry.get("segments.skipped") == skipped + 3
    assert registry.get("segments.scanned") == scanned + 1


def test_zone_maps_skip_on_dict_membership():
    db = Database()
    _load(db, 100)
    db._table("t").compact(target_rows=50)
    registry = metrics.get_registry()
    skipped = registry.get("segments.skipped")
    out = execute_sql(db, "SELECT COUNT(*) FROM t WHERE s = 'nowhere'")
    assert out == [{"count(*)": 0}]
    assert registry.get("segments.skipped") == skipped + 2


# ------------------------------------------------------------- persistence


def test_compact_survives_crash_via_wal(tmp_path):
    db = Database(str(tmp_path))
    _load(db, 120)
    before = _rows(db)
    db.compact("t", target_rows=40)
    # no checkpoint: reopen replays CREATE + inserts + compact from the WAL
    db2 = Database(str(tmp_path))
    assert _rows(db2) == before
    assert db2._table("t").segment_count() == 3
    assert db2._table("t").tail_size == 0


def test_a_compaction_that_only_drops_dead_segments_replays(tmp_path):
    """A compaction whose only work is dropping a segment with every
    position dead freezes no row; it is logged all the same, so a replay
    drops the segment too (it used to keep it, dead)."""
    db = Database(str(tmp_path))
    _load(db, 4)
    db.compact("t", target_rows=2)
    db.run(lambda txn: [txn.delete("t", rid) for rid in (0, 1)])
    assert db.compact("t")["rows_frozen"] == 0
    heap = db._table("t")
    assert (heap.segment_count(), heap.dead_rows) == (1, 0)
    replayed = Database(str(tmp_path))._table("t")  # a crash: no close
    assert (replayed.segment_count(), replayed.dead_rows) == (1, 0)


def test_compact_layout_restored_from_checkpoint(tmp_path):
    db = Database(str(tmp_path))
    _load(db, 90)
    db._table("t").compact(target_rows=30)
    db.checkpoint()
    before = _rows(db)
    db2 = Database(str(tmp_path))
    heap = db2._table("t")
    assert heap.segment_count() == 3
    assert heap.tail_size == 0
    assert _rows(db2) == before


def test_writes_after_compact_replay_into_tail(tmp_path):
    db = Database(str(tmp_path))
    _load(db, 60)
    db.compact("t")
    db.run(lambda txn: [txn.insert("t", _row(i)) for i in range(60, 80)])
    before = _rows(db)
    db2 = Database(str(tmp_path))
    assert _rows(db2) == before
    assert db2._table("t").segment_count() >= 1
    assert db2._table("t").tail_size == 20


# --------------------------------------------------- reopen drift regression


def test_reopened_zone_maps_match_freshly_built_ones(tmp_path):
    """Reopen must rebuild zone maps from recovered rows, not trust any
    stale persisted summary — the PR's drift-fix regression."""
    db = Database(str(tmp_path))
    _load(db, 80)
    db._table("t").compact(target_rows=40)
    db.checkpoint()
    fresh = [seg.zone_maps() for seg in db._table("t").segments]
    db2 = Database(str(tmp_path))
    reopened = [seg.zone_maps() for seg in db2._table("t").segments]
    assert reopened == fresh
    # and the skip machinery still works on the reopened segments
    registry = metrics.get_registry()
    skipped = registry.get("segments.skipped")
    execute_sql(db2, "SELECT COUNT(*) FROM t WHERE id >= 40")
    assert registry.get("segments.skipped") == skipped + 1


def test_an_image_of_segments_as_rid_ranges_is_refused(tmp_path):
    """A checkpoint of the layout before encoded segments held each
    segment as a rid range to re-freeze; reopen refuses it by name."""
    db = Database()
    _load(db, 4)
    image = {"schema": db.schema("t").to_dict(),
             "rows": {str(row.rid): row.values
                      for row in db.run(lambda t: t.scan("t"))},
             "segments": [[0, 3, 4]]}
    RecordFileStore(str(tmp_path / "wal")).append(
        {"txn": 0, "type": "checkpoint", "tables": {"t": image},
         "indexes": []})
    with pytest.raises(ValueError, match="'t'.*rid ranges.*older layout"):
        Database(str(tmp_path))


# --------------------------------------------------------- auto-compaction


def test_auto_compact_triggers_on_threshold():
    db = Database()
    db.auto_compact_rows = 100
    _load(db, 150)
    heap = db._table("t")
    assert heap.segment_count() >= 1
    assert heap.tail_size == 0
    # small follow-up write stays in the tail (below threshold)
    db.run(lambda txn: txn.insert("t", _row(150)))
    assert heap.tail_size == 1


def test_schema_evolution_melts_segments():
    db = Database()
    _load(db, 30)
    db.compact("t")
    old = db.schema("t")
    new = TableSchema("t", old.columns + (Column("extra", ColumnType.INT),),
                      primary_key="id")
    db.alter_table("t", new, lambda values: {**values, "extra": 7})
    heap = db._table("t")
    assert heap.segment_count() == 0
    assert execute_sql(db, "SELECT COUNT(extra) FROM t") == \
        [{"count(extra)": 30}]


# ----------------------------------------------------- streaming satellite


def test_scan_iter_is_lazy():
    db = Database()
    _load(db, 10)
    txn = db.begin()
    it = txn.scan_iter("t")
    assert not isinstance(it, list)
    assert next(it).values["id"] == 0
    txn.commit()


def test_order_by_limit_streams_identically():
    db = Database()
    _load(db, 100)
    db.compact("t")
    fast = execute_sql(db, "SELECT id, f FROM t ORDER BY f DESC LIMIT 7")
    slow = execute_sql(db, "SELECT id, f FROM t ORDER BY f DESC LIMIT 7",
                       use_planner=False)
    assert fast == slow


# --------------------------------------------------------------- encodings


def test_dict_overflow_falls_back_to_raw():
    schema = TableSchema("w", (Column("id", ColumnType.INT, nullable=False),
                               Column("s", ColumnType.TEXT)),
                         primary_key="id")
    items = [(i, {"id": i, "s": f"unique-{i}"}) for i in range(50)]
    seg = Segment.from_rows(schema, items, dict_max=10)
    assert seg.columns["s"].encoding == "raw"
    assert [v for _, vals in seg.iter_rows() for v in [vals["s"]]] == \
        [f"unique-{i}" for i in range(50)]


def test_int64_overflow_falls_back_to_raw():
    schema = TableSchema("w", (Column("id", ColumnType.INT, nullable=False),
                               Column("big", ColumnType.INT)),
                         primary_key="id")
    huge = 2 ** 70
    items = [(0, {"id": 0, "big": huge}), (1, {"id": 1, "big": None})]
    seg = Segment.from_rows(schema, items)
    assert seg.columns["big"].encoding == "raw"
    assert seg.columns["big"].decoded() == [huge, None]


def test_nan_floats_disable_zone_bounds():
    schema = TableSchema("w", (Column("id", ColumnType.INT, nullable=False),
                               Column("f", ColumnType.FLOAT)),
                         primary_key="id")
    items = [(0, {"id": 0, "f": float("nan")}), (1, {"id": 1, "f": 2.0})]
    seg = Segment.from_rows(schema, items)
    col = seg.columns["f"]
    assert col.min_value is None and col.max_value is None
