"""Late materialization (DESIGN.md §11): positions, not row dicts, from
every access path to Project.

The differential suites (test_property_planner / test_property_segments)
pin the results; this file pins what travelling by reference and by
position must not break — aliasing, snapshot isolation, deadlines,
EXPLAIN ANALYZE and telemetry accounting — and counts decoded cells, so
a regression to decode-then-discard fails without a stopwatch.
"""

import copy

import pytest

from repro.errors import CancellationToken, QueryTimeoutError
from repro.storage.rdbms.engine import GUARD_STRIDE, Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.segments import ColumnSegment
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics

ATTRS = [f"attr_{i}" for i in range(10)]


def _facts_db(n=2000, frozen=True):
    """A ``facts``-shaped table: ``attribute`` hash-indexed and low
    cardinality, ``value`` distinct per row, ``fact_id`` the pk."""
    db = Database()
    db.create_table(TableSchema(
        "facts",
        (Column("fact_id", ColumnType.INT, nullable=False),
         Column("entity", ColumnType.TEXT),
         Column("attribute", ColumnType.TEXT),
         Column("value", ColumnType.FLOAT),
         Column("note", ColumnType.TEXT)),
        primary_key="fact_id",
    ))
    db.run(lambda txn: txn.insert_many("facts", [
        {"fact_id": i, "entity": f"e{i // 10}", "attribute": ATTRS[i % 10],
         "value": float((i * 7919) % n), "note": None}
        for i in range(n)]))
    db.create_index("facts", "attribute", "hash")
    if frozen:
        db.compact("facts")
    return db


TOPK = ("SELECT entity, value FROM facts WHERE attribute = 'attr_3' "
        "AND value > 900 ORDER BY value DESC LIMIT 10")


# ------------------------------------------------ aliasing and isolation


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("sql", [
    "SELECT * FROM facts WHERE attribute = 'attr_3'",
    "SELECT entity, value FROM facts WHERE fact_id = 13",
    "SELECT * FROM facts WHERE value < 50 ORDER BY value LIMIT 5",
])
def test_mutating_a_result_row_changes_no_later_read(frozen, sql):
    db = _facts_db(200, frozen)
    want = copy.deepcopy(execute_sql(db, sql))
    assert want
    for row in execute_sql(db, sql):
        for key in list(row):
            row[key] = "clobbered"
        row["extra"] = 1
    assert execute_sql(db, sql) == want
    with db.begin() as txn:
        for row in txn.lookup("facts", "attribute", "attr_3"):
            row.values["value"] = -1.0
        assert txn.get_by_pk("facts", 13).values["value"] != -1.0
    assert execute_sql(db, sql) == want
    assert execute_sql(db, sql, use_planner=False) == want


def test_mutating_a_result_row_changes_no_cached_entry():
    db = _facts_db(200, frozen=False)
    cache = QueryResultCache(db)
    sql = "SELECT * FROM facts WHERE attribute = 'attr_3'"
    want = copy.deepcopy(cache.execute(sql))
    cache.execute(sql)[0]["value"] = "clobbered"       # a hit's copy
    assert cache.execute(sql) == want
    assert execute_sql(db, sql) == want


@pytest.mark.parametrize("frozen", [False, True])
def test_pinned_snapshot_keeps_reading_the_old_values(frozen):
    db = _facts_db(200, frozen)
    reads = ["SELECT * FROM facts WHERE attribute = 'attr_3'",
             "SELECT value FROM facts WHERE fact_id = 13",
             "SELECT entity, value FROM facts WHERE value >= 0 "
             "ORDER BY value LIMIT 7"]
    snap = db.begin_snapshot()
    before = [copy.deepcopy(execute_sql(db, sql, txn=snap)) for sql in reads]
    execute_sql(db, "UPDATE facts SET value = -5.0 WHERE fact_id = 13")
    execute_sql(db, "DELETE FROM facts WHERE fact_id = 3")
    txn = db.begin()                       # ... and an undo on top
    execute_sql(db, "UPDATE facts SET value = -9.0 WHERE attribute = 'attr_3'",
                txn=txn)
    txn.abort()
    assert [execute_sql(db, sql, txn=snap) for sql in reads] == before
    assert execute_sql(db, reads[1]) == [{"value": -5.0}]
    snap.commit()


def test_heap_table_never_mutates_a_stored_dict_in_place():
    # By-reference tail rows are safe only because every write stores a
    # fresh dict: hold every stored dict across each kind of write and
    # check none of them changed under its holder.
    db = _facts_db(60, frozen=False)
    heap = db._table("facts")
    held: dict[int, dict] = {}
    copies: dict[int, dict] = {}

    def hold():
        for values in heap._rows.values():
            if id(values) not in held:
                held[id(values)] = values
                copies[id(values)] = dict(values)

    hold()
    db.run(lambda t: t.insert("facts", {"fact_id": 100, "entity": "new",
                                        "attribute": "attr_0", "value": 1.0}))
    hold()
    execute_sql(db, "UPDATE facts SET value = 123.0 WHERE fact_id < 5")
    hold()
    execute_sql(db, "DELETE FROM facts WHERE fact_id = 7")
    txn = db.begin()                                  # undo of each kind
    txn.insert("facts", {"fact_id": 101, "entity": "gone",
                         "attribute": "attr_1", "value": 2.0})
    execute_sql(db, "UPDATE facts SET entity = 'x' WHERE fact_id = 8", txn=txn)
    execute_sql(db, "DELETE FROM facts WHERE fact_id = 9", txn=txn)
    hold()
    txn.abort()
    hold()
    db.compact("facts")                               # freeze, then melt
    execute_sql(db, "UPDATE facts SET value = 5.0 WHERE fact_id = 20")
    hold()
    schema = heap.schema.with_column(Column("extra", ColumnType.INT))
    db.alter_table("facts", schema, lambda v: {**v, "extra": 1})
    assert len(held) > 60
    assert all(held[key] == copies[key] for key in held)


# ------------------------------------------------ deadlines and accounting


class _CountingToken(CancellationToken):
    """Counts polls; cancels at the ``fire_at``-th."""

    def __init__(self, fire_at=None):
        super().__init__()
        self.polls = 0
        self.fire_at = fire_at

    def check(self):
        self.polls += 1
        if self.fire_at is not None and self.polls >= self.fire_at:
            raise QueryTimeoutError("query exceeded its deadline")


def _run_guarded(db, sql, token, locked):
    if not locked:
        return execute_sql(db, sql, guard=token)
    txn = db.begin()
    txn.guard = token
    try:
        return execute_sql(db, sql, txn=txn, guard=token)
    finally:
        txn.guard = None
        txn.abort()


@pytest.mark.parametrize("locked", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
def test_index_probe_polls_the_guard_every_stride_and_can_be_cancelled(
        locked, frozen):
    db = _facts_db(10 * (3 * GUARD_STRIDE + 10), frozen)
    probe = "SELECT fact_id FROM facts WHERE attribute = 'attr_3'"
    nothing = "SELECT fact_id FROM facts WHERE attribute = 'absent'"
    idle, busy = _CountingToken(), _CountingToken()
    assert _run_guarded(db, nothing, idle, locked) == []
    assert len(_run_guarded(db, probe, busy, locked)) == 3 * GUARD_STRIDE + 10
    # ceil(rids / stride) polls inside the probe, on top of the entry ones
    assert busy.polls - idle.polls >= 4
    # cancelled at the last poll a finished probe makes: mid-fetch
    with pytest.raises(QueryTimeoutError):
        _run_guarded(db, probe, _CountingToken(fire_at=busy.polls), locked)


@pytest.mark.parametrize("locked", [False, True])
def test_pk_lookup_polls_the_guard_and_can_be_cancelled(locked):
    db = _facts_db(200)
    sql = "SELECT entity FROM facts WHERE fact_id = 42"
    assert "PkLookup" in execute_sql(db, f"EXPLAIN {sql}")[-1]["plan"]
    token = _CountingToken()
    assert _run_guarded(db, sql, token, locked) == [{"entity": "e4"}]
    assert token.polls >= 2              # statement entry + the probe
    with pytest.raises(QueryTimeoutError):
        _run_guarded(db, sql, _CountingToken(fire_at=token.polls), locked)


def test_explain_analyze_reports_rows_per_operator_without_row_dicts():
    db = _facts_db()
    matching = execute_sql(
        db, "SELECT COUNT(*) AS n FROM facts WHERE attribute = 'attr_3' "
            "AND value > 900", use_planner=False)[0]["n"]
    assert 10 < matching < 200
    lines = [r["plan"] for r in execute_sql(db, f"EXPLAIN ANALYZE {TOPK}")]
    assert lines[0].startswith("TopK(") and "actual rows=10 " in lines[0]
    assert "Filter(value > 900)" in lines[2]
    assert f"actual rows={matching} " in lines[2]
    assert "IndexLookup(" in lines[3] and "actual rows=200 " in lines[3]
    assert lines[-1].startswith("Execution: 10 rows")


def test_index_and_plan_counters_keep_their_meaning():
    db = _facts_db()
    registry = metrics.get_registry()
    names = ["rdbms.index.lookups", "rdbms.index.rows_fetched",
             "segments.scanned", "segments.skipped",
             "planner.plans.index_lookup", "planner.plans.pk_lookup",
             "planner.plans.segment_scan", "planner.plans.topk"]

    def moved(sql):
        before = {name: registry.get(name) for name in names}
        execute_sql(db, sql)
        return {name: registry.get(name) - before[name] for name in names
                if registry.get(name) != before[name]}

    # an index probe + residual filter scans no segment, fetches 200 rids
    assert moved(TOPK) == {"rdbms.index.lookups": 1,
                           "rdbms.index.rows_fetched": 200,
                           "planner.plans.index_lookup": 1,
                           "planner.plans.topk": 1}
    assert moved("SELECT entity FROM facts WHERE fact_id = 42") == {
        "planner.plans.pk_lookup": 1}
    assert moved("SELECT entity FROM facts WHERE value < 3") == {
        "segments.scanned": 1, "planner.plans.segment_scan": 1}
    assert moved("SELECT entity FROM facts WHERE value < -3") == {
        "segments.skipped": 1, "planner.plans.segment_scan": 1}


# ------------------------------------------------------ decoded-cell counts


@pytest.fixture
def decoded_cells(monkeypatch):
    """Per-column count of cells decoded out of any segment."""
    cells: dict[str, int] = {}

    def counting(name, size):
        original = getattr(ColumnSegment, name)

        def wrapper(self, *args):
            out = original(self, *args)
            cells[self.name] = cells.get(self.name, 0) + size(out)
            return out

        monkeypatch.setattr(ColumnSegment, name, wrapper)

    counting("value_at", lambda out: 1)
    counting("decoded", len)
    counting("gather", len)
    return cells


def test_topk_decodes_the_key_column_and_k_projected_rows(decoded_cells):
    db = _facts_db(20_000)
    execute_sql(db, TOPK)               # builds the per-snapshot index
    survivors = execute_sql(
        db, "SELECT COUNT(*) AS n FROM facts WHERE attribute = 'attr_3' "
            "AND value > 900", use_planner=False)[0]["n"]
    decoded_cells.clear()
    rows = execute_sql(db, TOPK)
    assert len(rows) == 10 and set(rows[0]) == {"entity", "value"}
    # the order key of the kept rows in the imprint buckets walked from
    # the top (at least k, far fewer than the filter kept), then k rows x
    # 2 columns; no other column is decoded
    assert decoded_cells.keys() == {"value", "entity"}
    assert decoded_cells["entity"] == 10
    assert 10 + 10 <= decoded_cells["value"] <= 10 + survivors // 10
    decoded_cells.clear()
    assert len(execute_sql(db, "SELECT * FROM facts WHERE attribute = "
                               "'attr_3' LIMIT 4")) == 4
    assert decoded_cells == dict.fromkeys(
        ["fact_id", "entity", "attribute", "value", "note"], 4)


def test_grouped_aggregate_decodes_one_key_per_group(decoded_cells):
    db = _facts_db(20_000)
    sql = ("SELECT attribute, COUNT(*) AS n, AVG(value) AS a FROM facts "
           "WHERE value > 5000 GROUP BY attribute")
    execute_sql(db, sql)                # ANALYZE reads the table once
    decoded_cells.clear()
    rows = execute_sql(db, sql)
    assert [r["attribute"] for r in rows] == sorted(ATTRS)
    # the NULL-free FLOAT operand is summed off its typed buffer as is
    assert decoded_cells == {"attribute": len(ATTRS)}


def test_a_write_to_a_frozen_row_decodes_that_row_only(decoded_cells):
    db = _facts_db(20_000)
    heap = db._table("facts")
    columns = ["fact_id", "entity", "attribute", "value", "note"]
    sql = ("SELECT attribute, COUNT(*) AS n, AVG(value) AS a FROM facts "
           "WHERE value > 5000 GROUP BY attribute")
    execute_sql(db, sql)                # ANALYZE reads the table once
    registry = metrics.get_registry()
    melted = registry.get("segments.rows_melted")
    masked = registry.get("segments.rows_masked")

    decoded_cells.clear()
    db.run(lambda txn: txn.update("facts", 12_345, {"value": 1.0}))
    assert decoded_cells == dict.fromkeys(columns, 1)
    assert (heap.tail_size, heap.dead_rows) == (1, 1)
    decoded_cells.clear()
    db.run(lambda txn: txn.delete("facts", 777))
    assert decoded_cells == dict.fromkeys(columns, 1)
    assert (heap.tail_size, heap.dead_rows, len(heap)) == (1, 2, 19_999)
    assert registry.get("segments.rows_melted") == melted
    assert registry.get("segments.rows_masked") == masked + 2

    # the aggregate right behind them still sums the typed buffer: one
    # key per group and stretch (the segment now reads as two stretches
    # around the updated row, which comes from the tail), no value cell
    decoded_cells.clear()
    rows = execute_sql(db, sql)
    assert decoded_cells == {"attribute": 2 * len(ATTRS)}
    assert rows == execute_sql(db, sql, use_planner=False)
    lines = [r["plan"] for r in execute_sql(db, f"EXPLAIN ANALYZE {sql}")]
    scan = next(line for line in lines if "SegmentScan(" in line)
    assert "segments=1 pruned=0 masked=2" in scan
    db.compact("facts")
    lines = [r["plan"] for r in execute_sql(db, f"EXPLAIN ANALYZE {sql}")]
    assert not any("masked=" in line for line in lines)
