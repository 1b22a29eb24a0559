"""Tests for the batched write path: insert_many + run_batch + recovery."""

import threading
import time

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.types import Column, ColumnType, SchemaError, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry


def _schema(name="items"):
    return TableSchema(
        name=name,
        columns=(
            Column("id", ColumnType.INT, nullable=False),
            Column("label", ColumnType.TEXT),
        ),
        primary_key="id",
    )


def _rows(n, start=0):
    return [{"id": i, "label": f"row-{i}"} for i in range(start, start + n)]


# ------------------------------------------------------------- heap table


def _heap():
    """A database with the table, and the heap behind it."""
    db = Database()
    db.create_table(_schema())
    return db, db._table("items")


def test_heap_insert_many_assigns_rids_in_order():
    db, table = _heap()
    rows = db.run(lambda t: t.insert_many("items", _rows(5)))
    assert [r.rid for r in rows] == [0, 1, 2, 3, 4]
    assert len(table) == 5
    assert table.get_by_pk(3).values["label"] == "row-3"


def test_heap_insert_many_is_atomic_on_pk_violation():
    db, table = _heap()
    txn = db.begin()
    txn.insert("items", {"id": 2, "label": "existing"})
    with pytest.raises(SchemaError):
        txn.insert_many("items", [{"id": 10, "label": "a"},
                                  {"id": 2, "label": "dup"}])
    with pytest.raises(SchemaError):  # duplicate within the batch itself
        txn.insert_many("items", [{"id": 11, "label": "a"},
                                  {"id": 11, "label": "b"}])
    assert len(table) == 1  # nothing from either failed batch landed
    assert table.get_by_pk(10) is None and table.get_by_pk(11) is None
    txn.commit()


def test_heap_insert_many_empty():
    db, table = _heap()
    assert db.run(lambda t: t.insert_many("items", [])) == []
    assert len(table) == 0


# ------------------------------------------------------------ transaction


def test_txn_insert_many_visible_after_commit():
    db = Database()
    db.create_table(_schema())
    stored = db.run(lambda t: t.insert_many("items", _rows(100)))
    assert len(stored) == 100
    assert db.table_size("items") == 100


def test_txn_insert_many_undone_on_abort():
    db = Database()
    db.create_table(_schema())
    db.create_index("items", "label")
    txn = db.begin()
    txn.insert_many("items", _rows(10))
    txn.abort()
    assert db.table_size("items") == 0
    assert db.run(lambda t: t.lookup("items", "label", "row-3")) == []


def test_txn_insert_many_maintains_indexes():
    db = Database()
    db.create_table(_schema())
    db.create_index("items", "label")
    db.run(lambda t: t.insert_many("items", _rows(20)))
    hits = db.run(lambda t: t.lookup("items", "label", "row-7"))
    assert [h.values["id"] for h in hits] == [7]


def test_run_batch_single_transaction():
    db = Database()
    db.create_table(_schema())
    results = db.run_batch([
        lambda t: t.insert_many("items", _rows(3)),
        lambda t: t.insert("items", {"id": 99, "label": "tail"}),
        lambda t: len(t.scan("items")),
    ])
    assert len(results[0]) == 3
    assert results[1].values["id"] == 99
    assert results[2] == 4


# ------------------------------------------------ write_many (mixed batch)


def _mixed_db():
    db = Database()
    db.create_table(_schema())
    db.create_index("items", "label")
    db.run(lambda t: t.insert_many("items", _rows(4)))
    return db


def _labels(db):
    return {r.rid: r.values["label"]
            for r in db.run(lambda t: t.scan("items"))}


def test_write_many_applies_in_order_and_reports_each_row():
    db = _mixed_db()
    results = db.run(lambda t: t.write_many("items", [
        ("delete", 1),
        ("insert", {"id": 1, "label": "reborn"}),     # the key just freed
        ("update", 2, {"label": "two"}),
        ("update", 3, {"label": "row-3"}),            # nothing moves
        ("update", 4, {"label": "renamed"}),          # the row inserted above
    ]))
    assert [r and (r.rid, r.values["label"]) for r in results] == [
        (1, "row-1"), (4, "reborn"), (2, "two"), None, (4, "renamed")]
    assert _labels(db) == {0: "row-0", 2: "two", 3: "row-3", 4: "renamed"}
    hits = db.run(lambda t: t.lookup("items", "label", "renamed"))
    assert [h.rid for h in hits] == [4]
    assert db.run(lambda t: t.lookup("items", "label", "row-1")) == []
    assert db.run(lambda t: t.write_many("items", [])) == []


def test_write_many_undone_on_abort():
    db = _mixed_db()
    before = _labels(db)
    txn = db.begin()
    txn.write_many("items", [("delete", 0), ("update", 1, {"label": "x"}),
                             ("insert", {"id": 9, "label": "nine"})])
    txn.abort()
    assert _labels(db) == before
    assert [h.rid for h in
            db.run(lambda t: t.lookup("items", "label", "row-0"))] == [0]


@pytest.mark.parametrize("bad, error", [
    (("insert", {"id": 2, "label": "dup"}), SchemaError),
    (("update", 77, {"label": "nobody"}), KeyError),
    (("upsert", 1, {}), ValueError),
])
def test_write_many_is_all_or_nothing(tmp_path, bad, error):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.create_index("items", "label")
    db.run(lambda t: t.insert_many("items", _rows(4)))
    before = _labels(db)
    seen = []
    db.add_delta_listener(seen.append)
    txn = db.begin()
    with pytest.raises(error):
        txn.write_many("items", [("delete", 0),
                                 ("update", 1, {"label": "x"}), bad])
    assert txn._undo == []
    txn.commit()                     # the caller may carry on and commit
    assert _labels(db) == before and seen == []
    assert [h.rid for h in
            db.run(lambda t: t.lookup("items", "label", "row-0"))] == [0]
    assert [r.rec_type for r in _wal_records(db)] == [
        "create_table", "create_index", "commit"]    # the seed's, no other
    assert _labels(Database(str(tmp_path))) == before


def test_write_many_reports_row_deltas_like_the_single_row_calls():
    ops = [("insert", {"id": 9, "label": "nine"}),
           ("update", 1, {"label": "one"}),
           ("update", 2, {"label": "row-2"}),      # dropped: not a change
           ("delete", 3)]
    deltas = []
    for batched in (True, False):
        db = _mixed_db()
        db.add_delta_listener(deltas.append)
        if batched:
            db.run(lambda t: t.write_many("items", ops))
        else:
            db.run(lambda t: [getattr(t, op[0])("items", *op[1:])
                              for op in ops if op[1] != 2])
    assert deltas[0] == deltas[1]
    assert len(deltas[0].tables["items"]) == 3


def test_write_many_of_nothing_but_unchanged_rows_writes_nothing(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.run(lambda t: t.insert_many("items", _rows(4)))
    db.compact("items", target_rows=4)
    commits = []
    db.add_delta_listener(commits.append)
    registry = MetricsRegistry()
    with use_registry(registry):
        results = db.run(lambda t: t.write_many("items", [
            ("update", rid, {"label": f"row-{rid}"}) for rid in range(4)]))
    assert results == [None] * 4 and commits == []
    assert registry.get("rdbms.wal.records") == 0
    heap = db._table("items")
    assert (heap.tail_size, heap.dead_rows) == (0, 0)      # nothing thawed


# -------------------------------------------------------- WAL + recovery


def _wal_records(db):
    return list(db._wal.records())


def test_insert_many_writes_one_wal_record_per_batch(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.run(lambda t: t.insert_many("items", _rows(50)))
    records = _wal_records(db)
    assert [r.rec_type for r in records] == ["create_table", "commit"]
    [[table, ops]] = records[1].payload["writes"]
    assert table == "items" and len(ops) == 50
    db.close()


def test_insert_many_survives_recovery(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.run(lambda t: t.insert_many("items", _rows(25)))
    db.close()  # "crash": reopen from WAL only

    recovered = Database(str(tmp_path))
    assert recovered.table_size("items") == 25
    assert recovered.run(
        lambda t: t.get_by_pk("items", 24)
    ).values["label"] == "row-24"
    recovered.close()


def test_uncommitted_insert_many_not_recovered(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    txn = db.begin()
    txn.insert_many("items", _rows(5))
    # no commit — simulate a crash by abandoning the object
    db.close()

    recovered = Database(str(tmp_path))
    assert recovered.table_size("items") == 0
    recovered.close()


def test_batch_path_writes_fewer_wal_records_than_per_row(tmp_path):
    n = 200
    per_row = Database(str(tmp_path / "per_row"))
    per_row.create_table(_schema())
    for values in _rows(n):
        per_row.run(lambda t, v=values: t.insert("items", v))
    per_row_records = len(_wal_records(per_row))
    per_row.close()

    batched = Database(str(tmp_path / "batched"))
    batched.create_table(_schema())
    batched.run(lambda t: t.insert_many("items", _rows(n)))
    batched_records = len(_wal_records(batched))
    batched.close()

    # per-row: one commit record per fact; batched: one in all (+ the DDL)
    assert per_row_records == n + 1
    assert batched_records == 2


# -------------------------------------------------------- telemetry metrics


def test_insert_many_records_wal_and_batch_metrics(tmp_path):
    registry = MetricsRegistry()
    with use_registry(registry):
        db = Database(str(tmp_path))
        db.create_table(_schema())
        db.run(lambda t: t.insert_many("items", _rows(50)))
    db.close()
    # the batch is one WAL record — metrics agree with the log itself
    assert registry.get("rdbms.wal.records.commit") == 1
    assert registry.get("rdbms.wal.records") == 2  # create_table + the batch
    assert registry.get("rdbms.wal.bytes") > 0
    assert registry.get("rdbms.rows.inserted") == 50
    assert registry.get("rdbms.txn.commits") == 1
    hist = registry.histogram("rdbms.insert.batch_size")
    assert hist is not None
    assert hist["count"] == 1 and hist["sum"] == 50 and hist["max"] == 50


def test_lock_wait_metrics_only_on_contention():
    registry = MetricsRegistry()
    db = Database()
    db.create_table(_schema())
    with use_registry(registry):
        db.run(lambda t: t.insert_many("items", _rows(10)))
    # uncontended single-threaded writes never touch the wait counters
    assert registry.get("rdbms.lock.waits") == 0

    shared = MetricsRegistry()
    first_holds = threading.Event()
    release_first = threading.Event()

    def long_writer():
        def body(t):
            t.update("items", 0, {"label": "held"})
            first_holds.set()
            release_first.wait(timeout=5.0)
        with use_registry(shared):
            db.run(body)

    def blocked_writer():
        first_holds.wait(timeout=5.0)
        with use_registry(shared):
            db.run(lambda t: t.update("items", 0, {"label": "later"}))

    threads = [threading.Thread(target=long_writer),
               threading.Thread(target=blocked_writer)]
    for thread in threads:
        thread.start()
    first_holds.wait(timeout=5.0)
    time.sleep(0.2)  # let the second writer block on the row lock
    release_first.set()
    for thread in threads:
        thread.join(timeout=10.0)
    assert shared.get("rdbms.lock.waits") >= 1
    assert shared.get("rdbms.lock.wait_seconds") > 0.0
    hist = shared.histogram("rdbms.lock.wait_seconds.hist")
    assert hist is not None and hist["count"] >= 1
    db.close()
