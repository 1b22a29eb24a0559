"""The read API is defined once (``engine.TransactionReads``) for the 2PL
transaction and the snapshot transaction: over the same committed state
both must return the same thing from every read method, and only the
former may touch the lock manager.  Also: what a snapshot costs to begin
while a big write is in flight elsewhere."""

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.table import unit_rows
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry


def _schema(name):
    return TableSchema(
        name, (Column("id", ColumnType.INT, nullable=False),
               Column("grp", ColumnType.TEXT), Column("qty", ColumnType.INT)),
        primary_key="id")


def _database(directory=None):
    """Segments, dead positions (an updated and a deleted frozen row) and
    a tail; given a ``directory``, reopened from the checkpoint a clean
    close writes there (columns, indexes and the pk map not yet loaded)."""
    db = Database(directory)
    db.create_table(_schema("t"))
    db.create_index("t", "grp", "hash")
    db.create_index("t", "qty", "sorted")
    db.run(lambda t: t.insert_many("t", [
        {"id": i, "grp": "abc"[i % 3], "qty": i % 5} for i in range(12)]))
    db.compact("t", target_rows=4)
    db.run(lambda t: (t.update("t", 5, {"qty": 9}), t.delete("t", 7)))
    db.run(lambda t: t.insert_many("t", [
        {"id": 20 + i, "grp": "abc"[i % 3], "qty": i} for i in range(4)]))
    if directory is not None:
        db.close()
        db = Database(directory)
    heap = db._table("t")
    assert heap.segment_count() and heap.dead_rows == 2 and heap.tail_size == 5
    return db


def _rows(rows):
    return [(row.rid, row.values) for row in rows]


def _units(units):
    return [(rid, dict(values)) for unit in units
            for rid, values in unit_rows(*unit)]


READS = {
    "get": lambda t: _rows([t.get("t", 5), t.get("t", 0), t.get("t", 13)]),
    # a deleted rid (7) and one never written (999) are skipped
    "held_rows": lambda t: _rows(t.held_rows("t", [13, 7, 999, 5, 0])),
    "scan": lambda t: _rows(t.scan("t")),
    "scan_iter": lambda t: _rows(t.scan_iter("t")),
    "scan_units": lambda t: _units(t.scan_units("t")),
    "scan_where": lambda t: _rows(
        t.scan_where("t", lambda values: values["qty"] > 2)),
    "lookup_units": lambda t: _units(t.lookup_units("t", "grp", "b"))
    + _units(t.lookup_units("t", "id", 21)),      # no index: scan fallback
    "range_units": lambda t: _units(t.range_units("t", "qty", 2, 9,
                                                  include_low=False)),
    "pk_units": lambda t: _units(t.pk_units("t", 5))
    + _units(t.pk_units("t", 7)) + _units(t.pk_units("t", 22)),
}


@pytest.mark.parametrize("reopened", [False, True], ids=["plain", "reopened"])
@pytest.mark.parametrize("method", sorted(READS))
def test_both_transactions_read_the_same_and_only_one_locks(method, reopened,
                                                            tmp_path):
    db = _database(tmp_path if reopened else None)
    read = READS[method]
    with db.begin() as locked, db.begin_snapshot() as snapshot:
        before = db._locks.lock_count()
        seen = read(snapshot)
        assert db._locks.lock_count() == before     # the snapshot took none
        assert db._locks.held(snapshot.txn_id) == set()
        assert read(locked) == seen
        assert seen != []
        assert db._locks.held(locked.txn_id)
    assert type(locked).__dict__.get(method) is None \
        and type(snapshot).__dict__.get(method) is None  # defined once


def test_neither_reader_sees_an_uncommitted_writer_but_the_writer_does():
    db = _database()
    committed = _rows(db.run(lambda t: t.scan("t")))
    writer = db.begin()
    writer.update("t", 0, {"qty": 77})
    writer.delete("t", 1)
    inserted = writer.insert("t", {"id": 99, "grp": "z", "qty": 1})
    with db.begin_snapshot() as snapshot:
        assert _rows(snapshot.scan("t")) == committed
        assert _rows(snapshot.held_rows("t", [inserted.rid, 1, 0])) == \
            committed[:2]
        assert _units(snapshot.pk_units("t", 99)) == []
        assert _units(snapshot.lookup_units("t", "grp", "z")) == []
    assert len(writer.scan("t")) == len(committed)
    assert writer.get_by_pk("t", 99).values["grp"] == "z"
    writer.abort()
    assert _rows(db.begin_snapshot().scan("t")) == committed


class _CountingUndo(list):
    """An undo log that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_cached_snapshots_do_not_walk_the_undo_log_of_a_writer_elsewhere():
    db = Database()
    db.create_table(_schema("a"))
    db.create_table(_schema("b"))
    db.run(lambda t: t.insert_many("b", [
        {"id": i, "grp": "g", "qty": i} for i in range(10)]))
    db.begin_snapshot().commit()               # both views built and cached
    writer = db.begin()
    writer.insert_many("a", [{"id": i, "grp": "g", "qty": i}
                             for i in range(3_000)])
    writer._undo = _CountingUndo(writer._undo)
    registry = MetricsRegistry()
    with use_registry(registry):
        for _ in range(100):
            with db.begin_snapshot() as snapshot:
                assert len(snapshot.scan("b")) == 10
                assert snapshot.scan("a") == []
    assert registry.get("rdbms.mvcc.snapshot_builds") == 0
    assert registry.get("rdbms.mvcc.snapshot_reuses") == 200
    assert writer._undo.walks == 0
    # a rebuild (someone committed to "b") walks it once, not per table
    db.run(lambda t: t.insert("b", {"id": 10, "grp": "g", "qty": 10}))
    with db.begin_snapshot() as snapshot:
        assert len(snapshot.scan("b")) == 11 and snapshot.scan("a") == []
    assert writer._undo.walks == 1
    writer.commit()
    assert len(db.begin_snapshot().scan("a")) == 3_000
