"""Tests for the write-ahead log and crash recovery.

A "crash" is simulated by abandoning the Database object without clean
shutdown and re-opening the directory: recovery must restore exactly the
committed state.
"""

import json

import pytest

from repro.storage.rdbms import wal
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.storage.rdbms.wal import WriteAheadLog
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.devices import failing


def _schema(name="t"):
    return TableSchema(
        name,
        (Column("id", ColumnType.INT, nullable=False),
         Column("value", ColumnType.TEXT)),
        primary_key="id",
    )


def test_wal_appends_and_replays(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.append(1, "begin")
    wal.append(1, "insert", table="t", rid=0, values={"id": 1})
    wal.append(1, "commit")
    wal.close()
    records = list(WriteAheadLog(str(tmp_path)).records())
    assert [r.rec_type for r in records] == ["begin", "insert", "commit"]
    assert [r.lsn for r in records] == [0, 1, 2]


def test_wal_lsn_continues_after_reopen(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.append(1, "begin")
    wal.close()
    wal2 = WriteAheadLog(str(tmp_path))
    record = wal2.append(2, "begin")
    assert record.lsn == 1


def test_committed_work_survives_crash(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "a"})
        txn.insert("t", {"id": 2, "value": "b"})
    # crash: no close/checkpoint; reopen from the log
    db2 = Database(str(tmp_path))
    rows = db2.run(lambda t: t.scan("t"))
    assert sorted(r.values["id"] for r in rows) == [1, 2]


def test_uncommitted_work_rolled_back_on_crash(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "committed"})
    dangling = db.begin()
    dangling.insert("t", {"id": 2, "value": "uncommitted"})
    # crash with the second txn in flight
    db2 = Database(str(tmp_path))
    rows = db2.run(lambda t: t.scan("t"))
    assert [r.values["id"] for r in rows] == [1]


def test_aborted_txn_not_replayed(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    txn = db.begin()
    txn.insert("t", {"id": 1, "value": "x"})
    txn.abort()
    db2 = Database(str(tmp_path))
    assert db2.run(lambda t: t.scan("t")) == []


def test_updates_and_deletes_replay(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    rid = db.run(lambda t: t.insert("t", {"id": 1, "value": "v0"})).rid
    db.run(lambda t: t.update("t", rid, {"value": "v1"}))
    rid2 = db.run(lambda t: t.insert("t", {"id": 2, "value": "gone"})).rid
    db.run(lambda t: t.delete("t", rid2))
    db2 = Database(str(tmp_path))
    rows = db2.run(lambda t: t.scan("t"))
    assert len(rows) == 1
    assert rows[0].values["value"] == "v1"


def test_checkpoint_truncates_log_and_recovers(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    for i in range(20):
        db.run(lambda t, i=i: t.insert("t", {"id": i, "value": str(i)}))
    size_before = db.wal_size_bytes()
    db.checkpoint()
    assert db.wal_size_bytes() < size_before
    # post-checkpoint work also recovers
    db.run(lambda t: t.insert("t", {"id": 100, "value": "after"}))
    db2 = Database(str(tmp_path))
    assert db2.table_size("t") == 21
    assert db2.run(lambda t: t.get_by_pk("t", 100)) is not None


def _rows(db):
    return db.run(lambda t: [(r.rid, r.values) for r in t.scan("t")])


@pytest.mark.parametrize("record", ["written", "not written"])
def test_a_crash_before_a_checkpoint_deletes_the_log_it_covers(
        tmp_path, record):
    """A checkpoint starts a new segment with its record, then deletes the
    segments before it.  A crash before the deletion leaves that log
    before the record: replay redoes it, then the record replaces what it
    built, instead of the log being redone on top of the checkpoint."""
    directory = tmp_path / "db"
    db = Database(str(directory))
    db.create_table(_schema())
    db.run(lambda t: t.insert_many(
        "t", [{"id": i, "value": f"v{i}"} for i in range(5)]))
    db.run(lambda t: t.update("t", 0, {"value": "updated"}))
    checkpointed = _rows(db)
    before = {path: path.read_bytes()
              for path in directory.rglob("*") if path.is_file()}
    db.checkpoint()
    db.close()
    for path in [p for p in directory.rglob("*") if p.is_file()]:
        if record == "not written" and path not in before \
                and path.name != "checkpoint.json":
            path.unlink()                     # the crash came before it
    for path, data in before.items():
        path.write_bytes(data)                # the log it covers, left
    reopened = Database(str(directory))
    assert _rows(reopened) == checkpointed
    reopened.run(lambda t: t.insert("t", {"id": 9, "value": "after"}))
    reopened.close()
    assert _rows(Database(str(directory))) == checkpointed + [
        (5, {"id": 9, "value": "after"})]


@pytest.mark.parametrize("deleted", [0, 1, 2, 3])
def test_a_crash_part_way_through_deleting_the_old_log_reopens(
        tmp_path, monkeypatch, deleted):
    """A checkpoint deletes the four segments before its record, newest
    first: a crash after any number of deletions leaves a prefix of the
    log, which replays before the record replaces what it built."""
    monkeypatch.setattr(wal, "SEGMENT_RECORDS", 2)
    db = Database(str(tmp_path))
    db.create_table(_schema())
    for i in range(6):
        db.run(lambda t, i=i: t.insert("t", {"id": i, "value": f"v{i}"}))
    db.run(lambda t: t.delete("t", 0))
    checkpointed = _rows(db)
    with failing(db._wal._log, "remove", after=deleted), \
            pytest.raises(OSError):
        db.checkpoint()
    assert len(list((tmp_path / "wal").iterdir())) == 5 - deleted
    assert _rows(Database(str(tmp_path))) == checkpointed


def test_a_one_file_wal_is_refused(tmp_path):
    (tmp_path / "wal.jsonl").write_text(
        '{"lsn": 0, "txn": 0, "type": "drop_table", "table": "t"}\n')
    with pytest.raises(ValueError, match="wal.jsonl"):
        Database(str(tmp_path))


def test_a_checkpoint_file_is_refused(tmp_path):
    (tmp_path / "checkpoint.json").write_text(
        '{"lsn": -1, "tables": {}, "indexes": []}')
    with pytest.raises(ValueError, match="checkpoint.json"):
        Database(str(tmp_path))


@pytest.mark.parametrize("fail", ["write", "sync"])
def test_a_commit_whose_append_raises_is_not_redone_on_reopen(
        tmp_path, fail):
    """The record lands whole and then the device reports a full disk, or
    its fsync fails: the caller sees the commit fail, and so does reopen."""
    db = Database(str(tmp_path), sync_wal=True)
    db.create_table(_schema())
    db.run(lambda t: t.insert("t", {"id": 1, "value": "a"}))
    with failing(db._wal._log, fail), pytest.raises(OSError):
        db.run(lambda t: t.insert("t", {"id": 2, "value": "b"}))
    db.run(lambda t: t.insert("t", {"id": 3, "value": "c"}))
    assert [values["id"] for _, values in _rows(db)] == [1, 3]
    db.close()
    assert _rows(Database(str(tmp_path))) == _rows(db)


def test_recovery_restores_indexes(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.create_index("t", "value", kind="hash")
    db.run(lambda t: t.insert("t", {"id": 1, "value": "findme"}))
    db.checkpoint()
    db2 = Database(str(tmp_path))
    hits = db2.run(lambda t: t.lookup("t", "value", "findme"))
    assert len(hits) == 1


def _plan(db, where):
    return "\n".join(r["plan"] for r in execute_sql(
        db, f"EXPLAIN SELECT id FROM t WHERE {where}"))


def test_indexes_survive_a_reopen_without_checkpoint(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(TableSchema(
        "t", (Column("id", ColumnType.INT, nullable=False),
              Column("k", ColumnType.TEXT), Column("n", ColumnType.INT)),
        primary_key="id"))
    db.create_index("t", "k", kind="hash")
    db.create_index("t", "n", kind="sorted")
    db.run(lambda t: t.insert_many("t", [
        {"id": i, "k": f"k{i % 40}", "n": i} for i in range(2000)]))
    plans = _plan(db, "k = 'k3'"), _plan(db, "n > 1990")
    assert "IndexLookup" in plans[0] and "RangeScan" in plans[1]
    db.close()
    reopened = Database(str(tmp_path))
    assert (_plan(reopened, "k = 'k3'"), _plan(reopened, "n > 1990")) == plans
    assert [r.values["id"] for r in reopened.run(
        lambda t: t.range_lookup("t", "n", 1998))] == [1998, 1999]
    assert len(reopened.run(lambda t: t.lookup("t", "k", "k3"))) == 50


def test_create_index_replays_at_its_log_position(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema("a"))
    db.create_table(_schema("b"))
    db.create_index("a", "value")
    db.create_index("b", "value", kind="sorted")
    db.drop_table("a")
    db.create_table(_schema("a"))                  # comes back unindexed
    db.alter_table("b", TableSchema(                # loses the indexed column
        "b", (Column("id", ColumnType.INT, nullable=False),),
        primary_key="id"), lambda values: {"id": values["id"]})
    reopened = Database(str(tmp_path))
    assert reopened._indexes == db._indexes == {}


def test_wal_truncated_inside_create_index_recovers_without_the_index(
        tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.run(lambda t: t.insert("t", {"id": 1, "value": "a"}))
    db.create_index("t", "value")
    # crash: no close, so no shutdown checkpoint
    wal_path = tmp_path / "wal" / "seg-0000.jsonl"
    data = wal_path.read_bytes()
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    assert b'"create_index"' in last
    wal_path.write_bytes(data[:len(data) - len(last) // 2])
    recovered = Database(str(tmp_path))
    assert recovered._find_index("t", "value") is None
    assert [r.values["id"] for r in recovered.run(
        lambda t: t.lookup("t", "value", "a"))] == [1]   # scan fallback
    recovered.create_index("t", "value")               # and it can be made


def test_txn_counter_continues_after_recovery(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "a"})
        last_id = txn.txn_id
    db2 = Database(str(tmp_path))
    assert db2.begin().txn_id > last_id


def test_drop_table_replays(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema("a"))
    db.create_table(_schema("b"))
    db.drop_table("a")
    db2 = Database(str(tmp_path))
    assert db2.table_names() == ["b"]


def test_torn_final_record_is_tolerated(tmp_path):
    """A crash mid-append leaves a truncated last line; recovery must drop
    it and keep every earlier committed record."""
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "committed"})
    # crash: no close, so no shutdown checkpoint
    wal_path = tmp_path / "wal" / "seg-0000.jsonl"
    with open(wal_path, "a", encoding="utf-8") as f:
        f.write('{"lsn": 999, "txn": 9, "type": "ins')  # torn write
    recovered = Database(str(tmp_path))
    rows = recovered.run(lambda t: t.scan("t"))
    assert [r.values["id"] for r in rows] == [1]
    # and the reopened log keeps assigning fresh LSNs / accepting work
    with recovered.begin() as txn:
        txn.insert("t", {"id": 2, "value": "after"})
    assert recovered.table_size("t") == 2


def test_multi_record_corrupt_suffix_is_tolerated(tmp_path):
    """A crash during a multi-record append burst can corrupt several
    trailing lines; recovery drops the whole suffix and counts it."""
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "committed"})
    # crash: no close, so no shutdown checkpoint
    wal_path = tmp_path / "wal" / "seg-0000.jsonl"
    with open(wal_path, "a", encoding="utf-8") as f:
        f.write("GARBAGE NOT JSON\n")
        f.write('{"no_lsn_key": true}\n')
        f.write('{"lsn": 999, "txn": 9, "type": "ins')  # torn final write
    registry = MetricsRegistry()
    with use_registry(registry):
        recovered = Database(str(tmp_path))
    rows = recovered.run(lambda t: t.scan("t"))
    assert [r.values["id"] for r in rows] == [1]
    assert registry.get("recovery.truncated_records") == 3


def test_midlog_corruption_raises(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "a"})
    # crash: no close, so no shutdown checkpoint
    wal_path = tmp_path / "wal" / "seg-0000.jsonl"
    lines = wal_path.read_text().splitlines()
    assert len(lines) == 2                      # create_table, the commit
    lines[0] = "GARBAGE NOT JSON"
    wal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        Database(str(tmp_path))


def test_recovery_is_idempotent(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_schema())
    with db.begin() as txn:
        txn.insert("t", {"id": 1, "value": "a"})
    first = Database(str(tmp_path))
    second = Database(str(tmp_path))
    rows1 = [r.values for r in first.run(lambda t: t.scan("t"))]
    rows2 = [r.values for r in second.run(lambda t: t.scan("t"))]
    assert rows1 == rows2 == [{"id": 1, "value": "a"}]


def test_checkpoint_after_writes_to_frozen_rows_reopens_as_it_was(tmp_path):
    """A checkpoint stores each segment with its dead positions, beside
    the tail rows standing in for them: reopen brings the table back as
    it was, the WAL suffix redone beside it, and rebuilds each zone map
    from its segment's buffers."""
    db = Database(str(tmp_path))
    db.create_table(_schema())
    db.run(lambda t: t.insert_many(
        "t", [{"id": i, "value": f"v{i:02d}"} for i in range(12)]))
    db.compact("t", target_rows=4)
    db.run(lambda t: t.update("t", 5, {"value": "zz"}))     # frozen rows
    db.run(lambda t: t.delete("t", 8))
    db.run(lambda t: t.delete("t", 9))
    heap = db._table("t")
    assert (heap.tail_size, heap.dead_rows) == (1, 3)
    assert heap.segment_layout() == [[0, 3, 4], [4, 7, 4], [8, 11, 2]]
    db.checkpoint()
    db.run(lambda t: t.update("t", 1, {"value": "after"}))  # WAL suffix
    db.run(lambda t: t.delete("t", 6))
    before = db.run(lambda t: [r.values for r in t.scan("t")])

    reopened = Database(str(tmp_path))
    heap = reopened._table("t")
    assert reopened.run(lambda t: [r.values for r in t.scan("t")]) == before
    # the suffix replayed beside the checkpointed segments, melting nothing
    assert (heap.segment_count(), heap.tail_size, heap.dead_rows) == (3, 2, 5)
    live = db._table("t")
    assert [(list(s.rids), list(heap.dead_positions(s)), s.zone_maps())
            for s in heap.segments] == \
        [(list(s.rids), list(live.dead_positions(s)), s.zone_maps())
         for s in live.segments]
    middle = next(s for s in heap.segments if s.min_rid == 4)
    assert middle.zone_maps()["value"]["max"] == "v07"  # "zz" is a tail row


# ------------------------------------------------- the batch write record


def _seeded(directory, frozen):
    """Rows 0..5 committed (the first four frozen when asked), an index."""
    db = Database(str(directory))
    db.create_table(_schema())
    db.create_index("t", "value")
    db.run(lambda t: t.insert_many(
        "t", [{"id": i, "value": f"v{i}"} for i in range(6)]))
    if frozen:
        db.compact("t", target_rows=4)
    return db


BATCH = [("insert", {"id": 10, "value": "new"}),
         ("update", 1, {"value": "one"}),        # a frozen row when compacted
         ("update", 5, {"value": "five"}),       # a tail row
         ("update", 2, {"value": "v2"}),         # no value moves: dropped
         ("delete", 3),
         ("delete", 4),
         ("insert", {"id": 3, "value": "again"}),    # the key just freed
         ("update", 6, {"id": 11})]              # the row inserted above


def _single_row_calls(txn, ops):
    for op in ops:
        getattr(txn, op[0])("t", *op[1:])


def _contents(db):
    rows = db.run(lambda t: [(r.rid, r.values) for r in t.scan("t")])
    by_value = db.run(lambda t: [r.rid for r in t.lookup("t", "value", "one")])
    return rows, by_value


@pytest.mark.parametrize("frozen", [False, True])
def test_committed_batch_record_replays_like_the_single_row_calls(
        tmp_path, frozen):
    batched = _seeded(tmp_path / "batched", frozen)
    registry = MetricsRegistry()
    with use_registry(registry):
        results = batched.run(lambda t: t.write_many("t", BATCH))
    assert registry.get("rdbms.wal.records") == 1
    assert registry.get("rdbms.wal.records.commit") == 1
    assert [r and r.rid for r in results] == [6, 1, 5, None, 3, 4, 7, 6]
    single = _seeded(tmp_path / "single", frozen)
    single.run(lambda t: _single_row_calls(t, BATCH))
    assert _contents(batched) == _contents(single)
    [[table, ops]] = list(batched._wal.records())[-1].payload["writes"]
    assert table == "t" and ops[1] == ["update", 1, {"value": "one"}]
    assert ["update", 2, {}] not in ops
    assert len(ops) == len(BATCH) - 1
    # crash: no close/checkpoint; reopen from the log
    recovered = Database(str(tmp_path / "batched"))
    assert _contents(recovered) == _contents(batched)
    assert recovered._table("t").segment_layout() == \
        batched._table("t").segment_layout()
    recovered.run(lambda t: t.insert("t", {"id": 12, "value": "next"}))
    assert recovered.run(lambda t: t.get_by_pk("t", 12)).rid == 8


@pytest.mark.parametrize("ending", ["in flight", "aborted"])
def test_uncommitted_or_aborted_batch_record_leaves_no_trace(
        tmp_path, ending):
    db = _seeded(tmp_path, frozen=True)
    before = _contents(db)
    txn = db.begin()
    txn.write_many("t", BATCH)
    if ending == "aborted":
        txn.abort()
        assert _contents(db) == before
    assert [r.rec_type for r in db._wal.records()] == [
        "create_table", "create_index", "commit", "compact"]   # the seed's
    assert _contents(Database(str(tmp_path))) == before


def test_batch_record_torn_at_any_byte_recovers_to_before_the_transaction(
        tmp_path):
    db = _seeded(tmp_path / "db", frozen=True)
    before = _contents(db)
    wal_path = tmp_path / "db" / "wal" / "seg-0000.jsonl"
    prefix = wal_path.read_bytes()
    db.run(lambda t: t.write_many("t", BATCH))
    # crash: no close, so no shutdown checkpoint
    whole = wal_path.read_bytes()
    lines = whole[len(prefix):].splitlines(keepends=True)
    assert [json.loads(line)["type"] for line in lines] \
        == ["commit"]
    # the record counts once its last byte (bar the newline) is there
    for cut in range(len(prefix), len(whole) - 1):
        wal_path.write_bytes(whole[:cut])
        assert _contents(Database(str(tmp_path / "db"))) == before, cut
    wal_path.write_bytes(whole)
    assert _contents(Database(str(tmp_path / "db"))) != before


# ----------------------------------------------- logs of sharded tables


def _plain_image(table="t", segments=()):
    return {"schema": _schema(table).to_dict(), "rows": {},
            "segments": list(segments)}


def _segment_image(**extra):
    from repro.storage.rdbms.segments import Segment

    segment = Segment.from_rows(_schema(), [(0, {"id": 0, "value": "a"}),
                                            (3, {"id": 3, "value": "b"})])
    return {**segment.image(), "dead": [], **extra}


#: Records older versions wrote for hash-sharded tables, one of each kind
#: that declares a shard layout, after a plain ``create_table`` of "t".
_SHARDED_RECORDS = {
    "create_table": ("create_table", {
        "schema": _schema("u").to_dict(), "shard_key": "value",
        "shard_count": 3}),
    "alter_schema": ("alter_schema", {
        **_plain_image(), "shard_key": "value", "shard_count": 2}),
    "reshard": ("reshard", {"table": "t", "shard_key": "value",
                            "shard_count": 4}),
    "checkpoint table": ("checkpoint", {
        "tables": {"t": {**_plain_image(), "shard_key": "value",
                         "shard_count": 3}},
        "indexes": [], "txn_counter": 0}),
    "checkpoint segment": ("checkpoint", {
        "tables": {"t": _plain_image(segments=[_segment_image(shard=1)])},
        "indexes": [], "txn_counter": 0}),
}


@pytest.mark.parametrize("kind", sorted(_SHARDED_RECORDS))
def test_a_log_that_declares_a_shard_layout_is_refused_by_table(tmp_path,
                                                                 kind):
    from repro.errors import ShardedLogError

    rec_type, payload = _SHARDED_RECORDS[kind]
    log = WriteAheadLog(str(tmp_path))
    log.append(0, "create_table", schema=_schema().to_dict())
    log.append(0, rec_type, **payload)
    log.close()
    with pytest.raises(ShardedLogError) as info:
        Database(str(tmp_path))
    table = "u" if kind == "create_table" else "t"
    assert info.value.table == table
    assert f"table {table!r}" in str(info.value)


def test_a_log_that_only_ever_unsharded_opens_with_its_rows(tmp_path):
    # a reshard record without a key (and a segment tagged with no shard)
    # is what an older version wrote for a table it left unsharded
    log = WriteAheadLog(str(tmp_path))
    log.checkpoint(tables={"t": _plain_image(
        segments=[_segment_image(shard=None)])}, indexes=[], txn_counter=0)
    log.append(0, "reshard", table="t", shard_key=None, shard_count=1)
    log.close()
    db = Database(str(tmp_path))
    assert db._table("t").segment_count() == 0     # melted, as it was then
    assert [(row.rid, row.values) for row in db.run(lambda t: t.scan("t"))] \
        == [(0, {"id": 0, "value": "a"}), (3, {"id": 3, "value": "b"})]
