"""A clean close writes a checkpoint whose table images hold each segment
as its encoded columns, and reopen takes them back as they are.

The oracle: for any table state, a clean close + reopen reads exactly like
a crash reopen, which replays the same log — rows in rid order, each
segment down to its buffers, encodings and zone maps, dead positions, the
tail, primary-key and index lookups, and the EXPLAIN, rows and zone-map
skips of range SELECTs (the layout parts only where no aborted write
took a row back: see the test).  (Not the next rid to assign: a rid that no
stored row or segment holds, freed by an abort or a tail delete, may be
assigned again after a clean reopen; no record names it.  Like the next
rid, the next primary key may differ between a clean and a crash reopen —
a sequence has gaps — but both lie above every key ever committed.)
Also here: a read-only open and
close rewrites nothing, open starts at the last checkpoint record, and a
shutdown checkpoint that fails loses nothing.
"""

import json
import os
import shutil
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import StructureManagementSystem
from repro.storage.rdbms import wal
from repro.storage.rdbms import segments
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.index import HashIndex, SortedIndex
from repro.storage.rdbms.segments import (DICT_MAX_ENTRIES, ColumnSegment,
                                          Segment, _bounds)
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.devices import failing
from tests.test_rdbms_compact_layout import _plain, column_layout

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
TABLES = ("t", "u")


def _schema(name):
    return TableSchema(
        name,
        (Column("id", ColumnType.INT, nullable=False),
         Column("n", ColumnType.INT),
         Column("f", ColumnType.FLOAT),
         Column("s", ColumnType.TEXT),
         Column("b", ColumnType.BOOL)),
        primary_key="id")


cells_st = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5),
              st.sampled_from([_INT64_MIN - 1, _INT64_MAX + 1, _INT64_MIN])),
    st.one_of(st.none(), st.sampled_from([-0.0, float("nan"), float("inf"),
                                          float("-inf")]),
              st.floats(-4, 4, width=32)),
    st.one_of(st.none(), st.sampled_from(["", "a", "b", "ß", "a b"])),
    st.one_of(st.none(), st.booleans()))
#: (kind, table, which row, new cells, segment size of a compaction)
op_st = st.tuples(
    st.sampled_from(["insert", "insert", "update", "update", "delete",
                     "compact", "abort", "checkpoint"]),
    st.sampled_from(TABLES), st.integers(0, 1000), cells_st,
    st.integers(1, 6))


def _values(key, cells):
    return dict(zip(("n", "f", "s", "b"), cells), id=key)


def _create(directory):
    db = Database(directory)
    db.create_table(_schema("t"))
    db.create_table(_schema("u"))
    for table in TABLES:
        db.create_index(table, "s")
        db.create_index(table, "n", kind="sorted")
    return db


def _apply(db, ops, keys):
    """Commits, aborts, compactions and checkpoints, so the log holds
    every record kind and the tables dead positions, tail rows inside
    and beyond segments, and neighbours rewritten together.  Returns
    whether an aborted write touched a row that was there before it."""
    undone = False
    for kind, table, pick, cells, size in ops:
        rids = db._table(table).rids()
        if kind == "compact":
            db.compact(table, target_rows=size)
        elif kind == "checkpoint":
            db.checkpoint()
        elif kind == "insert" or not rids:
            db.run(lambda t: t.insert(table, _values(next(keys), cells)))
        elif kind == "abort":       # of an insert, an update or a delete
            txn = db.begin()
            rid = rids[pick % len(rids)]
            if size % 3 == 0:
                txn.insert(table, _values(next(keys), cells))
            elif size % 3 == 1:
                txn.update(table, rid, {"n": cells[0]})
            else:
                txn.delete(table, rid)
            txn.abort()
            undone |= size % 3 != 0
        elif kind == "update":
            rid = rids[pick % len(rids)]
            db.run(lambda t: t.update(table, rid, _values(
                db._table(table).get(rid)["id"], cells)))
        else:
            db.run(lambda t: t.delete(table, rids[pick % len(rids)]))
    return undone


def _layout(heap):
    return ([(segment.rids.tobytes(),
              [column_layout(segment.columns[name])
               for name in heap.schema.column_names],
              list(heap.dead_positions(segment)))
             for segment in heap._segments],
            {rid: _plain_row(values) for rid, values in heap._rows.items()})


def _plain_row(values):
    return {name: _plain(value) for name, value in values.items()}


def _state(db, probes):
    """What the two reopens must agree on, read through every path, as
    ``(contents, layout)``."""
    state = {"indexes": sorted((key, type(index).__name__)
                               for key, index in db._indexes.items())}
    layout = {}
    for table in TABLES:
        heap = db._table(table)
        rows = db.run(lambda t: t.scan(table))
        layout[table] = _layout(heap)
        state[table] = (
            [(row.rid, _plain_row(row.values)) for row in rows],
            sorted(heap._pk_index.items()),
            db.run(lambda t: (
                [t.get_by_pk(table, row["id"]).rid for row in rows],
                [[r.rid for r in t.lookup(table, "s", text)]
                 for text in ("", "a", "b", "ß", "a b", "w7")],
                [[r.rid for r in t.range_lookup(table, "n", low, high)]
                 for low, high in probes])))
        for low, high in probes:
            registry = MetricsRegistry()
            with use_registry(registry):
                where = f"n >= {low} AND n <= {high} AND f > -1.5"
                state[table, where] = [_plain_row(r) for r in execute_sql(
                    db, f"SELECT id, f FROM {table} WHERE {where}")]
                layout[table, where] = (
                    [r["plan"] for r in execute_sql(
                        db, f"EXPLAIN SELECT id, f FROM {table} "
                            f"WHERE {where}")],
                    registry.get("segments.skipped"),
                    registry.get("segments.scanned"))
    return state, layout


@given(ops=st.lists(op_st, max_size=30), wide=st.sampled_from(
    [False, False, False, True]), probes=st.lists(st.tuples(
        st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_a_clean_reopen_reads_like_a_crash_reopen(ops, wide, probes):
    with tempfile.TemporaryDirectory() as scratch:
        clean, crash = (os.path.join(scratch, name)
                        for name in ("clean", "crash"))
        db = _create(clean)
        keys = iter(range(10**6))
        if wide:   # a TEXT column over the dictionary's bound: raw
            db.run(lambda t: t.insert_many("t", [
                _values(next(keys), (None, 0.5, f"w{i}", True))
                for i in range(DICT_MAX_ENTRIES + 1)]))
            db.compact("t")
            assert "raw" in {segment.columns["s"].encoding
                             for segment in db._table("t").segments}
        undone = _apply(db, ops, keys)
        shutil.copytree(clean, crash)      # the log as a crash leaves it
        replayed = Database(crash)
        db.close()
        assert not db._wal.needs_checkpoint
        with mock.patch.object(ColumnSegment, "encode") as encode, \
                mock.patch.object(Segment, "rows_at") as rows_at:
            reopened = Database(clean)
        assert encode.call_count == rows_at.call_count == 0  # none made
        (contents, layout), (replayed_contents, replayed_layout) = (
            _state(reopened, probes), _state(replayed, probes))
        assert contents == replayed_contents
        # An aborted update or delete leaves the row it took back as a
        # dead position and a tail copy of its values in the live table
        # (and in a committed view built while it was open); a replay,
        # which never sees the abort, does not.  Only then may the
        # layouts differ.
        if not undone:
            assert layout == replayed_layout
        assert reopened._txn_counter >= replayed._txn_counter


def test_an_update_that_flips_a_zeros_sign_is_redone(tmp_path):
    """-0.0 == 0.0, yet an update storing one over the other changes what
    a reader gets: its commit record carries the column, so a crash
    reopen reads what a clean one does."""
    db = _create(str(tmp_path / "db"))
    db.run(lambda t: t.insert("u", _values(1, (None, 0.0, None, None))))
    [rid] = db._table("u").rids()
    db.run(lambda t: t.update("u", rid, {"f": -0.0, "b": False}))
    shutil.copytree(tmp_path / "db", tmp_path / "crash")
    db.close()
    for reopened in (Database(str(tmp_path / "crash")),
                     Database(str(tmp_path / "db"))):
        assert _plain_row(reopened.run(lambda t: t.get("u", rid)).values) \
            == _plain_row(_values(1, (None, -0.0, None, False)))


# ------------------------------------------------ the shutdown checkpoint


def _seeded(directory):
    """A table with segments, dead positions and tail rows, and an index."""
    db = _create(directory)
    db.run(lambda t: t.insert_many("t", [
        _values(i, (i, i / 4, "ab"[i % 2], i % 3 == 0)) for i in range(12)]))
    db.compact("t", target_rows=4)
    db.run(lambda t: t.update("t", 5, {"s": "b"}))
    db.run(lambda t: t.delete("t", 9))
    db.run(lambda t: t.insert("t", _values(12, (None, None, None, None))))
    return db


def _wal(directory):
    """The WAL's segment files: name -> bytes."""
    return {path.name: path.read_bytes()
            for path in (directory / "wal").iterdir()}


def _rows(db):
    return {table: db.run(lambda t: [(r.rid, _plain_row(r.values))
                                     for r in t.scan(table)])
            for table in db.table_names()}


def test_close_checkpoints_a_log_with_records_after_its_last(tmp_path):
    db = _seeded(str(tmp_path))
    rows, last_txn = _rows(db), db._txn_counter
    assert len(_wal(tmp_path)) == 1 and db._wal.needs_checkpoint
    db.close()
    [(name, data)] = _wal(tmp_path).items()
    assert name == "seg-0001.jsonl"          # the log before it is gone
    assert [json.loads(line)["type"] for line in data.splitlines()] == [
        "checkpoint"]
    reopened = Database(str(tmp_path))
    assert _rows(reopened) == rows
    assert reopened.begin().txn_id > last_txn  # the record carries it


def test_a_read_only_open_and_close_rewrites_nothing(tmp_path):
    _seeded(str(tmp_path)).close()
    before = _wal(tmp_path)
    reopened = Database(str(tmp_path))
    assert execute_sql(reopened, "SELECT COUNT(*) AS n FROM t") == [{"n": 12}]
    reopened.close()
    assert _wal(tmp_path) == before
    Database(str(tmp_path)).close()      # nor does one that reads nothing
    assert _wal(tmp_path) == before


def test_a_reopened_workspace_closes_without_rewriting_its_log(tmp_path):
    """The e2e cycle's reopen: open a closed workspace, count, close."""
    workspace = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=workspace)
    system.db.create_table(_schema("t"))
    system.db.run(lambda t: t.insert("t", _values(1, (1, 1.0, "a", True))))
    system.close()
    before = _wal(tmp_path / "ws" / "final")
    reopened = StructureManagementSystem(workspace=workspace)
    assert reopened.query("SELECT COUNT(*) AS n FROM t") == [{"n": 1}]
    reopened.close()
    assert _wal(tmp_path / "ws" / "final") == before


@pytest.mark.parametrize("deleted", [0, 1, 2])
def test_open_starts_at_the_last_checkpoint(tmp_path, monkeypatch, deleted):
    """A crash between a checkpoint's append and the deletion of the log
    before it (here: the deletion fails after ``deleted`` segments): the
    next open deletes what is left of that log without parsing it, and
    the tables and the transaction counter come back all the same."""
    monkeypatch.setattr(wal, "SEGMENT_RECORDS", 2)
    interrupted, whole = _seeded(str(tmp_path / "a")), _seeded(
        str(tmp_path / "b"))
    with failing(interrupted._wal._log, "remove", after=deleted), \
            pytest.raises(OSError):
        interrupted.checkpoint()
    whole.checkpoint()
    left = sorted(_wal(tmp_path / "a"))
    assert len(left) > len(_wal(tmp_path / "b")) + 1
    for db in (interrupted, whole):     # a record after the checkpoint
        db.run(lambda t: t.insert("t", _values(13, (13, None, "c", None))))
    last_txn = interrupted._txn_counter
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, *args, **kwargs: (
        parsed.append(text), loads(text, *args, **kwargs))[1])
    reopened = Database(str(tmp_path / "a"))
    monkeypatch.setattr(json, "loads", loads)
    assert len(parsed) == 2             # the checkpoint and the commit
    assert sorted(_wal(tmp_path / "a")) == left[-1:]
    assert _rows(reopened) == _rows(Database(str(tmp_path / "b")))
    assert reopened.begin().txn_id > last_txn


@pytest.mark.parametrize("fail", ["write", "sync"])
def test_a_failed_shutdown_checkpoint_loses_nothing(tmp_path, fail):
    """The checkpoint's append reports a full disk, or the fsync before
    the old log's deletion fails: close releases the log and raises, and
    the directory reopens to the committed state."""
    db = _seeded(str(tmp_path))
    rows = _rows(db)
    with failing(db._wal._log, fail) as device, pytest.raises(OSError):
        db.close()
    assert device._device._file is None            # the log is released
    reopened = Database(str(tmp_path))
    assert _rows(reopened) == rows
    reopened.close()
    assert _rows(Database(str(tmp_path))) == rows


# ------------------------------------- zone maps and indexes as loaded


def _pairs(index):
    """An index as its ``(key, rid)`` pairs, in index order for a sorted
    index and sorted for a hash one: what lookups read off it (a key
    compared as the index compares it: -0.0 is 0.0, each NaN apart)."""
    pairs = [(_plain(key + 0.0 if type(key) is float else key), rid)
             for key, rids in index.runs() for rid in rids]
    return pairs if isinstance(index, SortedIndex) else sorted(pairs)


def _as_rebuilt(db):
    """Every index of ``db`` beside one loaded from its recovered rows;
    every zone map beside :func:`_bounds` of its decoded column, the
    bounds compared in value and in type."""
    indexes = []
    for (table, column), index in db._indexes.items():
        rebuilt = type(index)(table, column)
        rebuilt.bulk_load(db._table(table).column_items(column))
        nan = any(key != key for key, _ in index.runs())
        indexes.append((
            _pairs(index) if not nan else sorted(_pairs(index), key=repr),
            _pairs(rebuilt) if not nan else sorted(_pairs(rebuilt),
                                                   key=repr)))
    zones = []
    for table in db.table_names():
        schema = db.schema(table)
        for segment in db._table(table).segments:
            for col in schema.columns:
                column = segment.columns[col.name]
                decoded = column.decoded()
                zones.append((
                    tuple(map(_plain, (column.min_value, column.max_value))),
                    tuple(map(_plain, _bounds(col.col_type, [
                        v for v in decoded if v is not None]))),
                    all(v is None for v in decoded)))
    return indexes, zones


def _assert_as_rebuilt(db):
    """Returns whether a segment column holds NULLs only."""
    indexes, zones = _as_rebuilt(db)
    for loaded, rebuilt in indexes:
        assert loaded == rebuilt
    for loaded, computed, _ in zones:
        assert loaded == computed
    return any(null_only for _, _, null_only in zones)


@given(ops=st.lists(op_st, max_size=30), wide=st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_reopen_loads_zone_maps_and_indexes_a_rebuild_would_make(ops,
                                                                   wide):
    """NaN, ±inf, -0.0, NULL-only columns, BOOL, ints past int64 (raw)
    and TEXT past the dictionary's bound, under a hash and a sorted
    index: after a close and a reopen, each zone map is its decoded
    column's and each index the one its recovered rows make — loaded,
    not rebuilt."""
    with tempfile.TemporaryDirectory() as scratch:
        db = _create(scratch)
        keys = iter(range(10**6))
        db.create_table(_schema("v"))   # NULL-only columns, left alone
        db.create_index("v", "s")
        db.create_index("v", "n", kind="sorted")
        db.run(lambda t: t.insert_many("v", [
            _values(next(keys), (None, None, None, None))
            for _ in range(3)]))
        db.compact("v")
        if wide:   # TEXT over the dictionary's bound: raw
            db.run(lambda t: t.insert_many("u", [
                _values(next(keys), (None, 0.5, f"w{i}", True))
                for i in range(DICT_MAX_ENTRIES + 1)]))
            db.compact("u")
        _apply(db, ops, keys)
        db.compact("t")
        db.close()
        with mock.patch.object(Database, "_rebuild_index") as rebuild:
            reopened = Database(scratch)
        assert rebuild.call_count == 0
        assert _assert_as_rebuilt(reopened)


@given(ops=st.lists(op_st, max_size=20), cells=st.lists(cells_st,
       min_size=3, max_size=3), pick=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_a_checkpoint_beside_an_open_writer_holds_committed_indexes(
        ops, cells, pick):
    """A checkpoint taken while another transaction holds uncommitted
    inserts, updates and deletes on the indexed columns, then a crash:
    the reopen loads the indexes of the committed rows, as a rebuild
    from them would make."""
    with tempfile.TemporaryDirectory() as scratch:
        db = _create(scratch)
        keys = iter(range(10**6))
        db.run(lambda t: t.insert_many("t", [
            _values(next(keys), cell) for cell in cells]))
        _apply(db, ops, keys)
        with db.begin_snapshot() as snap:
            committed = {table: [(row.rid, _plain_row(row.values))
                                 for row in snap.scan(table)]
                         for table in TABLES}
        writer = db.begin()
        for table in TABLES:
            rids = db._table(table).rids()
            writer.insert(table, _values(next(keys), cells[0]))
            if rids:
                writer.update(table, rids[pick % len(rids)],
                              {"s": cells[1][2], "n": cells[1][0]})
                writer.delete(table, rids[(pick + 1) % len(rids)])
        db.checkpoint()
        with mock.patch.object(Database, "_rebuild_index") as rebuild:
            reopened = Database(scratch)   # (the writer never ends)
        assert rebuild.call_count == 0
        assert {table: [(row.rid, _plain_row(row.values))
                        for row in reopened.run(lambda t: t.scan(table))]
                for table in TABLES} == committed
        _assert_as_rebuilt(reopened)
        writer.abort()


def test_a_clean_reopen_rebuilds_nothing_and_runs_no_sql(tmp_path):
    """Open a closed workspace and count its facts: no index is loaded
    from rows, no zone map computed, no column encoded and no row dict
    built, and opening runs no SQL statement."""
    workspace = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=workspace)
    system.users.register("ann", "secret")
    system.contribute("ann", "Madison", "population", 250_000)
    system.contribute("ann", "Boston", "population", 650_000)
    system.compact()
    system.close()
    from repro.storage.rdbms import sql
    with mock.patch.object(HashIndex, "bulk_load") as hash_loads, \
            mock.patch.object(SortedIndex, "bulk_load") as sorted_loads, \
            mock.patch.object(Database, "_rebuild_index") as rebuilds, \
            mock.patch.object(segments, "_bounds") as bounds, \
            mock.patch.object(ColumnSegment, "encode") as encode, \
            mock.patch.object(Segment, "rows_at") as rows_at:
        with mock.patch.object(sql, "execute_statement") as statements:
            reopened = StructureManagementSystem(workspace=workspace)
        assert statements.call_count == 0
        assert reopened.fact_count() == 2
        reopened.close()
    for spy in (hash_loads, sorted_loads, rebuilds, bounds, encode, rows_at):
        assert spy.call_count == 0


# ---------------------------------------------- what waits for first use


def _record(directory):
    """The one checkpoint record a clean close leaves in ``directory``."""
    [segment] = (directory / "wal").iterdir()
    [line] = segment.read_text().splitlines()
    return json.loads(line)


def _texts(table):
    """Every base64 text a checkpoint record's table image holds."""
    return {text for entry in table["segments"]
            for text in (entry["rids"], *(column.get(key)
                         for column in entry["columns"].values()
                         for key in ("data", "nulls")))
            if isinstance(text, str)}


def test_a_clean_reopen_and_a_count_decode_only_rids(tmp_path):
    """Open a closed workspace whose compacted facts table has two hash
    indexes and NULL cells, and count its facts: only the segments' rids
    are decoded — no column buffer, no null bitmap —, no index takes in
    its image and no pk map is built."""
    workspace = tmp_path / "ws"
    system = StructureManagementSystem(workspace=str(workspace))
    system.users.register("ann", "secret")
    system.contribute("ann", "Madison", "population", 250_000)
    system.contribute("ann", "Boston", "mayor", "Wu")
    system.compact()
    system.close()
    record = _record(workspace / "final")
    facts = record["tables"]["facts"]
    rids = {entry["rids"] for entry in facts["segments"]}
    assert any("nulls" in column for entry in facts["segments"]
               for column in entry["columns"].values())
    assert sorted(entry["kind"] for entry in record["indexes"]
                  if entry["table"] == "facts") == ["hash", "hash"]
    decoded = []
    b64decode = segments.b64decode
    with mock.patch.object(segments, "b64decode", lambda text: (
            decoded.append(text), b64decode(text))[1]), \
            mock.patch.object(HashIndex, "_load_runs") as hash_runs, \
            mock.patch.object(SortedIndex, "_load_runs") as sorted_runs:
        reopened = StructureManagementSystem(workspace=str(workspace))
        assert reopened.fact_count() == 2
        heap = reopened.db._table("facts")
        assert "_pk_index" not in vars(heap)
    assert decoded and set(decoded) <= rids
    assert hash_runs.call_count == sorted_runs.call_count == 0
    reopened.close()


def test_a_checkpoint_passes_untouched_images_through(tmp_path):
    """Reopen, write one row to ``t``, close: nothing of ``u`` — column,
    index or pk map — is decoded or encoded again, its image is written
    as it was loaded, and the next reopen reads like a crash reopen of
    the same log."""
    db = _create(str(tmp_path / "db"))
    db.run(lambda t: t.insert_many("t", [
        _values(i, (i % 3, i / 4, "ab"[i % 2], None)) for i in range(6)]))
    db.run(lambda t: t.insert_many("u", [
        _values(100 + i, (None, -i / 8, "xyz"[i % 3], i % 2 == 0))
        for i in range(9)]))
    for table in TABLES:
        db.compact(table)
    db.close()
    loaded = _record(tmp_path / "db")
    kept = _texts(loaded["tables"]["u"])
    kept_indexes = [entry for entry in loaded["indexes"]
                    if entry["table"] == "u"]
    reopened = Database(str(tmp_path / "db"))
    from_base64, to_base64 = segments.from_base64, segments.to_base64
    read, written = [], []
    with mock.patch.object(segments, "from_base64", lambda text, code: (
            read.append(text), from_base64(text, code))[1]), \
            mock.patch.object(segments, "to_base64", lambda buffer: (
                written.append(to_base64(buffer)), written[-1])[1]), \
            mock.patch.object(HashIndex, "_load_runs", autospec=True,
                              side_effect=HashIndex._load_runs) as hashes, \
            mock.patch.object(SortedIndex, "_load_runs", autospec=True,
                              side_effect=SortedIndex._load_runs) as sorts:
        reopened.run(lambda t: t.insert("t", _values(6, (1, 2.5, "c", True))))
        shutil.copytree(tmp_path / "db", tmp_path / "crash")
        reopened.close()
    assert read and written                      # ("t" is written again)
    assert kept.isdisjoint(read) and kept.isdisjoint(written)
    assert {call.args[0].table for call in (*hashes.call_args_list,
                                            *sorts.call_args_list)} == {"t"}
    assert "_pk_index" not in vars(reopened._table("u"))
    closed = _record(tmp_path / "db")
    assert closed["tables"]["u"] == loaded["tables"]["u"]
    assert [entry for entry in closed["indexes"]
            if entry["table"] == "u"] == kept_indexes
    probes = [(-6, 6), (0, 1)]
    assert _state(Database(str(tmp_path / "db")), probes) == _state(
        Database(str(tmp_path / "crash")), probes)


def test_first_uses_at_once_take_in_each_image_once(tmp_path):
    """Right after a clean reopen, threads released together probe the
    hash index, probe the sorted index, look up keys and read the same
    columns while a writer inserts into the indexed table: each index
    takes in its image once, no insert is lost, and every read of what
    the writer leaves alone equals a crash reopen's."""
    directory = tmp_path / "db"
    db = _create(str(directory))
    db.run(lambda t: t.insert_many("t", [
        _values(i, (i % 5 or None, i / 8, "abc"[i % 3], i % 2 == 0))
        for i in range(400)]))
    db.compact("t", target_rows=160)
    db.run(lambda t: t.delete("t", 7))
    shutil.copytree(directory, tmp_path / "crash")
    db.close()

    def columns(db):
        return [{name: column_layout(segment.columns[name])
                 for name in ("n", "f")}
                for segment in db._table("t").segments]

    reads = {  # (none of them meets a row the writer inserts)
        "columns": columns,
        "hash": lambda db: [r.rid for r in db.run(
            lambda t: t.lookup("t", "s", "b"))],
        "sorted": lambda db: [r.rid for r in db.run(
            lambda t: t.range_lookup("t", "n", 1, 3))],
        "point": lambda db: [r.rid for r in db.run(
            lambda t: t.range_lookup("t", "n", 2, 2))],
        "pk": lambda db: [db.run(lambda t: t.get_by_pk("t", key)).rid
                          for key in (3, 9, 399)]}
    crash = Database(str(tmp_path / "crash"))
    expected = {name: read(crash) for name, read in reads.items()}
    keys = range(1000, 1010)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # (so the first uses interleave)
    try:
        for attempt in range(60):   # (each on a copy of the closed log)
            copy = tmp_path / f"attempt-{attempt}"
            shutil.copytree(directory, copy)
            reopened = Database(str(copy))
            start = threading.Barrier(len(reads) * 3 + 1, timeout=60)
            seen, errors = [], []

            def each(name, work):
                def run():
                    start.wait()
                    try:
                        seen.append((name, work()))
                    except BaseException as exc:  # (reported below)
                        errors.append(exc)
                return threading.Thread(target=run)

            def write():
                for key in keys:
                    reopened.run(lambda t, key=key: t.insert(
                        "t", _values(key, (key, 0.5, "w", None))))

            with mock.patch.object(
                    HashIndex, "_load_runs", autospec=True,
                    side_effect=HashIndex._load_runs) as hashes, \
                    mock.patch.object(
                        SortedIndex, "_load_runs", autospec=True,
                        side_effect=SortedIndex._load_runs) as sorts:
                threads = [each(name, lambda read=read: read(reopened))
                           for name, read in [*reads.items()] * 3]
                threads.append(each("write", write))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert sorted((call.args[0].table, call.args[0].column)
                          for call in (*hashes.call_args_list,
                                       *sorts.call_args_list)) == [
                ("t", "n"), ("t", "s")]
            got = {}
            for name, value in seen:
                got.setdefault(name, []).append(value)
            assert got == {"write": [None], **{
                name: [want] * 3 for name, want in expected.items()}}
            assert [reopened.run(lambda t, key=key: t.get_by_pk(
                "t", key))["id"] for key in keys] == list(keys)
            assert [row["id"] for row in reopened.run(
                lambda t: t.range_lookup("t", "n", 1000, 1009))] == \
                list(keys)
            assert len(reopened.run(lambda t: t.scan("t"))) == 399 + 10
            _assert_as_rebuilt(reopened)
    finally:
        sys.setswitchinterval(switch)
