"""Reopen reads the WAL once: each record, the checkpoint record included,
is parsed once; a torn suffix is still cut and counted; and ``records()``
on a live handle still yields the whole log."""

import json

from repro.storage.rdbms import wal
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.storage.rdbms.wal import WriteAheadLog
from repro.telemetry.metrics import MetricsRegistry, use_registry


def _schema():
    return TableSchema("t", (Column("id", ColumnType.INT, nullable=False),
                             Column("value", ColumnType.TEXT)),
                       primary_key="id")


def _rows(db):
    return [(r.rid, r.values) for r in db.run(lambda t: t.scan("t"))]


def _checkpointed_log(directory, monkeypatch):
    """A database whose log is a checkpoint record and five commits after
    it, over two segments of three records."""
    monkeypatch.setattr(wal, "SEGMENT_RECORDS", 3)
    db = Database(directory)
    db.create_table(_schema())
    for i in range(4):
        db.run(lambda t, i=i: t.insert("t", {"id": i, "value": f"v{i}"}))
    db.checkpoint()
    for i in range(4, 9):
        db.run(lambda t, i=i: t.insert("t", {"id": i, "value": f"v{i}"}))
    return db


def _lines(directory):
    return [line for path in sorted((directory / "wal").iterdir())
            for line in path.read_text().splitlines()]


def test_reopen_parses_each_record_once(tmp_path, monkeypatch):
    db = _checkpointed_log(str(tmp_path), monkeypatch)  # then a crash
    lines = _lines(tmp_path)
    assert len(list((tmp_path / "wal").iterdir())) == 2
    assert [json.loads(line)["type"] for line in lines] == [
        "checkpoint"] + ["commit"] * 5
    parsed = []
    loads = json.loads

    def counting(*args, **kwargs):
        parsed.append(args[0])
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    reopened = Database(str(tmp_path))
    monkeypatch.setattr(json, "loads", loads)
    assert len(parsed) == len(lines)
    assert _rows(reopened) == _rows(db)


def test_a_torn_suffix_is_still_cut_and_counted(tmp_path, monkeypatch):
    db = _checkpointed_log(str(tmp_path), monkeypatch)  # then a crash
    last = sorted((tmp_path / "wal").iterdir())[-1]
    size = last.stat().st_size
    with open(last, "a", encoding="utf-8") as f:
        f.write("GARBAGE NOT JSON\n")
        f.write('{"no_id": true}\n')
        f.write('{"id": 99, "txn": 9, "type": "comm')  # torn final write
    registry = MetricsRegistry()
    with use_registry(registry):
        reopened = Database(str(tmp_path))
    assert registry.get("recovery.truncated_records") == 3
    assert last.stat().st_size == size
    assert _rows(reopened) == _rows(db)
    reopened.run(lambda t: t.insert("t", {"id": 9, "value": "after"}))
    assert [json.loads(line)["id"] for line in _lines(tmp_path)] == list(
        range(5, 12))  # the LSNs go on past the cut


def test_records_on_a_live_handle_yield_the_whole_log(tmp_path, monkeypatch):
    db = _checkpointed_log(str(tmp_path), monkeypatch)
    fresh = [(r.lsn, r.rec_type, r.payload)
             for r in WriteAheadLog(str(tmp_path)).records()]
    assert [lsn for lsn, _, _ in fresh] == list(range(5, 11))
    live = [(r.lsn, r.rec_type, r.payload) for r in db._wal.records()]
    assert live == fresh
    assert [(r.lsn, r.rec_type, r.payload)
            for r in db._wal.records()] == fresh  # and again
    db.run(lambda t: t.insert("t", {"id": 9, "value": "after"}))
    assert [r.lsn for r in db._wal.records()][-1] == 11
    assert _rows(Database(str(tmp_path))) == _rows(db)
