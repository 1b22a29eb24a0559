"""A transaction is one WAL record: crash at every byte (of a log that
crosses segments and a checkpoint), record counts, writes that change
nothing, and DDL kept off open writers.
"""

import copy
import shutil
import threading

import pytest

from repro.storage.rdbms import wal
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry


def _schema(name, extra=False):
    columns = (Column("id", ColumnType.INT, nullable=False),
               Column("value", ColumnType.TEXT))
    if extra:
        columns += (Column("extra", ColumnType.INT),)
    return TableSchema(name, columns, primary_key="id")


def _state(db):
    """What the model tracks: each table's committed rows by primary key
    (a snapshot read: the script leaves writers open), and the indexes."""
    with db.begin_snapshot() as snap:
        tables = {name: {row.values["id"]: row.values
                         for row in snap.scan(name)}
                  for name in db.table_names()}
    return tables, sorted(db._indexes)


# ------------------------------------------------- crash at every byte


class _Model:
    """The plain-dict reference: table -> {id: row}, plus the indexes."""

    def __init__(self):
        self.tables = {}
        self.indexes = []

    def state(self):
        return copy.deepcopy(self.tables), sorted(self.indexes)


#: The step that starts a new log segment with a checkpoint record.
CHECKPOINT = "checkpoint under the open writers"


def _rid(db, table, key):
    return db.run(lambda t: t.get_by_pk(table, key)).rid


def _script(db, model):
    """``(what it is, records it must append, step)`` — each step is done
    to the database and to the model; none appends more than one record."""
    def create(name):
        def step():
            db.create_table(_schema(name))
            model.tables[name] = {}
        return step

    def insert(table, key, value):
        def step():
            db.run(lambda t: t.insert(table, {"id": key, "value": value}))
            model.tables[table][key] = {"id": key, "value": value}
        return step

    def update(table, key, value):
        def step():
            rid = _rid(db, table, key)
            db.run(lambda t: t.update(table, rid, {"value": value}))
            model.tables[table][key]["value"] = value
        return step

    def delete(table, key):
        def step():
            rid = _rid(db, table, key)
            db.run(lambda t: t.delete(table, rid))
            del model.tables[table][key]
        return step

    def insert_many():
        rows = [{"id": i, "value": f"b{i}"} for i in range(10, 18)]
        db.run(lambda t: t.insert_many("b", rows))
        model.tables["b"].update({row["id"]: dict(row) for row in rows})

    def write_many():
        rids = {key: _rid(db, "b", key) for key in (10, 11, 12)}
        db.run(lambda t: t.write_many("b", [
            ("insert", {"id": 20, "value": "new"}),
            ("update", rids[10], {"value": "ten"}),
            ("update", rids[11], {"value": "b11"}),          # changes nothing
            ("delete", rids[12])]))
        model.tables["b"][20] = {"id": 20, "value": "new"}
        model.tables["b"][10]["value"] = "ten"
        del model.tables["b"][12]

    def several_statements_two_tables():
        rid_a, rid_b = _rid(db, "a", 1), _rid(db, "b", 13)
        with db.begin() as txn:
            txn.insert("a", {"id": 3, "value": "three"})
            txn.update("b", rid_b, {"value": "thirteen"})
            txn.insert_many("b", [{"id": 21, "value": "x"},
                                  {"id": 22, "value": "y"}])
            txn.delete("a", rid_a)
            txn.write_many("a", [("insert", {"id": 4, "value": "four"})])
            txn.update("b", rid_b, {"value": "13"})          # written twice
        model.tables["a"][3] = {"id": 3, "value": "three"}
        model.tables["a"][4] = {"id": 4, "value": "four"}
        del model.tables["a"][1]
        model.tables["b"][13]["value"] = "13"
        model.tables["b"][21] = {"id": 21, "value": "x"}
        model.tables["b"][22] = {"id": 22, "value": "y"}

    def aborted():
        rid = _rid(db, "b", 14)
        txn = db.begin()
        txn.insert("a", {"id": 99, "value": "never"})
        txn.write_many("b", [("update", rid, {"value": "never"}),
                             ("delete", rid)])
        txn.abort()

    def read_only():
        assert len(db.run(lambda t: t.scan("b"))) == len(model.tables["b"])

    def nothing_changed():
        rid = _rid(db, "b", 14)
        assert db.run(lambda t: t.update(
            "b", rid, {"value": "b14"})).values == {"id": 14, "value": "b14"}
        assert db.run(lambda t: t.write_many(
            "b", [("update", rid, {"value": "b14"})])) == [None]
        assert db.run(lambda t: t.insert_many("b", [])) == []

    def create_index():
        db.create_index("b", "value")
        model.indexes.append(("b", "value"))

    def compact():
        assert db.compact("b", target_rows=4)["rows_frozen"] == len(
            model.tables["b"])

    open_writers = []

    def leave_two_writers_open():
        rids = {key: _rid(db, "b", key) for key in (13, 17, 20)}
        first, second = db.begin(), db.begin()
        first.insert("a", {"id": 6, "value": "six"})
        first.update("b", rids[17], {"value": "seventeen"})     # frozen
        first.delete("b", rids[13])                             # frozen
        first.delete("b", rids[20])
        second.insert("b", {"id": 30, "value": "never"})
        second.update("a", _rid(db, "a", 3), {"value": "never"})
        open_writers.extend([first, second])

    def commit_the_first():
        open_writers[0].commit()
        model.tables["a"][6] = {"id": 6, "value": "six"}
        model.tables["b"][17]["value"] = "seventeen"
        del model.tables["b"][13], model.tables["b"][20]

    def alter():
        db.alter_table("a", _schema("a", extra=True),
                       lambda values: {**values, "extra": values["id"] * 2})
        for row in model.tables["a"].values():
            row["extra"] = row["id"] * 2

    def insert_wide():
        db.run(lambda t: t.insert("a", {"id": 5, "value": "wide", "extra": 7}))
        model.tables["a"][5] = {"id": 5, "value": "wide", "extra": 7}

    def drop():
        db.drop_table("c")
        del model.tables["c"]

    return [
        ("create_table", 1, create("a")),
        ("create_table", 1, create("b")),
        ("single-row insert", 1, insert("a", 1, "one")),
        ("single-row update", 1, update("a", 1, "uno")),
        ("single-row insert", 1, insert("a", 2, "two")),
        ("single-row delete", 1, delete("a", 2)),
        ("insert_many", 1, insert_many),
        ("write_many", 1, write_many),
        ("several statements, two tables", 1, several_statements_two_tables),
        ("aborted", 0, aborted),
        ("read-only run", 0, read_only),
        ("nothing changed", 0, nothing_changed),
        ("create_index", 1, create_index),
        ("compact", 1, compact),
        ("update of a frozen row", 1, update("b", 15, "fifteen")),
        ("delete of a frozen row", 1, delete("b", 16)),
        ("compact with nothing to freeze but dead rows", 1,
         lambda: db.compact("b", target_rows=4)),
        ("compact with nothing to do", 0,
         lambda: db.compact("b", target_rows=4)),
        ("two writers left open", 0, leave_two_writers_open),
        (CHECKPOINT, 1, db.checkpoint),
        ("single-row insert", 1, insert("a", 7, "after the checkpoint")),
        ("the first open writer commits", 1, commit_the_first),
        ("the second aborts", 0, lambda: open_writers[1].abort()),
        ("alter_table", 1, alter),
        ("insert after the schema change", 1, insert_wide),
        ("create_table", 1, create("c")),
        ("single-row insert", 1, insert("c", 1, "gone with its table")),
        ("drop_table", 1, drop),
    ]


def _segments(directory):
    """The WAL's segment files: name -> bytes."""
    return {path.name: path.read_bytes()
            for path in (directory / "wal").iterdir()}


def test_wal_cut_at_every_byte_reopens_to_the_last_whole_record(
        tmp_path, monkeypatch):
    monkeypatch.setattr(wal, "SEGMENT_RECORDS", 4)  # the log crosses segments
    live = tmp_path / "live"
    db = Database(str(live))
    model = _Model()
    #: the log as one byte stream — every segment written, in order, the
    #: ones the checkpoint deleted included: [(its length once a step was
    #: done, the model's state then), ...]
    history = [(0, model.state())]
    covered = {}  # the segments the checkpoint deleted: name -> bytes
    whats = []
    for what, expected_records, step in _script(db, model):
        if what == CHECKPOINT:
            covered = _segments(live)
        registry = MetricsRegistry()
        with use_registry(registry):
            step()
        assert registry.get("rdbms.wal.records") == expected_records, what
        assert _state(db) == model.state(), what
        if what == CHECKPOINT:      # committed rows only, whoever is open
            assert not covered.keys() & _segments(live).keys()
        if expected_records:
            history.append((sum(map(len, covered.values()))
                            + db.wal_size_bytes(), model.state()))
            whats.append(what)
    # crash: no close, so no shutdown checkpoint
    segments = {**covered, **_segments(live)}
    layout, size = [], 0  # (name, stream offset it starts at, bytes)
    for name in sorted(segments):
        layout.append((name, size, segments[name]))
        size += len(segments[name])
    assert len(segments) > len(covered) > 1   # several on both sides
    records = [line for _, _, data in layout for line in data.splitlines()]
    assert len(records) == len(whats) == 22
    # every committed writing transaction is one "commit" line, DDL as before
    assert [b'"type": "commit"' in line for line in records] == [
        what not in ("create_table", "create_index", "compact",
                     "compact with nothing to freeze but dead rows",
                     CHECKPOINT, "alter_table", "drop_table")
        for what in whats]
    assert not any(b'"begin"' in line or b'"abort"' in line
                   for line in records)

    marker_end = history[whats.index(CHECKPOINT) + 1][0]
    crashed = tmp_path / "crashed"
    at = 0  # history[at]: the last state whose record is whole at ``cut``
    for cut in range(size + 1):
        # a record counts once its newline is there
        while at + 1 < len(history) and history[at + 1][0] <= cut:
            at += 1
        # what a crash can leave: the segment the next byte goes to
        # opened or not; the segments the checkpoint supersedes deleted
        # or not, once its record is whole
        files = {name: data[:cut - start]
                 for name, start, data in layout if start <= cut}
        layouts = [files]
        if not all(files.values()):
            layouts.append({n: data for n, data in files.items() if data})
        if cut >= marker_end:
            layouts.append({n: data for n, data in files.items()
                            if n not in covered})
        for wal_files in layouts:
            shutil.rmtree(crashed, ignore_errors=True)
            (crashed / "wal").mkdir(parents=True)
            for name, data in wal_files.items():
                (crashed / "wal" / name).write_bytes(data)
            reopened = Database(str(crashed))
            assert _state(reopened) == history[at][1], (cut, wal_files)
            reopened.close()
    assert at == len(history) - 1


def _tables(db):
    return {name: db.run(lambda t: [(r.rid, r.values) for r in t.scan(name)])
            for name in db.table_names()}


# ------------------------------------------- a write that changes nothing


@pytest.mark.parametrize("how", ["api", "sql"])
def test_a_single_row_update_that_changes_nothing_is_dropped(tmp_path, how):
    db = Database(str(tmp_path))
    db.create_table(_schema("t"))
    rid = db.run(lambda t: t.insert("t", {"id": 1, "value": "a"})).rid
    cache = QueryResultCache(db)
    select = "SELECT value FROM t WHERE id = 1"
    assert cache.execute(select) == [{"value": "a"}]
    version = db._table_versions["t"]
    seen = []
    db.add_delta_listener(seen.append)
    registry = MetricsRegistry()
    with use_registry(registry):
        if how == "api":
            row = db.run(lambda t: t.update("t", rid, {"value": "a"}))
            assert (row.rid, row.values) == (rid, {"id": 1, "value": "a"})
        else:
            assert cache.execute("UPDATE t SET value = 'a' WHERE id = 1") \
                == [{"updated": 1}]               # rows matched, as before
        assert cache.execute(select) == [{"value": "a"}]
    assert registry.get("rdbms.wal.records") == 0
    assert registry.get("planner.cache.hits") == 1
    assert registry.get("planner.cache.misses") == 0
    assert db._table_versions["t"] == version and seen == []
    # one that does change something still does all three
    with use_registry(registry):
        db.run(lambda t: t.update("t", rid, {"value": "b"}))
        assert cache.execute(select) == [{"value": "b"}]
    assert registry.get("rdbms.wal.records") == 1
    assert registry.get("planner.cache.misses") == 1
    assert db._table_versions["t"] > version
    assert [delta.tables["t"].updated for delta in seen] == [
        (({"id": 1, "value": "a"}, {"id": 1, "value": "b"}),)]


# ---------------------------------------------- DDL and an open writer


@pytest.mark.parametrize("ddl", ["alter_table", "drop_table"])
def test_ddl_waits_for_an_open_writer_of_the_table(tmp_path, ddl):
    db = Database(str(tmp_path))
    db.create_table(_schema("t"))
    db.run(lambda t: t.insert("t", {"id": 1, "value": "committed"}))
    writer = db.begin()
    writer.insert("t", {"id": 2, "value": "uncommitted"})
    done = threading.Event()

    def change():
        if ddl == "alter_table":
            db.alter_table("t", _schema("t", extra=True),
                           lambda values: {**values, "extra": 0})
        else:
            db.drop_table("t")
        done.set()

    thread = threading.Thread(target=change)
    thread.start()
    assert not done.wait(0.3)          # the writer holds it off ...
    writer.abort()
    thread.join(10)
    assert done.is_set() and not thread.is_alive()      # ... and no longer
    expected = {"t": [(0, {"id": 1, "value": "committed", "extra": 0})]} \
        if ddl == "alter_table" else {}
    assert _tables(db) == expected
    # the record holds committed rows only: the aborted one stays gone
    assert _tables(Database(str(tmp_path))) == expected


# ---------------------------------------- a checkpoint and an open writer


@pytest.mark.parametrize("ending", ["commit", "abort"])
def test_a_checkpoint_holds_committed_rows_only(tmp_path, ending):
    db = Database(str(tmp_path))
    db.create_table(_schema("t"))
    db.run(lambda t: t.insert_many(
        "t", [{"id": i, "value": f"v{i}"} for i in range(6)]))
    db.compact("t", target_rows=2)
    db.run(lambda t: t.insert("t", {"id": 6, "value": "tail"}))
    committed = _tables(db)
    writer = db.begin()
    writer.insert("t", {"id": 7, "value": "uncommitted"})
    writer.update("t", 1, {"value": "uncommitted"})             # frozen
    writer.delete("t", 2)                                       # frozen
    writer.update("t", 6, {"value": "uncommitted"})
    db.checkpoint()                             # takes no lock: no waiting
    # a crash now: the writer never committed
    assert _tables(Database(str(tmp_path))) == committed
    getattr(writer, ending)()
    live = _tables(db)
    assert (live == committed) == (ending == "abort")
    # its commit record replays on top of the checkpoint, not of itself
    reopened = Database(str(tmp_path))
    assert _tables(reopened) == live
    assert reopened._table("t").segment_count() == 3


# ------------------------------- a primary-key value freed by an open writer


@pytest.mark.parametrize("ending", ["commit", "abort"])
@pytest.mark.parametrize("freed_by", ["delete", "update"])
def test_a_key_an_open_transaction_freed_is_not_taken_before_it_ends(
        tmp_path, freed_by, ending):
    db = Database(str(tmp_path))
    db.create_table(_schema("t"))
    db.run(lambda t: t.insert("t", {"id": 5, "value": "old"}))
    first = db.begin()
    if freed_by == "delete":
        first.delete("t", 0)
    else:
        first.update("t", 0, {"id": 50})
    first.insert("t", {"id": 6, "value": "its own"})   # does not wait on itself
    outcome = []

    def take():
        try:
            db.run(lambda t: t.insert("t", {"id": 5, "value": "new"}))
            outcome.append("inserted")
        except Exception as exc:
            outcome.append(str(exc))

    thread = threading.Thread(target=take)
    thread.start()
    thread.join(0.3)
    assert thread.is_alive() and not outcome    # 5 is still in use, committed
    getattr(first, ending)()
    thread.join(10)
    assert not thread.is_alive()
    if ending == "abort":       # the row is back, and so the key is taken
        assert outcome == ["duplicate primary key 5"]
        expected = {"t": [(0, {"id": 5, "value": "old"})]}
    else:
        assert outcome == ["inserted"]
        expected = {"t": [(1, {"id": 6, "value": "its own"}),
                          (2, {"id": 5, "value": "new"})]}
        if freed_by == "update":
            expected["t"].insert(0, (0, {"id": 50, "value": "old"}))
    assert _tables(db) == expected
    # commit order is a history the log can redo: the insert after the free
    assert _tables(Database(str(tmp_path))) == expected
