"""A snapshot reads the live indexes and pk map, corrected by the rows
written since it (DESIGN.md §15): after every step of a random script a
fresh snapshot must answer exactly as the from-scratch oracle — each
table's committed view, its rows filtered in plain Python — and the
snapshot pinned before the step exactly as it did."""

import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.types import (Column, ColumnType, SchemaError,
                                       TableSchema)
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.telemetry.report import render_report, render_top, summarize_trace

IDS = range(12)              # what a step may insert or move a row to
OPEN_IDS = range(100, 106)   # what the writer left open inserts
GRPS = ["a", "b", "c", None]
QTYS = [None, -2, -1, 0, 1, 2]
BOUNDS = [(low, high, include_low, include_high)
          for low in (None, -1, 0) for high in (None, 0, 2)
          for include_low in (True, False) for include_high in (True, False)]


def _schema(extra=False):
    columns = (Column("id", ColumnType.INT, nullable=False),
               Column("grp", ColumnType.TEXT),      # hash index
               Column("qty", ColumnType.INT),       # sorted index
               Column("note", ColumnType.TEXT))     # no index
    if extra:
        columns += (Column("extra", ColumnType.INT),)
    return TableSchema("t", columns, primary_key="id")


def answers(txn):
    """Everything a reader can ask the indexes and the pk map of ``t``."""
    def rows(found):
        return [(row.rid, row.values) for row in found]

    # (not asked for NULL: a scan finds NULL = NULL and an index holds no
    # NULLs, so that answer changes when create_index runs - as before)
    out = [rows(txn.lookup("t", "grp", grp)) for grp in GRPS if grp]
    out += [rows(txn.lookup("t", "qty", qty)) for qty in QTYS
            if qty is not None]
    out += [rows(txn.range_lookup("t", "qty", *bounds)) for bounds in BOUNDS]
    for key in [*IDS, *OPEN_IDS]:
        row = txn.get_by_pk("t", key)
        out.append(row and (row.rid, row.values))
    out.append(rows(txn.scan("t")))
    return out


class FromScratch:
    """What a snapshot of ``db`` taken now must answer: each table's
    committed view (the view builder only), its rows filtered in plain
    Python — no index and no D."""

    def __init__(self, db):
        with db._mutate_lock:
            undo = db._uncommitted()
            self._views = {name: heap.committed_view(undo.get(name, ()))
                           for name, heap in db._tables.items()}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def scan(self, table):
        return list(self._views[table].scan())

    def lookup(self, table, column, value):
        return [row for row in self.scan(table)
                if row.values[column] is not None
                and row.values[column] == value]

    def range_lookup(self, table, column, low=None, high=None,
                     include_low=True, include_high=True):
        def within(value):
            return value is not None \
                and (low is None or (value >= low if include_low
                                     else value > low)) \
                and (high is None or (value <= high if include_high
                                      else value < high))

        return [row for row in self.scan(table) if within(row.values[column])]

    def get_by_pk(self, table, key):
        pk = self._views[table].schema.primary_key
        found = [row for row in self.scan(table) if row.values[pk] == key]
        return found[0] if found else None


row_st = st.tuples(st.sampled_from(GRPS), st.sampled_from(QTYS),
                   st.sampled_from(["x", "y", None]))
pick_st = st.integers(0, 1000)
step_st = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(IDS), row_st),
    st.tuples(st.just("update"), pick_st, row_st,
              st.sampled_from(["grp", "qty", "note", "id", "all"]),
              st.sampled_from(IDS)),
    st.tuples(st.just("delete"), pick_st),
    st.tuples(st.just("reinsert"), pick_st, row_st),
    st.tuples(st.just("abort"), pick_st, row_st),
    st.tuples(st.just("landing"), row_st),
    st.tuples(st.just("open"), pick_st, row_st),
    st.tuples(st.just("close"), st.booleans()),
    st.tuples(st.just("compact"), st.integers(2, 5)),
    st.tuples(st.just("alter")),
    st.tuples(st.just("create_index"), st.sampled_from(["grp", "qty"])),
)


class Script:
    """Applies steps to one database; what it cannot do now it skips."""

    def __init__(self, indexed):
        self.db = Database()
        self.db.create_table(_schema())
        self.writer = None        # the transaction left open, if any
        self.busy = set()         # rids it wrote: everyone else keeps off
        self.free_ids = list(OPEN_IDS)
        for column in ("grp", "qty") if indexed else ():
            self.create_index(column)

    def create_index(self, column):
        if self.db._find_index("t", column) is None:
            self.db.create_index(
                "t", column, "sorted" if column == "qty" else "hash")

    def _rid(self, pick):
        """A committed row nobody holds a lock on, or None."""
        with FromScratch(self.db) as snap:
            rids = [row.rid for row in snap.scan("t")
                    if row.rid not in self.busy]
        return rids[pick % len(rids)] if rids else None

    def _values(self, key, row):
        values = dict(zip(("grp", "qty", "note"), row), id=key)
        if self.db.schema("t").has_column("extra"):
            values["extra"] = key
        return values

    def apply(self, step):
        kind, db = step[0], self.db
        if kind == "insert":
            self._run(lambda t: t.insert("t", self._values(step[1], step[2])))
        elif kind == "update":
            rid = self._rid(step[1])
            changes = self._values(step[4], step[2])
            if step[3] != "all":
                changes = {step[3]: changes[step[3]]}
            else:
                del changes["id"]
            if rid is not None:
                self._run(lambda t: t.update("t", rid, changes))
        elif kind == "delete":
            rid = self._rid(step[1])
            if rid is not None:
                self._run(lambda t: t.delete("t", rid))
        elif kind == "reinsert":     # one pk leaves and returns in one txn
            rid = self._rid(step[1])
            if rid is not None:
                def work(t):
                    key = t.delete("t", rid).values["id"]
                    t.insert("t", self._values(key, step[2]))
                self._run(work)
        elif kind == "abort":
            rid = self._rid(step[1])
            txn = db.begin()
            if rid is not None:
                txn.update("t", rid, {"grp": step[2][0], "qty": step[2][1]})
                txn.delete("t", rid)
            txn.abort()
        elif kind == "landing":      # more rows than the table holds
            taken = {row.values["id"] for row in FromScratch(db).scan("t")}
            keys = [1000 + n for n in range(len(taken) + 3)]
            self._run(lambda t: t.insert_many(
                "t", [self._values(key, step[1]) for key in keys]))
            self._run(lambda t: [t.delete("t", t.get_by_pk("t", key).rid)
                                 for key in keys])
        elif kind == "open" and self.writer is None and self.free_ids:
            self.writer = db.begin()
            rid = self._rid(step[1])
            if rid is not None:      # a committed row changed, not yet so
                self.writer.update("t", rid, {"grp": step[2][0],
                                              "qty": step[2][1]})
                self.busy.add(rid)
            row = self.writer.insert(
                "t", self._values(self.free_ids.pop(), step[2]))
            self.busy.add(row.rid)
        elif kind == "close" and self.writer is not None:
            self.writer.commit() if step[1] else self.writer.abort()
            self.writer, self.busy = None, set()
        elif self.writer is not None:
            return                   # the rest wait for every open writer
        elif kind == "compact":
            db.compact("t", target_rows=step[1])
        elif kind == "alter":
            extra = not db.schema("t").has_column("extra")
            db.alter_table("t", _schema(extra), lambda values: {
                **{k: v for k, v in values.items() if k != "extra"},
                **({"extra": values["id"]} if extra else {})})
        elif kind == "create_index":
            self.create_index(step[1])

    def _run(self, work):
        try:
            self.db.run(work)
        except SchemaError:
            pass                     # a taken primary key: an abort


@given(indexed=st.booleans(),
       steps=st.lists(step_st, min_size=1, max_size=30))
@settings(max_examples=120, deadline=None)
def test_carried_indexes_equal_rebuilt_ones_and_pinned_snapshots_stand(
        indexed, steps):
    script = Script(indexed)
    pinned = script.db.begin_snapshot()
    stood = answers(pinned)
    for step in steps:
        script.apply(step)
        fresh = script.db.begin_snapshot()
        got = answers(fresh)
        assert got == answers(FromScratch(script.db)), step
        assert answers(pinned) == stood, step
        pinned, stood = fresh, got
    if script.writer is not None:
        script.writer.abort()


def _table_snapshot(snap):
    return snap._snapshots["t"]


def test_a_pinned_snapshot_reads_the_live_indexes_corrected_by_d():
    """Updates, deletes and aborts on indexed columns and on the primary
    key, a writer left open: the pinned snapshot answers as it did, from
    the live indexes (it never loads one of its own)."""
    script = Script(indexed=True)
    for key in range(8):
        script.apply(("insert", key, ("abc"[key % 3], key % 3, "x")))
    script.db.compact("t", target_rows=3)     # D holds frozen rows too
    pinned = script.db.begin_snapshot()
    stood = answers(pinned)
    for step in [("update", 0, ("c", 2, "y"), "all", 0),    # grp and qty
                 ("update", 1, ("a", 0, "x"), "id", 11),    # the pk moves
                 ("delete", 2),
                 ("reinsert", 3, ("b", -1, None)),          # pk out and in
                 ("abort", 4, ("a", -2, None)),             # moved, restored
                 ("insert", 9, ("c", 1, "z")),
                 ("open", 5, ("b", -2, "z"))]:              # left open
        script.apply(step)
        assert answers(pinned) == stood, step
        assert answers(script.db.begin_snapshot()) \
            == answers(FromScratch(script.db)), step
    script.apply(("close", True))
    assert answers(pinned) == stood
    assert _table_snapshot(pinned)._indexes == {}


def test_a_reader_probing_while_a_writer_moves_a_rid_and_aborts():
    """A writer moves rows between index buckets and pk values, then
    aborts, again and again; readers probe throughout with a short switch
    interval.  The probe and D are one mutate-lock hold: a reader must
    never see an entry moved without the change-log entry that says so,
    or an entry restored and the transaction still registered."""
    script = Script(indexed=True)
    script.db.run(lambda t: t.insert_many(
        "t", [script._values(key, ("abc"[key % 3], key % 3, "x"))
              for key in range(30)]))
    script.db.compact("t", target_rows=8)
    pinned = script.db.begin_snapshot()
    stood = answers(pinned)
    stop, errors = threading.Event(), []

    def reader():
        while not stop.is_set():
            try:
                assert answers(pinned) == stood
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                stop.set()

    def writer():
        n = 0
        try:
            while not stop.is_set():
                n += 1
                txn = script.db.begin()
                rid = txn.get_by_pk("t", n % 30).rid
                txn.update("t", rid, {"grp": "abc"[(n + 1) % 3],
                                      "qty": n % 5 - 2})
                txn.update("t", rid, {"id": 100 + n % 6})
                if n % 2:
                    txn.delete("t", rid)
                txn.abort()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(2)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert _table_snapshot(pinned)._indexes == {}


def test_a_snapshot_pinned_past_the_history_bound_or_across_ddl_detaches():
    script = Script(indexed=False)
    for key in range(6):
        script.apply(("insert", key, ("a", key % 3, "x")))
    script.create_index("grp")
    registry = MetricsRegistry()

    def corrected(snap):
        """Whether the database keeps a D for ``snap``'s version."""
        return script.db.written_since("t", snap.version) is not None

    with use_registry(registry):
        pinned = script.db.begin_snapshot()
        stood, snap = answers(pinned), _table_snapshot(pinned)
        script.apply(("update", 0, ("b", 2, "y"), "all", 0))
        script.create_index("qty")    # loaded from the live heap: D corrects
        assert answers(pinned) == stood
        assert corrected(snap)
        # every commit since create_table: six inserts and the update
        assert registry.gauge("rdbms.mvcc.history_rows") == 7
        # more rows written than the bound (64 and a 32nd of the table):
        # the history goes, and the snapshot older than it loads indexes
        # of its own
        script.db.run(lambda t: t.insert_many("t", [
            script._values(1000 + n, ("c", 1, None)) for n in range(70)]))
        assert not corrected(snap)
        assert registry.gauge("rdbms.mvcc.history_rows") == 0
        assert answers(pinned) == stood
        # grp (hash), qty (sorted: equality and range), the pk
        assert registry.get("rdbms.mvcc.index_builds") == 3

        # one-row commits: the history never holds more than the bound;
        # the pinned snapshot loses its D when its first commit falls off
        # the front
        pinned = script.db.begin_snapshot()
        stood, snap = answers(pinned), _table_snapshot(pinned)
        bound = script.db._history_bound("t")
        for n in range(bound + 5):
            script.apply(("update", n, (f"g{n}", 0, None), "grp", 0))
            if n == 10:
                later = script.db.begin_snapshot()
                later_stood = answers(later)
            assert registry.gauge("rdbms.mvcc.history_rows") <= bound
            assert corrected(snap) == (n < bound)
            assert answers(pinned) == stood
        assert answers(later) == later_stood
        assert corrected(_table_snapshot(later))
        # the latest commits, one row each, up to the bound
        assert registry.gauge("rdbms.mvcc.history_rows") == bound
        del later

        # an open writer past the bound: a probe beside it reads indexes
        # of the snapshot's own
        pinned = script.db.begin_snapshot()
        stood, snap = answers(pinned), _table_snapshot(pinned)
        writer = script.db.begin()
        writer.insert_many("t", [script._values(2000 + n, ("a", 0, None))
                                 for n in range(bound + 10)])
        assert snap._indexes == {}
        assert answers(pinned) == stood
        assert len(snap._indexes) == 3
        writer.abort()
        # the view serves every new reader until the next commit
        assert _table_snapshot(script.db.begin_snapshot()) is snap
        script.apply(("update", 1, ("z", 0, None), "grp", 0))

        pinned = script.db.begin_snapshot()
        stood, snap = answers(pinned), _table_snapshot(pinned)
        script.apply(("update", 0, ("c", 1, None), "all", 0))
        assert corrected(snap) and answers(pinned) == stood
        script.apply(("alter",))      # every value rewritten
        assert not corrected(snap)
        assert registry.gauge("rdbms.mvcc.history_rows") == 0
        assert answers(pinned) == stood
        assert answers(script.db.begin_snapshot()) \
            == answers(FromScratch(script.db))
        del pinned, snap
        script.apply(("update", 0, ("a", 0, None), "grp", 0))
        # kept whether anyone reads or not
        assert registry.gauge("rdbms.mvcc.history_rows") == 1


def test_readers_beside_a_committing_compacting_writer_stay_consistent():
    """Time-bounded stress, more threads than cores, short switch interval:
    whatever a reader's snapshot was carried from, its indexes, its pk map
    and its scan must describe one state, and the planner's unlocked
    questions to the live table (``table_size``) must not trip over the
    writer."""
    script = Script(indexed=True)
    script.db.run(lambda t: t.insert_many(
        "t", [script._values(key, ("abc"[key % 3], key % 3, "x"))
              for key in range(60)]))
    script.db.compact("t", target_rows=16)
    stop, errors = threading.Event(), []

    def reader():
        while not stop.is_set():
            try:
                script.db.table_size("t")
                with script.db.begin_snapshot() as snap:
                    rows = snap.scan("t")
                    for grp in "abc":
                        assert [r.rid for r in snap.lookup("t", "grp", grp)] \
                            == [r.rid for r in rows if r.values["grp"] == grp]
                    assert sorted(r.rid for r in snap.range_lookup(
                        "t", "qty", 1, None)) == [
                        r.rid for r in rows if (r.values["qty"] or 0) >= 1]
                    for row in rows[::7]:
                        assert snap.get_by_pk("t", row.values["id"]) == row
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                stop.set()

    def writer():
        n = 0
        try:
            while not stop.is_set():
                n += 1
                script.apply(("update", n * 7, ("abc"[n % 3], n % 4 - 1, "y"),
                              ("grp", "qty", "all")[n % 3], 0))
                if n % 3 == 0:
                    script.apply(("reinsert", n, ("b", 2, None)))
                if n % 5 == 0:
                    script.apply(("compact", 16))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.5)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]


# ------------------------------------------- layout is not data: the caches


def _facts(system, entities=20):
    rows = [{"fact_id": e * 10 + a, "entity": f"entity_{e:03d}",
             "attribute": f"attr_{a}", "value_text": None,
             "value_num": float(e * 10 + a), "confidence": 0.5,
             "doc_id": f"doc_{e}"}
            for e in range(entities) for a in range(10)]
    system.db.run(lambda t: t.insert_many(FACTS_TABLE, rows))
    return len(rows)


def test_compact_leaves_the_result_cache_valid():
    registry = MetricsRegistry()
    with use_registry(registry):
        system = StructureManagementSystem()
        _facts(system)
        select = ("SELECT fact_id, value_num FROM facts "
                  "WHERE entity = 'entity_003'")
        first = system.query(select)
        assert system.query(select) == first
        assert (registry.get("planner.cache.misses"),
                registry.get("planner.cache.hits")) == (1, 1)
        version = system.db.begin_snapshot().version_of(FACTS_TABLE)
        assert system.compact()["rows_frozen"] == 200
        assert system.query(select) == first
        assert (registry.get("planner.cache.misses"),
                registry.get("planner.cache.hits")) == (1, 2)
        assert system.db.begin_snapshot().version_of(FACTS_TABLE) == version
        # and a reader still sees the new layout, not a stale view
        with system.db.begin_snapshot() as snap:
            assert {kind for kind, _, _ in snap.scan_units(FACTS_TABLE)} \
                == {"segment"}
        system.query("UPDATE facts SET value_num = 0.5 WHERE fact_id = 30")
        assert system.query(select) != first
        assert registry.get("planner.cache.misses") == 2
        system.close()


def test_serve_mixed_write_script_loads_no_snapshot_index():
    """The e2e ``serve_mixed`` script at smoke size: an insert, an update
    and a delete about one entity in turn, the probe read behind each, a
    compaction every fifth commit, the four query classes in between —
    beside a snapshot pinned before it all, which answers as it did."""
    reads = [
        "SELECT fact_id, attribute, value_num FROM facts "
        "WHERE entity = 'entity_000'",
        "SELECT entity, attribute, value_num FROM facts WHERE fact_id = 77",
        "SELECT entity, value_num FROM facts WHERE attribute = 'attr_3' "
        "AND value_num > 100 ORDER BY value_num DESC LIMIT 10",
        "SELECT attribute, COUNT(*) AS n, AVG(value_num) AS a FROM facts "
        "WHERE confidence > 0.4 GROUP BY attribute",
    ]
    registry = MetricsRegistry()
    with use_registry(registry):
        system = StructureManagementSystem()
        next_id = _facts(system, entities=100)
        system.compact()
        pinned = system.db.begin_snapshot()

        def pinned_reads():
            return ([r.values for r in pinned.lookup(
                        FACTS_TABLE, "entity", "entity_000")],
                    [r.values for r in pinned.lookup(
                        FACTS_TABLE, "attribute", "attr_3")],
                    [pinned.get_by_pk(FACTS_TABLE, key).values
                     for key in range(10)])

        stood = pinned_reads()
        for sql in reads:
            system.query(sql)                       # warm-up
        mine = list(range(10))                      # entity_000's fact ids
        for commit in range(30):
            kind = ("insert", "update", "delete")[commit % 3]
            if kind == "insert" or len(mine) < 4:
                mine.append(next_id)
                system.query(
                    "INSERT INTO facts (fact_id, entity, attribute, value_num,"
                    f" confidence, doc_id) VALUES ({next_id}, 'entity_000', "
                    f"'attr_3', {commit}.5, 0.5, 'writer')")
                next_id += 1
            elif kind == "update":
                system.query(f"UPDATE facts SET value_num = {commit}.25 "
                             f"WHERE fact_id = {mine[len(mine) // 2]}")
            else:
                system.query(
                    f"DELETE FROM facts WHERE fact_id = {mine.pop(0)}")
            probe = system.query(reads[0])
            assert sorted(row["fact_id"] for row in probe) == sorted(mine)
            if commit % 5 == 4:
                system.compact()
            for sql in reads:
                system.query(sql)
        assert pinned_reads() == stood
        assert registry.get("rdbms.mvcc.index_builds") == 0
        assert registry.gauge("rdbms.mvcc.history_rows") == 30
        assert registry.get("rdbms.mvcc.snapshot_builds") >= 36
        system.close()


def test_stats_and_top_show_a_pinned_snapshot_holding_history():
    script = Script(indexed=True)
    for key in range(6):
        script.apply(("insert", key, ("a", key % 3, "x")))
    registry = MetricsRegistry()
    with use_registry(registry):
        pinned = script.db.begin_snapshot()
        answers(pinned)
        for key in range(3):
            script.apply(("update", key, ("b", 1, None), "grp", 0))
        frame = registry.snapshot()
        # six inserts and three updates, the pinned snapshot or not
        assert "index_builds=0 history_rows=9" in render_report(
            summarize_trace([]), frame)
        assert "indexes loaded 0, history held 9 rows" in render_top(
            None, frame)
        del pinned
        script.apply(("update", 0, ("c", 1, None), "grp", 0))
        assert "history held 10 rows" in render_top(None, registry.snapshot())
