"""Tests for table statistics (repro.storage.rdbms.stats)."""

import random
import threading

import pytest

from repro.storage.rdbms import stats as stats_module
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.segments import Segment, take
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.stats import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    HISTOGRAM_BUCKETS,
    TableStats,
    _build_column_stats,
)
from repro.telemetry import metrics


@pytest.fixture
def db():
    database = Database()
    execute_sql(
        database,
        "CREATE TABLE item (item_id INT PRIMARY KEY, cat TEXT, score INT)",
    )
    rows = ", ".join(
        f"({i}, 'cat{i % 4}', {i * 10})" for i in range(100)
    )
    execute_sql(
        database,
        f"INSERT INTO item (item_id, cat, score) VALUES {rows}",
    )
    return database


def test_analyze_row_count_and_distinct(db):
    stats = db.statistics().analyze("item")
    assert stats.row_count == 100
    assert stats.columns["cat"].distinct == 4
    assert stats.columns["item_id"].distinct == 100
    assert stats.columns["score"].min_value == 0
    assert stats.columns["score"].max_value == 990


def test_eq_selectivity_uses_distinct(db):
    manager = db.statistics()
    assert manager.eq_selectivity("item", "cat") == pytest.approx(0.25)
    assert manager.eq_selectivity("item", "item_id") == pytest.approx(0.01)


def test_range_selectivity_from_histogram(db):
    manager = db.statistics()
    # score is uniform over 0..990; the bottom tenth should estimate ~0.1
    frac = manager.range_selectivity("item", "score", None, 100, True, False)
    assert 0.03 < frac < 0.25
    full = manager.range_selectivity("item", "score", 0, 990, True, True)
    assert full > 0.9


def test_unknown_column_falls_back_to_defaults(db):
    manager = db.statistics()
    assert manager.eq_selectivity("item", "nope") == DEFAULT_EQ_SELECTIVITY
    assert manager.range_selectivity(
        "item", "nope", 0, 1, True, True) == DEFAULT_RANGE_SELECTIVITY


def test_version_bumps_on_commit_and_ddl(db):
    manager = db.statistics()
    before = manager.version("item")
    execute_sql(db, "INSERT INTO item (item_id, cat, score) "
                    "VALUES (1000, 'cat0', 1)")
    assert manager.version("item") > before
    execute_sql(db, "CREATE TABLE other (x INT PRIMARY KEY)")
    created = manager.version("other")
    assert created > manager.version("item")  # DDL bumps too
    db.drop_table("other")
    execute_sql(db, "CREATE TABLE other (x INT PRIMARY KEY)")
    assert manager.version("other") > created  # never a version reused


def test_incremental_refresh_under_small_drift(db):
    manager = db.statistics()
    manager.analyze("item")
    registry = metrics.get_registry()
    full_before = registry.get("planner.analyze.full")
    execute_sql(db, "INSERT INTO item (item_id, cat, score) "
                    "VALUES (2000, 'cat1', 5)")
    stats = manager.stats("item")  # 1% drift: row count folded in, no scan
    assert stats.row_count == 101
    assert registry.get("planner.analyze.full") == full_before
    assert registry.get("planner.analyze.incremental") >= 1


def test_full_reanalyze_on_large_drift(db):
    manager = db.statistics()
    manager.analyze("item")
    registry = metrics.get_registry()
    full_before = registry.get("planner.analyze.full")
    rows = ", ".join(f"({i}, 'catX', 7)" for i in range(5000, 5040))
    execute_sql(db, f"INSERT INTO item (item_id, cat, score) VALUES {rows}")
    stats = manager.stats("item")  # 40% drift: full analyze
    assert registry.get("planner.analyze.full") == full_before + 1
    assert stats.columns["cat"].distinct == 5  # picked up catX


def test_stats_cached_while_version_unchanged(db):
    manager = db.statistics()
    first = manager.stats("item")
    assert manager.stats("item") is first


def test_column_stats_nulls_and_histogram_shape():
    stats = _build_column_stats([None, 1, 2, 3, 4, None])
    assert stats.total == 6
    assert stats.null_count == 2
    assert stats.distinct == 4
    assert stats.non_null_fraction == pytest.approx(4 / 6)
    assert len(stats.histogram) == HISTOGRAM_BUCKETS + 1
    assert stats.histogram[0] == 1 and stats.histogram[-1] == 4


def test_column_stats_mixed_types_keep_distinct_only():
    stats = _build_column_stats(["a", 1, "b"])
    assert stats.distinct == 3
    assert stats.histogram == ()
    assert stats.range_selectivity(0, 10, True, True) \
        == DEFAULT_RANGE_SELECTIVITY


def test_empty_table_stats():
    db = Database()
    execute_sql(db, "CREATE TABLE empty (x INT PRIMARY KEY)")
    stats = db.statistics().stats("empty")
    assert stats.row_count == 0
    assert db.statistics().eq_selectivity("empty", "x") \
        == DEFAULT_EQ_SELECTIVITY


# ------------------------------------------- passes over committed snapshots


def _layered_db():
    """``t`` frozen in several segments, written to since (dead positions,
    new versions in the tail between stretches) and grown by tail rows."""
    database = Database()
    execute_sql(database, "CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, "
                          "qty INT, score FLOAT)")
    database.run(lambda txn: txn.insert_many("t", [
        {"id": i, "grp": None if i % 7 == 0 else f"g{i % 5}",
         "qty": None if i % 4 == 0 else i % 9, "score": i * 0.5}
        for i in range(300)]))
    database.compact("t", target_rows=64)
    execute_sql(database, "UPDATE t SET qty = 40, grp = 'hot' "
                          "WHERE id >= 100 AND id < 130")
    execute_sql(database, "DELETE FROM t WHERE id >= 200 AND id < 215")
    execute_sql(database, "UPDATE t SET score = 999.5 WHERE id = 3")
    database.run(lambda txn: txn.insert_many("t", [
        {"id": i, "grp": "tail", "qty": None, "score": -1.0}
        for i in range(300, 340)]))
    return database


def _reference(database, table, names=None, sample=None):
    """The statistics a pass must produce, restated over the rows
    ``txn.scan()`` returns: every row in rid order; or ``sample``
    positions of the segments' live rows (in table order) followed by the
    tail rows (in rid order), with exact null counts and bounds folded
    from the segments' zone maps and the tail's values."""
    with database.begin() as txn:
        rows = {row.rid: row.values for row in txn.scan(table)}
    heap = database._table(table)
    names = names or heap.schema.column_names
    if sample is None:
        return {name: _build_column_stats([v[name] for v in rows.values()])
                for name in names}
    segments = [s for s in heap.segments if s.count]
    frozen = [rid for s in segments
              for rid in take(s.rids, heap.live_positions(s))]
    tail = sorted(set(rows) - set(frozen))
    order = frozen + tail
    count = len(order)
    positions = sorted(random.Random(f"analyze:{table}:{count}").sample(
        range(count), min(sample, count)))
    picked = [rows[order[p]] for p in positions]
    columns = {}
    for name in names:
        values = [v[name] for v in picked]
        stats = _build_column_stats(values)
        nulls = sum(1 for v in rows.values() if v[name] is None)
        bounds = [v for s in segments for v in (s.columns[name].min_value,
                                                s.columns[name].max_value)]
        bounds = [v for v in bounds + [rows[rid][name] for rid in tail]
                  if v is not None]
        stats.total, stats.null_count = count, nulls
        stats.min_value, stats.max_value = min(bounds), max(bounds)
        seen = len(values) - values.count(None)
        if stats.distinct >= seen / 10:
            stats.distinct = min(count - nulls, max(stats.distinct, round(
                stats.distinct * (count - nulls) / seen)))
        columns[name] = stats
    return columns


def _hot_misestimate(manager, table, column):
    """Mark ``column`` pending: the next ``stats()`` re-analyzes it."""
    assert manager.feedback.record(table, column, "eq", 1.0, 1000,
                                   manager.version(table))


def test_passes_equal_a_reference_built_from_scanned_rows(monkeypatch):
    database = _layered_db()
    manager = database.statistics()
    count = database.table_size("t")
    version = manager.version("t")
    assert database._table("t").dead_rows and database._table("t").tail_size

    def expect(columns, rows=count):
        return TableStats(table="t", row_count=rows, analyzed_rows=rows,
                          version=manager.version("t"), columns=columns)

    assert manager.analyze("t") == expect(_reference(database, "t"))
    monkeypatch.setattr(stats_module, "SAMPLE_THRESHOLD", 50)
    monkeypatch.setattr(stats_module, "SAMPLE_SIZE", 64)
    sampled = manager.analyze("t")
    assert sampled == expect(_reference(database, "t", sample=64))
    assert sampled.version == version
    # targeted: the pending column is rebuilt at the new state (one row
    # more: incremental drift), the others keep the sampled pass's
    execute_sql(database, "INSERT INTO t (id, grp, qty, score) "
                          "VALUES (1000, 'hot', 40, 2.0)")
    _hot_misestimate(manager, "t", "grp")
    columns = dict(sampled.columns)
    columns.update(_reference(database, "t", names=["grp"]))
    assert manager.stats("t") == expect(columns, count + 1)


@pytest.mark.parametrize("sampled", [False, True])
def test_statistics_count_committed_rows_only(monkeypatch, sampled):
    database = _layered_db()
    manager = database.statistics()
    if sampled:  # the sample is every row: distinct counts stay exact
        monkeypatch.setattr(stats_module, "SAMPLE_THRESHOLD", 50)
        monkeypatch.setattr(stats_module, "SAMPLE_SIZE", 10_000)
    committed = _reference(database, "t")
    count = database.table_size("t")
    manager.analyze("t")
    writer = database.begin()           # inserted, updated, deleted rows
    writer.insert_many("t", [{"id": 5000 + i, "grp": "new", "qty": None,
                              "score": 1.0} for i in range(25)])
    for row in writer.lookup("t", "grp", "g1")[:20]:
        writer.update("t", row.rid, {"grp": None, "qty": None})
    for row in writer.lookup("t", "grp", "g2")[:10]:
        writer.delete("t", row.rid)
    assert database.table_size("t") == count + 15

    def assert_committed(stats, names):
        assert stats.row_count == count
        for name in names:
            got, want = stats.columns[name], committed[name]
            assert (got.total, got.null_count, got.distinct) == \
                (want.total, want.null_count, want.distinct), name

    analyzed = manager.analyze("t")
    assert_committed(analyzed, committed)
    _hot_misestimate(manager, "t", "grp")
    _hot_misestimate(manager, "t", "qty")
    registry = metrics.get_registry()
    before = registry.get("planner.analyze.feedback")
    assert_committed(manager.stats("t"), ["grp", "qty"])
    assert registry.get("planner.analyze.feedback") == before + 1
    writer.abort()


def _free_elsewhere(lock):
    """Whether another thread can take ``lock`` right now."""
    got = []

    def probe():
        got.append(lock.acquire(blocking=False))
        if got[0]:
            lock.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return got[0]


@pytest.mark.parametrize("kind", ["full", "sampled", "feedback"])
def test_a_pass_leaves_the_writers_lock_free(monkeypatch, kind):
    database = _layered_db()
    manager = database.statistics()
    manager.analyze("t")
    if kind == "sampled":
        monkeypatch.setattr(stats_module, "SAMPLE_THRESHOLD", 50)
    if kind == "feedback":  # the targeted pass
        _hot_misestimate(manager, "t", "grp")
    probes = []
    lock = database._mutate_lock
    real_gather, real_build = Segment.gather, stats_module._build_column_stats

    def gather(segment, names, positions):
        probes.append(_free_elsewhere(lock))
        return real_gather(segment, names, positions)

    def build(values):
        probes.append(_free_elsewhere(lock))
        return real_build(values)

    monkeypatch.setattr(Segment, "gather", gather)
    monkeypatch.setattr(stats_module, "_build_column_stats", build)
    registry = metrics.get_registry()
    before = registry.get(f"planner.analyze.{kind}")
    if kind == "feedback":
        manager.stats("t")
    else:
        manager.analyze("t")
    assert registry.get(f"planner.analyze.{kind}") == before + 1
    assert probes and all(probes)
