"""Tests for the snapshot-versioned query result cache.

Nothing is evicted on commit: an entry serves only a reader whose snapshot
has the table versions it was read at, so after a commit or DDL the next
read misses and returns the new rows, and ``capacity`` bounds the entries.
"""

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import execute_sql
from repro.telemetry import metrics


@pytest.fixture
def db():
    database = Database()
    execute_sql(
        database,
        "CREATE TABLE city (name TEXT PRIMARY KEY, state TEXT, pop INT)",
    )
    execute_sql(
        database,
        "INSERT INTO city (name, state, pop) VALUES "
        "('madison', 'wi', 233209), ('milwaukee', 'wi', 594833), "
        "('austin', 'tx', 950000)",
    )
    return database


@pytest.fixture
def cache(db):
    return QueryResultCache(db, capacity=4)


def _hits():
    return metrics.get_registry().get("planner.cache.hits")


def _misses():
    return metrics.get_registry().get("planner.cache.misses")


def test_repeat_select_hits_cache(db, cache):
    sql = "SELECT * FROM city WHERE state = 'wi'"
    first = cache.execute(sql)
    before = _hits()
    second = cache.execute(sql)
    assert second == first
    assert _hits() == before + 1
    assert len(cache) == 1


def test_normalized_variants_share_an_entry(db, cache):
    first = cache.execute("SELECT * FROM city WHERE state = 'wi'")
    before = _hits()
    second = cache.execute("select  *  from city\nwhere state='wi'")
    assert second == first
    assert _hits() == before + 1
    assert len(cache) == 1


def test_commit_invalidates_affected_table(db, cache):
    sql = "SELECT COUNT(*) AS n FROM city"
    assert cache.execute(sql) == [{"n": 3}]
    execute_sql(db, "INSERT INTO city (name, state, pop) "
                    "VALUES ('portland', 'or', 650000)")
    assert len(cache) == 1  # kept, but stale: its version is behind
    misses, hits = _misses(), _hits()
    assert cache.execute(sql) == [{"n": 4}]
    assert (_misses(), _hits()) == (misses + 1, hits)
    assert len(cache) == 1  # the new rows replaced the stale entry
    assert cache.execute(sql) == [{"n": 4}]
    assert _hits() == hits + 1


def test_update_and_delete_invalidate(db, cache):
    sql = "SELECT pop FROM city WHERE name = 'austin'"
    assert cache.execute(sql) == [{"pop": 950000}]
    cache.execute("UPDATE city SET pop = 1 WHERE name = 'austin'")
    assert cache.execute(sql) == [{"pop": 1}]
    cache.execute("DELETE FROM city WHERE name = 'austin'")
    assert cache.execute(sql) == []


def test_unrelated_table_commit_keeps_entries(db, cache):
    sql = "SELECT COUNT(*) AS n FROM city"
    cache.execute(sql)
    execute_sql(db, "CREATE TABLE other (x INT PRIMARY KEY)")
    execute_sql(db, "INSERT INTO other (x) VALUES (1)")
    assert len(cache) == 1
    before = _hits()
    cache.execute(sql)
    assert _hits() == before + 1


def test_ddl_invalidates(db, cache):
    execute_sql(db, "CREATE TABLE tmp (x INT PRIMARY KEY)")
    execute_sql(db, "INSERT INTO tmp (x) VALUES (1)")
    assert cache.execute("SELECT * FROM tmp") == [{"x": 1}]
    # a dropped and recreated table never reuses a version: the entry for
    # the old table's rows misses
    db.drop_table("tmp")
    execute_sql(db, "CREATE TABLE tmp (x INT PRIMARY KEY)")
    misses = _misses()
    assert cache.execute("SELECT * FROM tmp") == []
    assert _misses() == misses + 1
    execute_sql(db, "INSERT INTO tmp (x) VALUES (2)")
    assert cache.execute("SELECT * FROM tmp") == [{"x": 2}]
    assert _misses() == misses + 2


def test_join_entry_invalidated_by_either_table(db, cache):
    execute_sql(db, "CREATE TABLE st (state TEXT PRIMARY KEY, label TEXT)")
    execute_sql(db, "INSERT INTO st (state, label) VALUES ('wi', 'Wisconsin')")
    sql = ("SELECT city.name, st.label FROM city "
           "JOIN st ON city.state = st.state")
    assert len(cache.execute(sql)) == 2
    misses = _misses()
    execute_sql(db, "UPDATE st SET label = 'WI' WHERE state = 'wi'")
    assert cache.execute(sql)[0]["st.label"] == "WI"
    execute_sql(db, "UPDATE city SET pop = 1 WHERE name = 'madison'")
    assert len(cache.execute(sql)) == 2
    assert _misses() == misses + 2


def test_dml_passes_through_uncached(db, cache):
    rows = cache.execute("INSERT INTO city (name, state, pop) "
                         "VALUES ('houston', 'tx', 2300000)")
    assert rows == [{"inserted": 1}]
    assert len(cache) == 0


def test_returned_rows_are_defensive_copies(db, cache):
    sql = "SELECT * FROM city WHERE name = 'madison'"
    first = cache.execute(sql)
    first[0]["pop"] = -1
    second = cache.execute(sql)
    assert second[0]["pop"] == 233209


def test_lru_eviction_at_capacity(db, cache):
    for i in range(6):  # capacity is 4
        cache.execute(f"SELECT * FROM city LIMIT {i + 1}")
    assert len(cache) == 4
    # The oldest entry (LIMIT 1) was evicted: re-running it misses.
    registry = metrics.get_registry()
    misses_before = registry.get("planner.cache.misses")
    cache.execute("SELECT * FROM city LIMIT 1")
    assert registry.get("planner.cache.misses") == misses_before + 1


def test_clear_and_stats(db, cache):
    for i in range(6):  # capacity is 4, each a new entry past a commit
        cache.execute(f"SELECT * FROM city LIMIT {i + 1}")
        execute_sql(db, f"INSERT INTO city (name, state, pop) "
                        f"VALUES ('town{i}', 'xx', {i})")
        assert len(cache) == min(i + 1, 4)
    cache.clear()
    assert len(cache) == 0
    assert set(cache.stats()) == {"entries", "hits", "misses"}


def test_system_query_path_uses_cache():
    from repro.core.system import StructureManagementSystem

    system = StructureManagementSystem()
    execute_sql(system.db, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute_sql(system.db, "INSERT INTO t (k) VALUES (1), (2)")
    first = system.query("SELECT * FROM t")
    before = _hits()
    second = system.query("SELECT * FROM t")
    assert second == first
    assert _hits() == before + 1


def test_session_shares_system_cache():
    from repro.core.system import StructureManagementSystem

    system = StructureManagementSystem()
    execute_sql(system.db, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute_sql(system.db, "INSERT INTO t (k) VALUES (1)")
    session = system.session("alice")
    assert session.query == system.query
    session.structured("SELECT * FROM t")
    before = _hits()
    session.structured("SELECT * FROM t")
    assert _hits() == before + 1
