"""Tests for the snapshot-versioned query result cache.

Nothing is evicted on commit: an entry serves only a reader whose snapshot
has the table versions it was read at, so after a commit or DDL the next
read misses and returns the new rows, and ``capacity`` bounds the entries.
A full cache admits a miss only when its reads times its shape's cost beat
the least recently used entry's; the cost gaps below come from data sizes
(an aggregate over 20,000 rows against a primary-key probe), not timing.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.rdbms import qcache
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
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


@pytest.fixture(scope="module")
def big():
    """``tail`` keeps its rows in the heap's tail, ``seg`` is compacted into
    segments and indexed on ``g``.  ``big`` (20,000 rows) and ``mid``
    (2,000) stay in the tail: an aggregate over ``big`` costs about a
    thousand primary-key probes of it, one over ``mid`` about a hundred."""
    database = Database()
    sizes = {"tail": 60, "seg": 60, "big": 20_000, "mid": 2_000}
    for name, size in sizes.items():
        execute_sql(database, f"CREATE TABLE {name} "
                              "(id INT PRIMARY KEY, g TEXT, v INT)")
        database.run(lambda txn, name=name, size=size: txn.insert_many(
            name, [{"id": i, "g": f"g{i % 7}", "v": (i * 37) % 101}
                   for i in range(size)]))
    execute_sql(database, "CREATE TABLE dim (g TEXT PRIMARY KEY, label TEXT)")
    execute_sql(database, "INSERT INTO dim (g, label) VALUES "
                          "('g1', 'one'), ('g2', 'two'), ('g5', 'five')")
    database.compact("seg")
    database.create_index("seg", "g")
    return database


_BIG_AGG = "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM big GROUP BY g"

# one statement per plan kind whose rows a caller could get by reference
_PLAN_KINDS = {
    "tail star": "SELECT * FROM tail WHERE v > 40",
    "segment star": "SELECT * FROM seg WHERE v > 40",
    "tail projection": "SELECT id, g FROM tail WHERE v < 50",
    "segment projection": "SELECT v, id FROM seg WHERE v < 50",
    "aggregate": "SELECT g, COUNT(*) AS n, MAX(v) AS m FROM seg GROUP BY g",
    "tail aggregate": "SELECT g, AVG(v) AS a FROM tail GROUP BY g",
    "top-k": "SELECT id, v FROM seg ORDER BY v DESC LIMIT 5",
    "tail top-k": "SELECT * FROM tail ORDER BY v LIMIT 5",
    "index lookup": "SELECT * FROM seg WHERE g = 'g3'",
    "index projection": "SELECT id FROM seg WHERE g = 'g4'",
    "pk lookup": "SELECT * FROM tail WHERE id = 7",
    "join": "SELECT tail.id, dim.label FROM tail JOIN dim "
            "ON tail.g = dim.g",
    "join star": "SELECT * FROM seg JOIN dim ON seg.g = dim.g",
}


def _mutate(rows):
    for row in rows:
        for column in list(row):
            row[column] = "mutated"
        row["extra"] = 1
    rows.append({"extra": 2})


def test_returned_rows_are_defensive_copies(big):
    for kind, sql in _PLAN_KINDS.items():
        want = execute_sql(big, sql)
        assert want, kind
        for read, counted in (("hit", (1, 0)), ("admitted miss", (0, 0)),
                              ("declined miss", (0, 1))):
            cache = QueryResultCache(big, capacity=1)
            if read == "declined miss":
                for _ in range(5):  # reads x cost far above any of them
                    cache.execute(_BIG_AGG)
            elif read == "hit":
                cache.execute(sql)
            declined, hits = cache.stats()["declined"], _hits()
            got = cache.execute(sql)
            assert got == want, (kind, read)
            assert (_hits() - hits,
                    cache.stats()["declined"] - declined) == counted, \
                (kind, read)
            _mutate(got)
            assert cache.execute(sql) == want, (kind, read)
            assert execute_sql(big, sql) == want, (kind, read)


def test_lru_eviction_at_capacity(db, cache):
    for i in range(6):  # capacity is 4
        cache.execute(f"SELECT * FROM city LIMIT {i + 1}")
    assert len(cache) == 4
    # The oldest entry (LIMIT 1) was evicted: re-running it misses.
    registry = metrics.get_registry()
    misses_before = registry.get("planner.cache.misses")
    cache.execute("SELECT * FROM city LIMIT 1")
    assert registry.get("planner.cache.misses") == misses_before + 1


def test_an_aggregate_read_twice_survives_one_off_point_reads(big):
    cache = QueryResultCache(big, capacity=4)
    for _ in range(2):
        cache.execute(_BIG_AGG)
    declined = cache.stats()["declined"]
    for i in range(10 * 4):  # each read once; the counts halve once
        cache.execute(f"SELECT * FROM big WHERE id = {i}")
    assert cache.stats()["declined"] > declined
    assert len(cache) == 4
    hits = _hits()
    cache.execute(_BIG_AGG)
    assert _hits() == hits + 1


def test_a_one_off_expensive_read_keeps_a_point_entry_read_often(big):
    cache = QueryResultCache(big, capacity=128)
    point = "SELECT * FROM big WHERE id = 5"
    for _ in range(1000):
        cache.execute(point)
    for i in range(1, 128):  # fill the cache behind the point entry
        cache.execute(f"SELECT * FROM big WHERE id = {10 + i}")
    once = "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM mid GROUP BY g"
    declined, misses = cache.stats()["declined"], _misses()
    cache.execute(once)
    assert (cache.stats()["declined"], _misses()) == (declined + 1,
                                                      misses + 1)
    hits = _hits()
    cache.execute(point)  # still cached
    cache.execute(once)  # not cached
    assert (_hits(), _misses()) == (hits + 1, misses + 2)


def test_a_shapes_cost_leaves_out_its_first_miss(db, monkeypatch):
    """The first miss pays the prepare and lazily built index contents
    and imprints; once a second miss exists the cost is the mean of the
    misses after it (thread CPU time scripted: 3,750 us, then 70 us)."""
    spans = [3750e-6] + [70e-6] * 5
    clock = iter([t for i, span in enumerate(spans)
                  for t in (float(i), i + span)])
    monkeypatch.setattr(qcache, "thread_time", lambda: next(clock))
    cache = QueryResultCache(db, capacity=4)
    costs = []
    for pop in range(len(spans)):
        cache.execute(f"SELECT name FROM city WHERE pop > {pop}")
        (shape,) = cache._shapes.values()
        costs.append(shape.cost)
    assert costs[0] == pytest.approx(3750e-6)
    assert costs[1:] == pytest.approx([70e-6] * 5)
    assert shape.misses == len(spans)


@pytest.mark.parametrize("capacity", [1, 2, 5])
def test_the_read_counts_stay_within_twenty_times_capacity(db, capacity):
    cache = QueryResultCache(db, capacity=capacity)
    for i in range(100 * capacity):
        cache.execute(f"SELECT * FROM city WHERE pop > {i}")
        if i % 3 == 0:
            cache.execute("SELECT * FROM city WHERE pop > -1")
        assert len(cache._counts) <= 20 * capacity
        assert len(cache) <= capacity


_MIX_READS = [
    "SELECT * FROM t WHERE id = {n}",
    "SELECT id, v FROM t WHERE g = 'g{n}'",
    "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t WHERE v > {n} GROUP BY g",
    "SELECT * FROM t ORDER BY v DESC LIMIT {n}",
    "SELECT t.id, d.label FROM t JOIN d ON t.g = d.g WHERE t.v < {n}",
]
_MIX_STEPS = ["insert", "update", "delete", "compact", "index g",
              "index v", "drop d", "alter t"]


def _mix_database():
    database = Database()
    execute_sql(database, "CREATE TABLE t (id INT PRIMARY KEY, g TEXT, "
                          "v INT)")
    database.run(lambda txn: txn.insert_many("t", [
        {"id": i, "g": f"g{i % 5}", "v": i % 13} for i in range(300)]))
    execute_sql(database, "CREATE TABLE d (g TEXT PRIMARY KEY, label TEXT)")
    execute_sql(database, "INSERT INTO d (g, label) VALUES ('g1', 'a'), "
                          "('g2', 'b')")
    return database


def _mix_step(database, step, n):
    if step == "insert":
        execute_sql(database, f"INSERT INTO t (id, g, v) VALUES "
                              f"({1000 + n}, 'g{n % 5}', {n % 13})")
    elif step == "update":
        execute_sql(database, f"UPDATE t SET v = {n % 7} WHERE g = 'g{n % 5}'")
    elif step == "delete":
        execute_sql(database, f"DELETE FROM t WHERE id = {n % 40}")
    elif step == "compact":
        database.compact("t")
    elif step.startswith("index "):
        column = step.split()[1]
        if database._find_index("t", column) is None:
            database.create_index("t", column)
    elif step == "drop d":  # and create it again with other rows
        database.drop_table("d")
        execute_sql(database, "CREATE TABLE d (g TEXT PRIMARY KEY, "
                              "label TEXT)")
        execute_sql(database, f"INSERT INTO d (g, label) VALUES "
                              f"('g{n % 5}', 'x{n}')")
    elif not database.schema("t").has_column("w"):  # alter t: add w
        schema = database.schema("t")
        database.alter_table("t", TableSchema(
            "t", schema.columns + (Column("w", ColumnType.INT),),
            primary_key="id"), lambda row: {**row, "w": row["v"] * 2})


@given(capacity=st.integers(2, 4), data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_a_mix_of_reads_commits_and_ddl_reads_as_execute_sql(capacity,
                                                             data):
    database = _mix_database()
    cache = QueryResultCache(database, capacity=capacity)
    for n in range(data.draw(st.integers(5, 40))):
        if data.draw(st.integers(0, 3)) == 0:
            _mix_step(database, data.draw(st.sampled_from(_MIX_STEPS)), n)
        sql = data.draw(st.sampled_from(_MIX_READS)).format(
            n=data.draw(st.integers(0, 6)))
        assert cache.execute(sql) == execute_sql(database, sql), sql
        assert len(cache) <= capacity


def test_clear_and_stats(db, cache):
    for i in range(6):  # capacity is 4, each a new entry past a commit
        cache.execute(f"SELECT * FROM city LIMIT {i + 1}")
        execute_sql(db, f"INSERT INTO city (name, state, pop) "
                        f"VALUES ('town{i}', 'xx', {i})")
        assert len(cache) == min(i + 1, 4)
    cache.clear()
    assert len(cache) == 0
    assert set(cache.stats()) == {"entries", "hits", "misses", "declined",
                                  "prepared_hits", "prepared_misses"}


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
