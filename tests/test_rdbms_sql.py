"""Tests for the SQL subset."""

from unittest import mock

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import SqlError, execute_sql, parse_sql
from repro.storage.rdbms.types import SchemaError


@pytest.fixture
def db():
    database = Database()
    execute_sql(
        database,
        "CREATE TABLE city (name TEXT PRIMARY KEY, state TEXT, "
        "pop INT, temp FLOAT)",
    )
    execute_sql(
        database,
        "INSERT INTO city (name, state, pop, temp) VALUES "
        "('Madison', 'WI', 233209, 45.2), "
        "('Milwaukee', 'WI', 594833, 47.1), "
        "('Austin', 'TX', 950000, 68.5), "
        "('Houston', 'TX', 2300000, 70.1), "
        "('Portland', 'OR', 650000, 54.3)",
    )
    return database


def test_select_star(db):
    rows = execute_sql(db, "SELECT * FROM city")
    assert len(rows) == 5
    assert set(rows[0]) == {"name", "state", "pop", "temp"}


def test_select_projection_and_where(db):
    rows = execute_sql(db, "SELECT name FROM city WHERE state = 'TX'")
    assert sorted(r["name"] for r in rows) == ["Austin", "Houston"]


def test_where_comparisons(db):
    rows = execute_sql(db, "SELECT name FROM city WHERE pop >= 650000 AND temp < 60")
    assert [r["name"] for r in rows] == ["Portland"]


def test_where_or_and_not(db):
    rows = execute_sql(
        db, "SELECT name FROM city WHERE state = 'OR' OR (NOT state = 'WI' AND pop > 1000000)"
    )
    assert sorted(r["name"] for r in rows) == ["Houston", "Portland"]


def test_like_and_in(db):
    rows = execute_sql(db, "SELECT name FROM city WHERE name LIKE 'M%'")
    assert sorted(r["name"] for r in rows) == ["Madison", "Milwaukee"]
    rows = execute_sql(db, "SELECT name FROM city WHERE state IN ('TX', 'OR')")
    assert len(rows) == 3
    rows = execute_sql(db, "SELECT name FROM city WHERE state NOT IN ('TX', 'OR', 'WI')")
    assert rows == []


def test_is_null(db):
    execute_sql(db, "INSERT INTO city (name, state) VALUES ('Ghosttown', NULL)")
    rows = execute_sql(db, "SELECT name FROM city WHERE state IS NULL")
    assert [r["name"] for r in rows] == ["Ghosttown"]
    rows = execute_sql(db, "SELECT COUNT(*) AS n FROM city WHERE state IS NOT NULL")
    assert rows[0]["n"] == 5


def test_aggregates_without_group(db):
    rows = execute_sql(
        db, "SELECT COUNT(*) AS n, AVG(temp) AS avg_t, MIN(pop) AS lo, "
            "MAX(pop) AS hi, SUM(pop) AS total FROM city"
    )
    row = rows[0]
    assert row["n"] == 5
    assert row["lo"] == 233209 and row["hi"] == 2300000
    assert abs(row["avg_t"] - (45.2 + 47.1 + 68.5 + 70.1 + 54.3) / 5) < 1e-9


def test_group_by(db):
    rows = execute_sql(
        db, "SELECT state, COUNT(*) AS n, AVG(temp) AS avg_t FROM city "
            "GROUP BY state ORDER BY state"
    )
    assert [r["state"] for r in rows] == ["OR", "TX", "WI"]
    tx = next(r for r in rows if r["state"] == "TX")
    assert tx["n"] == 2
    assert abs(tx["avg_t"] - 69.3) < 1e-9


def test_having_filters_groups(db):
    rows = execute_sql(
        db, "SELECT state, COUNT(*) AS n FROM city GROUP BY state "
            "HAVING n >= 2 ORDER BY state"
    )
    assert [r["state"] for r in rows] == ["TX", "WI"]


def test_having_on_aggregate_alias_with_avg(db):
    rows = execute_sql(
        db, "SELECT state, AVG(temp) AS avg_t FROM city GROUP BY state "
            "HAVING avg_t > 50"
    )
    assert {r["state"] for r in rows} == {"OR", "TX"}


def test_having_without_group_by_rejected(db):
    with pytest.raises(SqlError):
        execute_sql(db, "SELECT name FROM city HAVING name = 'Madison'")


def test_group_by_rejects_naked_column(db):
    with pytest.raises(SqlError):
        execute_sql(db, "SELECT name FROM city GROUP BY state")


def test_order_by_and_limit(db):
    rows = execute_sql(db, "SELECT name, pop FROM city ORDER BY pop DESC LIMIT 2")
    assert [r["name"] for r in rows] == ["Houston", "Austin"]


def test_count_on_empty_group(db):
    rows = execute_sql(db, "SELECT COUNT(*) AS n FROM city WHERE pop > 99999999")
    assert rows[0]["n"] == 0


def test_update_with_where(db):
    result = execute_sql(db, "UPDATE city SET temp = 50.0 WHERE state = 'WI'")
    assert result == [{"updated": 2}]
    rows = execute_sql(db, "SELECT temp FROM city WHERE state = 'WI'")
    assert all(r["temp"] == 50.0 for r in rows)


def test_delete_with_where(db):
    result = execute_sql(db, "DELETE FROM city WHERE pop < 500000")
    assert result == [{"deleted": 1}]
    assert execute_sql(db, "SELECT COUNT(*) AS n FROM city")[0]["n"] == 4


def test_join(db):
    execute_sql(db, "CREATE TABLE capitals (state TEXT, capital TEXT)")
    execute_sql(
        db, "INSERT INTO capitals (state, capital) VALUES "
            "('WI', 'Madison'), ('TX', 'Austin')"
    )
    rows = execute_sql(
        db, "SELECT city.name, capitals.capital FROM city "
            "JOIN capitals ON city.state = capitals.state "
            "ORDER BY name"
    )
    assert len(rows) == 4  # 2 WI cities + 2 TX cities
    madison = next(r for r in rows if r["city.name"] == "Madison")
    assert madison["capitals.capital"] == "Madison"


def test_insert_arity_mismatch(db):
    with pytest.raises(SqlError):
        execute_sql(db, "INSERT INTO city (name, pop) VALUES ('X')")


def test_string_escaping(db):
    execute_sql(db, "INSERT INTO city (name, state) VALUES ('O''Fallon', 'MO')")
    rows = execute_sql(db, "SELECT name FROM city WHERE name = 'O''Fallon'")
    assert rows[0]["name"] == "O'Fallon"


def test_parse_errors():
    with pytest.raises(SqlError):
        parse_sql("SELEC * FROM t")
    with pytest.raises(SqlError):
        parse_sql("SELECT FROM t")
    with pytest.raises(SqlError):
        parse_sql("SELECT * FROM t WHERE")
    with pytest.raises(SqlError):
        parse_sql("SELECT * FROM t LIMIT 'x'")


def test_unknown_column_raises(db):
    with pytest.raises(SqlError):
        execute_sql(db, "SELECT bogus FROM city")


def test_equality_uses_index(db):
    db.create_index("city", "state", kind="hash")
    rows = execute_sql(db, "SELECT name FROM city WHERE state = 'WI' AND pop > 300000")
    assert [r["name"] for r in rows] == ["Milwaukee"]


def test_sql_within_explicit_transaction(db):
    txn = db.begin()
    execute_sql(db, "INSERT INTO city (name, state) VALUES ('Temp', 'XX')", txn=txn)
    txn.abort()
    rows = execute_sql(db, "SELECT name FROM city WHERE name = 'Temp'")
    assert rows == []


def test_comparison_type_error_raises(db):
    with pytest.raises(SqlError):
        execute_sql(db, "SELECT name FROM city WHERE name > 5")


def test_explain_returns_plan_rows(db):
    rows = execute_sql(db, "EXPLAIN SELECT name FROM city WHERE state = 'WI'")
    assert rows and all(set(r) == {"plan"} for r in rows)
    assert rows[0]["plan"].startswith("Project(name)")
    assert any("Scan" in r["plan"] or "Lookup" in r["plan"] for r in rows)


def test_explain_reflects_available_indexes(db):
    db.create_index("city", "state", kind="hash")
    rows = execute_sql(db, "EXPLAIN SELECT name FROM city WHERE state = 'WI'")
    plan = "\n".join(r["plan"] for r in rows)
    assert "IndexLookup(city.state = 'WI' via hash index)" in plan


def test_explain_non_select_raises(db):
    with pytest.raises(SqlError):
        execute_sql(db, "EXPLAIN INSERT INTO city (name) VALUES ('x')")


def test_planner_off_oracle_matches(db):
    db.create_index("city", "state", kind="hash")
    db.create_index("city", "pop", kind="sorted")
    for sql in [
        "SELECT name FROM city WHERE state = 'WI' AND pop > 300000",
        "SELECT name, pop FROM city WHERE pop >= 500000 ORDER BY pop DESC LIMIT 2",
        "SELECT state, COUNT(*) AS n FROM city GROUP BY state",
    ]:
        assert execute_sql(db, sql) == \
            execute_sql(db, sql, use_planner=False), sql


@pytest.mark.parametrize("use_planner", [True, False])
@pytest.mark.parametrize("sql, error", [
    ("INSERT INTO t (id, v) VALUES (1, 1), (2, 2), (1, 3)",
     "duplicate primary key 1"),
    ("UPDATE t SET id = 9 WHERE v >= 2", "duplicate primary key 9"),
    ("UPDATE t SET id = 9 WHERE v = 2 OR NOT id < 3",
     "duplicate primary key 9"),
])
def test_a_failing_statement_in_a_transaction_leaves_none_of_its_writes(
        use_planner, sql, error):
    db = Database()
    execute_sql(db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    if sql.startswith("UPDATE"):
        execute_sql(db, "INSERT INTO t (id, v) VALUES (3, 3), (4, 4), (5, 5)")
    before = execute_sql(db, "SELECT * FROM t")
    txn = db.begin()
    execute_sql(db, "INSERT INTO t (id, v) VALUES (100, 0)", txn, use_planner)
    with pytest.raises(SchemaError, match=error):
        execute_sql(db, sql, txn, use_planner)
    txn.commit()  # the earlier statement still commits
    assert execute_sql(db, "SELECT * FROM t ORDER BY id") == \
        sorted(before + [{"id": 100, "v": 0}], key=lambda r: r["id"])


_UNKNOWN = ["SELECT * FROM nosuch",
            "SELECT * FROM city JOIN nosuch ON city.name = nosuch.name",
            "INSERT INTO nosuch (a) VALUES (1)",
            "UPDATE nosuch SET a = 1 WHERE a = 2",
            "DELETE FROM nosuch"]


@pytest.mark.parametrize("entry", ["planner", "interpreter", "qcache"])
@pytest.mark.parametrize("sql", _UNKNOWN)
def test_an_unknown_table_is_a_sql_error(db, sql, entry):
    with pytest.raises(SqlError, match="unknown table 'nosuch'"):
        if entry == "qcache":
            QueryResultCache(db).execute(sql)
        else:
            execute_sql(db, sql, use_planner=entry == "planner")


@pytest.mark.parametrize("entry", ["planner", "interpreter", "qcache"])
def test_a_table_created_after_the_snapshot_is_unknown_to_it(db, entry):
    """A statement names a table its snapshot predates: the reader it runs
    on, not the live catalog, decides that the table is unknown."""
    snap = db.begin_snapshot()
    execute_sql(db, "CREATE TABLE b (id INT PRIMARY KEY)")
    with pytest.raises(SqlError, match="unknown table 'b'"):
        if entry == "qcache":   # (its read takes this snapshot)
            with mock.patch.object(db, "begin_snapshot", return_value=snap):
                QueryResultCache(db).execute("SELECT * FROM b")
        else:
            execute_sql(db, "SELECT * FROM b", snap,
                        use_planner=entry == "planner")
