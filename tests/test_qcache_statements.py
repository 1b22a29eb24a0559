"""The result cache's statement memo (DESIGN.md §11): a SELECT text is
lexed once and parsed once; a repeated text is neither."""

import pytest

from repro.storage.rdbms import sql as sqlmod
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import execute_sql, parse_sql

SELECTS = [
    "SELECT * FROM city WHERE state = 'wi'",
    "SELECT state, COUNT(*) AS n, AVG(pop) AS a FROM city "
    "WHERE pop > 100 GROUP BY state HAVING n > 0 ORDER BY a DESC LIMIT 2",
    "SELECT name, pop FROM city WHERE pop >= 200000 AND state IN ('wi', "
    "'tx') ORDER BY pop LIMIT 5",
    "SELECT city.name, st.label FROM city JOIN st ON city.state = st.state "
    "WHERE NOT (pop < 10) OR name LIKE 'm%'",
]


@pytest.fixture
def db():
    database = Database()
    execute_sql(database, "CREATE TABLE city (name TEXT PRIMARY KEY, "
                          "state TEXT, pop INT)")
    execute_sql(database, "CREATE TABLE st (state TEXT PRIMARY KEY, "
                          "label TEXT)")
    execute_sql(database, "INSERT INTO city (name, state, pop) VALUES "
                          "('madison', 'wi', 233209), ('milwaukee', 'wi', "
                          "594833), ('austin', 'tx', 950000)")
    execute_sql(database, "INSERT INTO st (state, label) VALUES "
                          "('wi', 'Wisconsin'), ('tx', 'Texas')")
    database.compact("city")
    return database


@pytest.fixture
def lexed(monkeypatch):
    """The texts ``sql._lex`` was called on."""
    calls = []
    original = sqlmod._lex

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(sqlmod, "_lex", counting)
    return calls


@pytest.mark.parametrize("sql", SELECTS)
def test_executing_a_memoized_statement_leaves_it_as_parsed(db, sql):
    cache = QueryResultCache(db)
    want = execute_sql(db, sql, use_planner=False)
    for _ in range(3):
        cache.clear()                  # execute, not hit
        assert cache.execute(sql) == want
    stmt, key = cache._statements[sql]
    assert stmt == parse_sql(sql)
    assert key == sqlmod.normalize_sql(sql)


def test_a_new_text_is_lexed_once_and_a_repeated_one_never(db, lexed):
    cache = QueryResultCache(db)
    for sql in SELECTS:
        cache.execute(sql)
    assert lexed == SELECTS
    lexed.clear()
    for sql in SELECTS:
        cache.clear()
        cache.execute(sql)             # a result-cache miss: executes
        cache.execute(sql)             # a hit
    assert lexed == []


def test_the_memo_is_bounded_by_the_cache_capacity(db):
    cache = QueryResultCache(db, capacity=2)
    for sql in SELECTS:
        cache.execute(sql)
    assert list(cache._statements) == SELECTS[-2:]


def test_other_statements_are_parsed_every_time(db, lexed):
    cache = QueryResultCache(db)
    update = "UPDATE city SET pop = 1 WHERE name = 'austin'"
    assert cache.execute(update) == [{"updated": 1}]
    assert cache.execute(update) == [{"updated": 1}]
    assert lexed == [update, update] and not cache._statements
    explain = cache.execute(f"EXPLAIN {SELECTS[0]}")
    assert explain and not cache._statements
