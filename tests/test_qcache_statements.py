"""The result cache's table of prepared shapes (DESIGN.md §11): a SELECT
text of a new shape is lexed once and parsed once; a repeated text, or a
new text of a known shape, is neither — its literals bind into the
shape's statement."""

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

#: per SELECT, texts of its shape with other literals
OTHER_TEXTS = [
    ["SELECT * FROM city WHERE state = 'tx'",
     'SELECT * FROM city WHERE state = "w\'i"'],
    ["SELECT state, COUNT(*) AS n, AVG(pop) AS a FROM city "
     "WHERE pop > -5 GROUP BY state HAVING n > 1 ORDER BY a DESC LIMIT -1"],
    ["SELECT name, pop FROM city WHERE pop >= +1 AND state IN ('tx', "
     "\"wi\") ORDER BY pop LIMIT 1",
     "SELECT name, pop FROM city WHERE pop >= 600000 AND state IN ('x', "
     "'tx') ORDER BY pop LIMIT 0"],
    ["SELECT city.name, st.label FROM city JOIN st ON city.state = st.state "
     "WHERE NOT (pop < 600000) OR name LIKE '%a%'"],
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

    def counting(text, split=None):
        calls.append(text)
        return original(text, split)

    monkeypatch.setattr(sqlmod, "_lex", counting)
    return calls


@pytest.fixture
def parsed(monkeypatch):
    """How often ``sql.parse_sql`` ran."""
    calls = []
    original = sqlmod.parse_sql

    def counting(sql):
        calls.append(sql)
        return original(sql)

    monkeypatch.setattr(sqlmod, "parse_sql", counting)
    return calls


def _shape(cache, sql):
    return cache._shapes[sqlmod.split_literals(sql)[0]]


@pytest.mark.parametrize("sql", SELECTS)
def test_executing_a_memoized_statement_leaves_it_as_parsed(db, sql):
    cache = QueryResultCache(db)
    want = execute_sql(db, sql, use_planner=False)
    for _ in range(3):
        cache.clear()                  # execute, not hit
        assert cache.execute(sql) == want
    for other in OTHER_TEXTS[SELECTS.index(sql)]:
        assert cache.execute(other) == execute_sql(db, other)
    shape = _shape(cache, sql)
    assert shape.stmt == parse_sql(sql)
    assert shape.key == sqlmod._render_tokens(sqlmod._lex(sql), True)
    assert len(cache._shapes) == 1


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


def test_a_new_text_of_a_known_shape_is_neither_lexed_nor_parsed(
        db, lexed, parsed):
    cache = QueryResultCache(db)
    for sql in SELECTS:
        cache.execute(sql)
    for others in OTHER_TEXTS:
        for other in others:
            assert sqlmod.split_literals(other)[0] in cache._shapes
            lexed.clear()
            parsed.clear()
            got = cache.execute(other)
            assert (lexed, parsed) == ([], [])
            assert got == execute_sql(db, other, use_planner=False)


def test_the_memo_is_bounded_by_the_cache_capacity(db):
    cache = QueryResultCache(db, capacity=2)
    for sql in SELECTS:
        cache.execute(sql)
    assert list(cache._shapes) == [
        sqlmod.split_literals(sql)[0] for sql in SELECTS[-2:]]
    for others in OTHER_TEXTS:          # new texts, old shapes
        for other in others:
            cache.execute(other)
            assert len(cache._shapes) <= 2


def test_other_statements_are_parsed_every_time(db, lexed, parsed):
    cache = QueryResultCache(db)
    update = "UPDATE city SET pop = 1 WHERE name = 'austin'"
    assert cache.execute(update) == [{"updated": 1}]
    assert cache.execute(update) == [{"updated": 1}]
    assert lexed == [update, update] and not cache._shapes
    explain = f"EXPLAIN {SELECTS[0]}"
    assert cache.execute(explain) and cache.execute(explain)
    assert lexed[2:] == [explain, explain] and len(parsed) == 4
    assert not cache._shapes
