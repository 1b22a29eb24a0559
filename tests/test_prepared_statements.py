"""Prepared SELECTs (DESIGN.md §11): a text of a known shape binds its
literals into the shape's statement and prepared plan.

The differential: generated SELECTs run through one long-lived
``QueryResultCache``, each after other texts of its shape, with commits,
``compact`` and ``create_index`` in between.  Rows, the
exception type and message, and the EXPLAIN lines of the bound plan must
equal a fresh ``execute_sql`` / ``plan_select`` of the same text, and
the text's literals, bound into the statement its shape was first parsed
to, must give the text's own parse.
"""

import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.rdbms import sql as sqlmod
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.planner import Planner
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import execute_sql, parse_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics
from repro.telemetry.report import render_report, render_top, summarize_trace

_NAMES = ["alpha", "beta", "o'neil", 'say "hi"', "gamma"]


def _quoted(text, quote):
    return quote + text.replace(quote, quote * 2) + quote


# -------------------------------------------------------------- literals
#
# A slot of a template is one of these kinds; every text drawn for one
# template spells its literals differently (quote style, sign, exponent)
# but keeps their types, so all of them share the template's shape.

_LITERALS = {
    "str": st.builds(_quoted, st.sampled_from(_NAMES),
                     st.sampled_from(["'", '"'])),
    "pattern": st.builds(_quoted, st.sampled_from(
        ["al%", "%a", "_eta", "%'%", "o''%", "%"]),
        st.sampled_from(["'", '"'])),
    "int": st.builds(lambda n, sign: sign + str(n) if n >= 0 else str(n),
                     st.integers(-30, 30), st.sampled_from(["", "+"])),
    "float": st.one_of(
        st.sampled_from(["1e400", "-1e400", "2.5e1", "-1.5E-1", "0.0",
                         "+3.25"]),
        st.floats(-40, 40).map(lambda x: f"{x:.3f}")),
    "limit": st.sampled_from(["0", "1", "3", "-1", "-2"]),
}

_ATOMS = [
    "qty {op} {int}",
    "{int} {op} qty",
    "score {op} {float}",
    "rid = {int}",
    "name = {str}",
    "name <> {str}",
    "name LIKE {pattern}",
    "name NOT LIKE {pattern}",
    "qty IN ({int}, {int})",
    "name NOT IN ({str}, NULL)",
    "name IS NULL",
    "score IS NOT NULL",
    "flag = TRUE",
    "qty > {int} AND qty <= {int}",
]
_OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def _predicate(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_ATOMS)).replace(
            "{op}", draw(st.sampled_from(_OPS)))
    left, right = draw(_predicate(depth - 1)), draw(_predicate(depth - 1))
    return draw(st.sampled_from([
        f"{left} AND {right}", f"{left} OR {right}", f"NOT ({left})",
        f"({left}) AND NOT ({right})"]))


@st.composite
def _template(draw):
    """One statement with ``{kind}`` slots in it."""
    form = draw(st.sampled_from(["star", "project", "group", "join"]))
    where = draw(st.one_of(st.just(""), _predicate().map(" WHERE ".__add__)))
    limit = draw(st.sampled_from(["", " LIMIT {limit}"]))
    if form == "star":
        order = draw(st.sampled_from(["", " ORDER BY qty", " ORDER BY score "
                                      "DESC", " ORDER BY name"]))
        return f"SELECT * FROM t{where}{order}{limit}"
    if form == "project":
        order = draw(st.sampled_from(["", " ORDER BY qty DESC",
                                      " ORDER BY rid"]))
        return f"SELECT name, qty FROM t{where}{order}{limit}"
    if form == "group":
        having = draw(st.sampled_from(["", " HAVING n > {int}",
                                       " HAVING s < {int} OR n = 1"]))
        order = draw(st.sampled_from(["", " ORDER BY n DESC", " ORDER BY s"]))
        return (f"SELECT name, COUNT(*) AS n, SUM(qty) AS s FROM t{where}"
                f" GROUP BY name{having}{order}{limit}")
    where = draw(st.sampled_from([
        "", " WHERE grp = {int}", " WHERE qty >= {int} AND grp < {int}",
        " WHERE t.name = {str} OR grp IN ({int}, {int})",
        " WHERE NOT (qty < {int})"]))
    order = draw(st.sampled_from(["", " ORDER BY rid", " ORDER BY qty DESC"]))
    return (f"SELECT rid, t.name, grp FROM t JOIN dim1 "
            f"ON t.name = dim1.name"
            f"{where}{order}{limit}")


def _fill(draw, template):
    """``template`` with each ``{kind}`` slot drawn as a literal text."""
    out, rest = [], template
    while "{" in rest:
        head, _, tail = rest.partition("{")
        kind, _, rest = tail.partition("}")
        out += [head, draw(_LITERALS[kind])]
    return "".join(out + [rest])


_MALFORMED = [
    "SELECT * FROM t WHERE qty = ?",
    "SELECT * FROM t WHERE qty = ?i",
    "SELECT * FROM t WHERE name = ?s",
    "SELECT * FROM t WHERE name = 'alpha",
    'SELECT * FROM t WHERE name = "alpha',
    "SELECT * FROM t LIMIT 2.5",
    "SELECT * FROM t LIMIT 1e400",
    "SELECT * FROM t WHERE qty = 1 ?",
    "SELECT * FROM nowhere WHERE qty = 1",
    "SELECT * FROM t HAVING qty > 1",
    "SELECT name, COUNT(*) AS n FROM t GROUP BY name HAVING n > 'x'",
    "SELECT * FROM t WHERE name < 3",
]


# ------------------------------------------------------------------ steps


def _database(rows):
    db = Database()
    db.create_table(TableSchema("t", (
        Column("rid", ColumnType.INT, nullable=False),
        Column("name", ColumnType.TEXT), Column("qty", ColumnType.INT),
        Column("score", ColumnType.FLOAT), Column("flag", ColumnType.BOOL)),
        primary_key="rid"))
    db.create_table(TableSchema("dim1", (
        Column("name", ColumnType.TEXT, nullable=False),
        Column("grp", ColumnType.INT)), primary_key="name"))
    db.run(lambda txn: txn.insert_many("t", [
        {"rid": i, "name": name, "qty": qty, "score": score,
         "flag": None if qty is None else qty % 2 == 0}
        for i, (name, qty, score) in enumerate(rows)]))
    db.run(lambda txn: txn.insert_many("dim1", [
        {"name": name, "grp": i} for i, name in enumerate(_NAMES[:4])]))
    return db


def _step(db, step, n):
    """Apply one catalog or data step between statements."""
    if step == "insert":
        execute_sql(db, f"INSERT INTO t (rid, name, qty, score, flag) VALUES "
                        f"({1000 + n}, 'beta', {n % 7}, {n / 4}, FALSE)")
    elif step == "update":
        execute_sql(db, f"UPDATE t SET qty = {n % 5}, name = 'gamma' "
                        f"WHERE rid = {n % 12}")
    elif step == "delete":
        execute_sql(db, f"DELETE FROM t WHERE rid = {n % 12}")
    elif step == "compact":
        db.compact("t")
    elif step.startswith("index "):
        _, column, kind = step.split()
        if db._find_index("t", column) is None:
            db.create_index("t", column, kind)


_STEPS = ["insert", "update", "delete", "compact", "index name hash",
          "index qty sorted", "index score sorted", "index rid hash"]


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the error surface is part of the contract
        return type(exc).__name__, str(exc)


def _bound_explain(db, cache, sql):
    """The EXPLAIN lines of the plan ``cache`` bound ``sql`` to, its
    shape's prepared plan being the catalog's current one."""
    shape, literals, _ = sqlmod.split_literals(sql)
    prepared = cache._shapes[shape].prepared
    assert prepared.catalog == db.catalog_version, sql
    stmt = sqlmod.bind_literals(cache._shapes[shape].stmt, literals)
    return Planner(db).bind(prepared, stmt).render()


@given(
    rows=st.lists(st.tuples(st.sampled_from(_NAMES + [None]),
                            st.one_of(st.none(), st.integers(-20, 20)),
                            st.one_of(st.none(), st.floats(-50, 50))),
                  max_size=12),
    data=st.data(),
)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_texts_of_a_prepared_shape_run_as_a_fresh_parse(rows, data):
    db = _database(rows)
    cache = QueryResultCache(db, capacity=16)
    registry = metrics.get_registry()
    templates = data.draw(st.lists(_template(), min_size=1, max_size=4))
    for n in range(data.draw(st.integers(4, 12))):
        if data.draw(st.booleans()):
            _step(db, data.draw(st.sampled_from(_STEPS)), n)
        if data.draw(st.integers(0, 5)) == 0:
            sql = data.draw(st.sampled_from(_MALFORMED))
        else:
            sql = _fill(data.draw, data.draw(st.sampled_from(templates)))
        misses = registry.get("planner.cache.misses")
        got = _outcome(lambda: cache.execute(sql))
        assert got == _outcome(lambda: execute_sql(db, sql)), sql
        if isinstance(got, list):
            shape, literals, _ = sqlmod.split_literals(sql)
            # the shape's statement is the parse of its first text: this
            # text's literals bind into it as this text's parse
            assert repr(sqlmod.bind_literals(cache._shapes[shape].stmt,
                                             literals)) == \
                repr(parse_sql(sql)), sql
            if registry.get("planner.cache.misses") > misses:  # it bound
                assert _bound_explain(db, cache, sql) == Planner(
                    db).plan_select(parse_sql(sql)).render(), sql
            assert _outcome(lambda: cache.execute(f"EXPLAIN {sql}")) == \
                _outcome(lambda: execute_sql(db, f"EXPLAIN {sql}")), sql


def test_a_float_that_overflows_is_not_the_identifier_inf():
    db = Database()
    execute_sql(db, "CREATE TABLE t (id INT PRIMARY KEY, a FLOAT, inf FLOAT)")
    execute_sql(db, "INSERT INTO t (id, a, inf) VALUES (1, 5.0, 1.0), "
                    "(2, 0.5, 1.0)")
    cache = QueryResultCache(db)
    assert cache.execute("SELECT id FROM t WHERE a < 1e400") == [
        {"id": 1}, {"id": 2}]
    assert cache.execute("SELECT id FROM t WHERE a < inf") == [{"id": 2}]
    assert execute_sql(db, "SELECT id FROM t WHERE a < inf") == [{"id": 2}]
    assert sqlmod.normalize_sql("SELECT id FROM t WHERE a < 1e400") != \
        sqlmod.normalize_sql("SELECT id FROM t WHERE a < inf")


def test_threads_binding_one_shape_each_get_their_own_rows():
    db = Database()
    execute_sql(db, "CREATE TABLE t (id INT PRIMARY KEY, k TEXT, v INT)")
    db.run(lambda txn: txn.insert_many("t", [
        {"id": i, "k": f"k{i % 40}", "v": i} for i in range(400)]))
    db.compact("t")
    db.create_index("t", "k")
    cache = QueryResultCache(db, capacity=4)  # results mostly miss
    want = {j: execute_sql(db, f"SELECT id, v FROM t WHERE k = 'k{j}' "
                               f"AND v >= {j}") for j in range(40)}
    errors = []

    def reader(offset):
        try:
            for i in range(300):
                j = (i * 7 + offset) % 40
                got = cache.execute(f"SELECT id, v FROM t WHERE k = 'k{j}' "
                                    f"AND v >= {j}")
                if got != want[j]:
                    errors.append((j, got))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside a bind
    try:
        for thread in threads:
            thread.start()
        db.create_index("t", "v", "sorted")  # re-prepares under the binds
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache._shapes) == 1


def test_repro_stats_and_top_count_prepared_shapes():
    db = Database()
    execute_sql(db, "CREATE TABLE t (id INT PRIMARY KEY, k TEXT)")
    registry = metrics.MetricsRegistry()
    with metrics.use_registry(registry):
        cache = QueryResultCache(db)
        for k in ("a", "b", "c"):
            cache.execute(f"SELECT id FROM t WHERE k = '{k}'")
        cache.execute("SELECT COUNT(*) AS n FROM t")
    snapshot = registry.snapshot()
    report = render_report(summarize_trace([]), snapshot)
    assert "query result cache: hits=0 misses=4" in report
    assert "prepared statements: hits=2 misses=2 (50.0% hit rate)" in report
    assert "prepared shapes" in render_top(None, snapshot)
