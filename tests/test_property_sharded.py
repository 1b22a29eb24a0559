"""Differential property tests: sharded parallel execution vs unsharded.

The unsharded naive interpreter (``use_planner=False``) is the oracle:
for every generated query, a table sharded into 1, 2 or 8 shards and
executed through the parallel operators (ParallelScan / heapq shard
merge / partial->final aggregation) must return the *identical* row
list — same rows, same order.  The layout varies too — all tail, frozen
per shard, and frozen rows written to since (dead positions, tail rows
between stretches of a segment, a row whose new shard key moved it) — so
the tail-row, frozen-segment and position-stretch worker paths are all
exercised; the oracle never freezes anything.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backends import SerialBackend
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.planner import AggState
from repro.storage.rdbms.sql import (SqlError, _Interpreter, execute_sql,
                                     parse_sql)
from repro.storage.rdbms.types import (Column, ColumnType, SchemaError,
                                       TableSchema)

_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon"]

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(_NAMES + [None]),
        st.integers(min_value=-50, max_value=50),
        st.floats(min_value=-1000, max_value=1000, allow_nan=False,
                  allow_infinity=False),
    ),
    min_size=0, max_size=40,
)

shard_count_strategy = st.sampled_from([1, 2, 8])
shard_key_strategy = st.sampled_from(["name", "qty"])


def _schema():
    return TableSchema(
        "t",
        (Column("rid", ColumnType.INT, nullable=False),
         Column("name", ColumnType.TEXT),
         Column("qty", ColumnType.INT),
         Column("score", ColumnType.FLOAT)),
        primary_key="rid",
    )


layout_strategy = st.sampled_from(["tail", "frozen", "masked"])


def _load(rows, shard_key=None, shard_count=1, layout="tail", oracle=False):
    """``oracle`` gets the layout's writes but stays one unsharded tail."""
    db = Database()
    if shard_key is not None and shard_count > 1:
        db.create_table(_schema(), shard_key=shard_key,
                        shard_count=shard_count)
    else:
        db.create_table(_schema())
    with db.begin() as txn:
        for i, (name, qty, score) in enumerate(rows):
            txn.insert("t", {"rid": i, "name": name, "qty": qty,
                             "score": score})
    if layout != "tail" and not oracle:
        db.compact("t", target_rows=4 if layout == "masked" else 65_536)
    if layout == "masked":
        with db.begin() as txn:
            for rid in range(0, len(rows), 3):
                txn.update("t", rid, {"score": 0.25, "qty": rid % 5 - 2})
            for rid in range(1, len(rows), 7):     # across shards, by key
                txn.update("t", rid, {"name": "omega", "qty": 7})
            for rid in range(5, len(rows), 6):
                txn.delete("t", rid)
    db.exec_backend = SerialBackend()
    return db


def _canon(result):
    return json.dumps(result, sort_keys=True, default=str)


@given(
    rows=rows_strategy,
    shards=shard_count_strategy,
    shard_key=shard_key_strategy,
    layout=layout_strategy,
    template=st.sampled_from([
        "qty = {n}",
        "qty > {n} AND qty <= {m}",
        "name = '{name}'",
        "name = '{name}' AND qty >= {n}",
        "qty IN ({n}, {m}, 0)",
        "name IN ('{name}', NULL)",
        "name IS NULL",
        "name = '{name}' OR qty = {n}",
    ]),
    tail=st.sampled_from(["", " ORDER BY qty", " ORDER BY qty DESC LIMIT 3",
                          " LIMIT 4"]),
    n=st.integers(-50, 50),
    m=st.integers(-50, 50),
    name=st.sampled_from(_NAMES),
)
@settings(max_examples=60, deadline=None)
def test_sharded_select_matches_unsharded(rows, shards, shard_key, layout,
                                          template, tail, n, m, name):
    sharded = _load(rows, shard_key, shards, layout)
    oracle = _load(rows, layout=layout, oracle=True)
    where = template.format(n=n, m=m, name=name)
    sql = f"SELECT * FROM t WHERE {where}{tail}"
    assert _canon(execute_sql(sharded, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False)), sql


@given(
    rows=rows_strategy,
    shards=shard_count_strategy,
    shard_key=shard_key_strategy,
    layout=layout_strategy,
    sql=st.sampled_from([
        "SELECT COUNT(*) AS n FROM t",
        "SELECT COUNT(*) AS n, SUM(qty) AS s, MIN(qty) AS lo, "
        "MAX(name) AS hi FROM t",
        "SELECT name, COUNT(*) AS n, SUM(qty) AS s FROM t GROUP BY name",
        "SELECT qty, COUNT(*) AS n FROM t WHERE qty > 0 GROUP BY qty",
        # FLOAT aggregates: gated out of partial merge, serial fold over
        # the globally rid-ordered parallel scan must still match
        "SELECT name, SUM(score) AS s, AVG(score) AS a FROM t "
        "GROUP BY name",
        "SELECT AVG(qty) AS a FROM t",
    ]),
)
@settings(max_examples=60, deadline=None)
def test_sharded_aggregates_match_unsharded(rows, shards, shard_key,
                                            layout, sql):
    sharded = _load(rows, shard_key, shards, layout)
    oracle = _load(rows, layout=layout, oracle=True)
    assert _canon(execute_sql(sharded, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False)), sql


def _dml_outcome(db, sql, use_planner=True):
    """What ``sql`` returns or raises inside an explicit transaction that
    ran an earlier statement first, and the table that transaction then
    commits: a statement that fails leaves none of its writes, and the
    earlier statement still commits."""
    txn = db.begin()
    execute_sql(db, "INSERT INTO t (rid, name, qty) VALUES (-1, 'omega', 0)",
                txn, use_planner)
    try:
        result = execute_sql(db, sql, txn, use_planner)
    except (SqlError, SchemaError) as exc:
        result = type(exc).__name__, str(exc)
    txn.commit()
    return _canon([result, execute_sql(db, "SELECT * FROM t ORDER BY rid",
                                       use_planner=use_planner)])


@given(
    rows=rows_strategy,
    shards=shard_count_strategy,
    shard_key=shard_key_strategy,
    layout=layout_strategy,
    template=st.sampled_from([
        "UPDATE t SET score = 0.0 WHERE name = '{name}'",
        "UPDATE t SET qty = 99 WHERE qty < {n}",
        # rewriting the shard key moves rows between shards
        "UPDATE t SET name = 'omega' WHERE qty >= {n}",
        "DELETE FROM t WHERE name = '{name}' AND qty >= {n}",
        "DELETE FROM t WHERE qty IN ({n}, 0)",
        # a duplicate key: within the statement, or a stored row's
        "INSERT INTO t (rid, name, qty) VALUES (50, '{name}', {n}), "
        "(51, 'omega', {m}), ({k}, 'beta', 1)",
        # several rows moved onto one key
        "UPDATE t SET rid = {k} WHERE qty < {n}",
        # a kernel conjunct beside OR / NOT ones
        "UPDATE t SET score = 1.5 WHERE qty >= {n} "
        "AND (name = '{name}' OR NOT qty = {m})",
        "DELETE FROM t WHERE name != '{name}' "
        "AND NOT (qty < {n} OR qty = {m})",
    ]),
    n=st.integers(-50, 50),
    m=st.integers(-50, 50),
    k=st.integers(-1, 55),
    name=st.sampled_from(_NAMES),
)
@settings(max_examples=100, deadline=None)
def test_sharded_dml_matches_unsharded(rows, shards, shard_key, layout,
                                       template, n, m, k, name):
    sql = template.format(n=n, m=m, k=k, name=name)
    sharded = _load(rows, shard_key, shards, layout)
    oracle = _load(rows, layout=layout, oracle=True)
    assert _dml_outcome(sharded, sql) == \
        _dml_outcome(oracle, sql, use_planner=False), sql


@given(
    rows=rows_strategy,
    shards=shard_count_strategy,
    old_key=shard_key_strategy,
    new_key=shard_key_strategy,
    layout=layout_strategy,
)
@settings(max_examples=30, deadline=None)
def test_reshard_preserves_rows(rows, shards, old_key, new_key, layout):
    sharded = _load(rows, old_key, shards, layout)
    oracle = _load(rows, layout=layout, oracle=True)
    sharded.reshard("t", new_key, 8 // max(shards // 2, 1))
    sql = "SELECT * FROM t"
    assert _canon(execute_sql(sharded, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False))


# ------------------------------------------------------- AggState.merge

_agg_schema = TableSchema(
    "t",
    (Column("name", ColumnType.TEXT), Column("qty", ColumnType.INT),
     Column("flag", ColumnType.BOOL), Column("score", ColumnType.FLOAT)),
)

agg_rows_strategy = st.lists(
    st.fixed_dictionaries({
        "name": st.sampled_from(_NAMES + [None]),
        "qty": st.one_of(st.none(), st.integers(-50, 50)),
        "flag": st.one_of(st.none(), st.booleans()),
    }),
    min_size=0, max_size=40,
)

agg_item_strategy = st.one_of(
    st.just("COUNT(*)"),
    st.tuples(st.sampled_from(["COUNT", "MIN", "MAX"]),
              st.sampled_from(["name", "qty", "flag"])),
    st.tuples(st.sampled_from(["SUM", "AVG"]),
              st.sampled_from(["qty", "flag"])),
).map(lambda item: item if isinstance(item, str) else f"{item[0]}({item[1]})")


@given(
    rows=agg_rows_strategy,
    cuts=st.lists(st.integers(0, 40), max_size=7),
    items=st.lists(agg_item_strategy, min_size=1, max_size=4, unique=True),
    group_by=st.lists(st.sampled_from(["name", "qty", "flag"]),
                      max_size=2, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_agg_state_merge_equals_single_fold_equals_reference(
        rows, cuts, items, group_by):
    sql = "SELECT " + ", ".join(group_by + items) + " FROM t"
    if group_by:
        sql += " GROUP BY " + ", ".join(group_by)
    stmt = parse_sql(sql)
    assert AggState.mergeable(stmt, _agg_schema), sql

    def fold(part):
        state = AggState(stmt)
        for row in part:
            state.add_row(row)
        return state

    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    merged = AggState(stmt)
    for lo, hi in zip(bounds, bounds[1:]):  # 1-8 parts, some empty
        merged.merge(fold(rows[lo:hi]))
    reference = _Interpreter(None, None)._aggregate(stmt, rows)
    assert _canon(merged.finalize()) == _canon(fold(rows).finalize()) \
        == _canon(reference), sql


def test_agg_state_not_mergeable_over_float_operands():
    rows = [{"name": "a", "score": 0.1}, {"name": "b", "score": -0.0},
            {"name": "a", "score": 0.2}, {"name": None, "score": None}]
    for sql in ("SELECT SUM(score) FROM t",
                "SELECT name, AVG(score) FROM t GROUP BY name",
                "SELECT MIN(score) FROM t",
                "SELECT MAX(score), COUNT(*) FROM t",
                "SELECT score, COUNT(*) FROM t GROUP BY score"):
        stmt = parse_sql(sql)
        state = AggState(stmt)  # the serial fold still takes it
        for row in rows:
            state.add_row(row)
        assert state.finalize() == \
            _Interpreter(None, None)._aggregate(stmt, rows), sql
        assert not AggState.mergeable(stmt, _agg_schema), sql
    # COUNT never reads the values, so a FLOAT argument merges exactly
    assert AggState.mergeable(parse_sql("SELECT COUNT(score) FROM t"),
                              _agg_schema)
