"""Differential property tests: planner vs naive interpreter.

The naive path (``use_planner=False``) is the oracle: for every generated
query the planner must return the *identical* row list — same rows, same
order — with and without indexes present.  Predicates are generated
well-typed over valid columns (evaluation-order differences on ill-typed
predicates are out of contract, as in any real DBMS).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics

_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon"]

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.integers(min_value=-50, max_value=50),
        st.floats(min_value=-1000, max_value=1000, allow_nan=False,
                  allow_infinity=False),
    ),
    min_size=0, max_size=30,
)

dim_strategy = st.lists(
    st.tuples(st.sampled_from(_NAMES), st.integers(0, 9)),
    min_size=0, max_size=8, unique_by=lambda t: t[0],
)

predicate_strategy = st.sampled_from([
    "qty = {n}",
    "qty >= {n}",
    "qty < {n}",
    "qty > {n} AND qty <= {m}",
    "name = '{name}'",
    "name = '{name}' AND qty >= {n}",
    "name != '{name}'",
    "name LIKE '{prefix}%'",
    "qty IN ({n}, {m}, 0)",
    "name IS NOT NULL AND qty = {n}",
    "name = '{name}' OR qty = {n}",
])

tail_strategy = st.sampled_from([
    "",
    " ORDER BY qty",
    " ORDER BY qty DESC",
    " ORDER BY name LIMIT 5",
    " ORDER BY qty DESC LIMIT 3",
    " LIMIT 4",
])


def _load(rows, with_indexes):
    db = Database()
    db.create_table(TableSchema(
        "t",
        (Column("rid", ColumnType.INT, nullable=False),
         Column("name", ColumnType.TEXT),
         Column("qty", ColumnType.INT),
         Column("score", ColumnType.FLOAT)),
        primary_key="rid",
    ))
    def insert_all(txn):
        for i, (name, qty, score) in enumerate(rows):
            txn.insert("t", {"rid": i, "name": name, "qty": qty,
                             "score": score})
    db.run(insert_all)
    if with_indexes:
        db.create_index("t", "name", "hash")
        db.create_index("t", "qty", "sorted")
    return db


def _load_dims(db, dims, with_indexes):
    db.create_table(TableSchema(
        "d",
        (Column("name", ColumnType.TEXT, nullable=False),
         Column("grp", ColumnType.INT)),
        primary_key="name",
    ))
    def insert_all(txn):
        for name, grp in dims:
            txn.insert("d", {"name": name, "grp": grp})
    db.run(insert_all)
    if with_indexes:
        db.create_index("d", "name", "hash")
    return db


@given(
    rows=rows_strategy,
    template=predicate_strategy,
    tail=tail_strategy,
    n=st.integers(-50, 50),
    m=st.integers(-50, 50),
    name=st.sampled_from(_NAMES),
    prefix=st.sampled_from(["al", "b", "gam", "z"]),
    with_indexes=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_single_table_planner_matches_naive(rows, template, tail, n, m,
                                            name, prefix, with_indexes):
    db = _load(rows, with_indexes)
    where = template.format(n=n, m=m, name=name, prefix=prefix)
    sql = f"SELECT * FROM t WHERE {where}{tail}"
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False), sql


@given(
    rows=rows_strategy,
    tail=tail_strategy,
    with_indexes=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_projection_and_aggregates_match_naive(rows, tail, with_indexes):
    db = _load(rows, with_indexes)
    for sql in [
        f"SELECT name, qty FROM t{tail}",
        "SELECT COUNT(*) AS n, MIN(qty) AS lo, MAX(qty) AS hi FROM t",
        "SELECT name, COUNT(*) AS n, SUM(qty) AS total FROM t GROUP BY name",
    ]:
        assert execute_sql(db, sql) == \
            execute_sql(db, sql, use_planner=False), sql


@given(
    rows=rows_strategy,
    dims=dim_strategy,
    template=st.sampled_from([
        "",
        " WHERE qty >= {n}",
        " WHERE grp = {g}",
        " WHERE grp = {g} AND qty < {n}",
        " WHERE t.name = '{name}'",
    ]),
    tail=st.sampled_from(["", " ORDER BY qty LIMIT 5", " ORDER BY rid DESC"]),
    n=st.integers(-50, 50),
    g=st.integers(0, 9),
    name=st.sampled_from(_NAMES),
    with_indexes=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_join_planner_matches_naive(rows, dims, template, tail, n, g, name,
                                    with_indexes):
    db = _load(rows, with_indexes)
    _load_dims(db, dims, with_indexes)
    where = template.format(n=n, g=g, name=name)
    sql = (f"SELECT rid, t.name, grp FROM t "
           f"JOIN d ON t.name = d.name{where}{tail}")
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False), sql


@given(
    rows=rows_strategy,
    dims=dim_strategy,
    with_indexes=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_join_aggregate_matches_naive(rows, dims, with_indexes):
    db = _load(rows, with_indexes)
    _load_dims(db, dims, with_indexes)
    sql = ("SELECT grp, COUNT(*) AS n FROM t "
           "JOIN d ON t.name = d.name GROUP BY grp ORDER BY grp")
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False)


@given(
    rows=rows_strategy,
    template=st.sampled_from([
        "UPDATE t SET score = 0.0 WHERE name = '{name}'",
        "UPDATE t SET qty = 99 WHERE qty < {n}",
        "DELETE FROM t WHERE name = '{name}' AND qty >= {n}",
        "DELETE FROM t WHERE qty IN ({n}, 0)",
    ]),
    n=st.integers(-50, 50),
    name=st.sampled_from(_NAMES),
    with_indexes=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dml_planner_matches_naive(rows, template, n, name, with_indexes):
    sql = template.format(n=n, name=name)
    planner_db = _load(rows, with_indexes)
    naive_db = _load(rows, False)
    assert execute_sql(planner_db, sql) == \
        execute_sql(naive_db, sql, use_planner=False)
    final = "SELECT * FROM t ORDER BY rid"
    assert execute_sql(planner_db, final) == \
        execute_sql(naive_db, final, use_planner=False)


# ------------------------------------------------- late materialization
#
# Rows travel from every access path to the output stage as positions
# (DESIGN.md §11); these differentials pin the output stage — projection
# subsets, ORDER BY keys and LIMITs — byte-identical to the naive
# interpreter over every table layout the positions can come from.

_STATES = ["heap", "frozen", "mixed", "masked", "masked_one", "interleaved",
           "sharded", "raw"]

late_rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(_NAMES)),
        st.integers(min_value=-5, max_value=5),           # ties
        st.one_of(st.none(), st.integers(-3, 3)),         # NULL order keys
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=0, max_size=24,
)

_PROJECTIONS = ["*", "name, qty", "qty", "score, name, rid",
                "name AS n, qty AS q", "opt, opt AS again", "t.qty, name"]
_ORDERS = ["", " ORDER BY qty", " ORDER BY qty DESC", " ORDER BY opt",
           " ORDER BY opt DESC", " ORDER BY name", " ORDER BY score DESC",
           " ORDER BY q", " ORDER BY t.qty", " ORDER BY rid DESC"]
_LIMITS = ["", " LIMIT 0", " LIMIT 3", " LIMIT 100", " LIMIT -2"]
_ACCESS = [                       # one template per access path
    "name = '{name}'",            # hash index
    "name = '{name}' AND score > {n}",   # ... with a residual kernel filter
    "name = '{name}' AND (qty > {n} OR opt IS NULL)",   # ... and a fallback
    "qty >= {n}",                 # sorted-index range
    "qty > {n} AND qty <= {m} AND opt IS NOT NULL",
    "rid = {k}",                  # primary key
    "rid = {k} AND qty >= {n}",
    "score > {n}",                # scan (columnar when frozen)
    "opt IN ({n}, 0) OR name LIKE 'a%'",
]


def _late_db(rows, state, dims=None):
    """``t`` (and optionally ``d``) in one of the layouts positions come
    from: an all-tail heap, all frozen, frozen + newer tail rows, frozen
    rows written to since (dead positions, their new versions in the tail
    between stretches of the segment — over several small segments or
    inside one), a tail rid in front of every segment, per-shard segments
    with overlapping rid ranges, and dictionary-overflow / beyond-int64
    ``raw`` columns."""
    from repro.storage.rdbms.segments import Segment

    db = Database()
    schema = TableSchema(
        "t",
        (Column("rid", ColumnType.INT, nullable=False),
         Column("name", ColumnType.TEXT),
         Column("qty", ColumnType.INT),
         Column("opt", ColumnType.INT),
         Column("score", ColumnType.FLOAT)),
        primary_key="rid",
    )
    if state == "sharded":
        db.create_table(schema, shard_key="name", shard_count=3)
    else:
        db.create_table(schema)

    def as_row(i, row):
        name, qty, opt, score = row
        if state == "raw" and i % 5 == 0:
            qty = 2 ** 70 + qty  # does not fit array('q'): raw encoding
        return {"rid": i, "name": name, "qty": qty, "opt": opt,
                "score": score}

    head = rows if state in ("heap", "frozen", "sharded", "raw") \
        else rows[:len(rows) * 2 // 3]
    masked = state.startswith("masked")
    db.run(lambda txn: txn.insert_many(
        "t", [as_row(i, row) for i, row in enumerate(head)]))
    db.create_index("t", "name", "hash")
    db.create_index("t", "qty", "sorted")
    if state != "heap":
        db.compact("t", target_rows=64 if state == "masked_one" else 4)
    heap = db._table("t")
    if state == "raw":
        # Re-freeze with a one-entry dictionary budget: TEXT overflows.
        heap._segments = [Segment.from_rows(schema, list(s.iter_rows()),
                                            dict_max=1)
                          for s in heap._segments]
        heap._directory = None
    if state in ("mixed", "interleaved") or masked:
        db.run(lambda txn: txn.insert_many(
            "t", [as_row(i, row) for i, row in
                  enumerate(rows[len(head):], start=len(head))]))
    if state == "interleaved" and head:
        execute_sql(db, "UPDATE t SET score = 0.5 WHERE rid = 0")
    if masked:
        for i in range(0, len(head), 3):     # neighbours 6 and 7 both move
            execute_sql(db, f"UPDATE t SET score = 0.5, qty = {i % 4 - 1} "
                            f"WHERE rid IN ({i}, {2 * i + 1})")
        execute_sql(db, "DELETE FROM t WHERE rid IN (2, 4, 5, 11, 13)")
        assert len(head) < 3 or heap.dead_rows
    if dims is not None:
        _load_dims(db, dims, with_indexes=True)
    return db


def _same(db, sql, locked):
    """Planner and naive agree on rows, row order and dict key order."""
    if locked:
        with db.begin() as txn:
            got = execute_sql(db, sql, txn=txn)
            want = execute_sql(db, sql, txn=txn, use_planner=False)
    else:
        got = execute_sql(db, sql)
        want = execute_sql(db, sql, use_planner=False)
    assert [list(r.items()) for r in got] == \
        [list(r.items()) for r in want], sql


@given(
    rows=late_rows_strategy,
    state=st.sampled_from(_STATES),
    projection=st.sampled_from(_PROJECTIONS),
    access=st.sampled_from(_ACCESS),
    order=st.sampled_from(_ORDERS),
    limit=st.sampled_from(_LIMITS),
    n=st.integers(-5, 5), m=st.integers(-5, 5), k=st.integers(0, 24),
    name=st.sampled_from(_NAMES),
    locked=st.booleans(),
)
@settings(max_examples=250, deadline=None)
def test_late_materialization_matches_naive(rows, state, projection, access,
                                            order, limit, n, m, k, name,
                                            locked):
    db = _late_db(rows, state)
    where = access.format(n=n, m=m, k=k, name=name)
    _same(db, f"SELECT {projection} FROM t WHERE {where}{order}{limit}",
          locked)


@given(
    rows=late_rows_strategy,
    dims=dim_strategy,
    state=st.sampled_from(_STATES),
    where=st.sampled_from(["", " WHERE qty >= 0", " WHERE grp < 5",
                           " WHERE t.name = 'alpha' AND opt IS NOT NULL"]),
    order=st.sampled_from(["", " ORDER BY qty LIMIT 4", " ORDER BY grp DESC",
                           " ORDER BY rid DESC LIMIT -1", " LIMIT 2"]),
    locked=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_late_materialization_joins_match_naive(rows, dims, state, where,
                                                order, locked):
    # d is tiny and indexed on the join key: plans probe it per outer
    # row (IndexNestedLoopJoin) or hash-join, as the estimates fall.
    db = _late_db(rows, state, dims)
    for items in ("rid, t.name, grp", "*"):
        _same(db, f"SELECT {items} FROM t JOIN d ON t.name = d.name"
                  f"{where}{order}", locked)


def test_sampled_analyze_plans_over_segments_and_a_tail(monkeypatch):
    # ROADMAP item 0: above SAMPLE_THRESHOLD ANALYZE samples segments and
    # tail directly; with a tail present every planned query crashed.
    from repro.storage.rdbms import stats

    monkeypatch.setattr(stats, "SAMPLE_THRESHOLD", 5)
    monkeypatch.setattr(stats, "SAMPLE_SIZE", 8)
    rows = [(_NAMES[i % 5], i % 7 - 3, None if i % 4 == 0 else i % 3,
             float(i)) for i in range(40)]
    db = _late_db(rows, "mixed")
    registry = metrics.get_registry()
    before = registry.get("planner.analyze.sampled")
    for where in ("name = 'alpha'", "qty >= 1", "rid = 30", "score > 12"):
        _same(db, f"SELECT name, qty FROM t WHERE {where} ORDER BY qty "
                  "LIMIT 5", locked=False)
    assert registry.get("planner.analyze.sampled") > before
    assert db._table("t").tail_size and db._table("t").segment_count()
