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
from repro.storage.rdbms.sql import SqlError, execute_sql
from repro.storage.rdbms.types import (Column, ColumnType, SchemaError,
                                       TableSchema)
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
    return result, execute_sql(db, "SELECT * FROM t ORDER BY rid",
                               use_planner=use_planner)


@given(
    rows=rows_strategy,
    template=st.sampled_from([
        "UPDATE t SET score = 0.0 WHERE name = '{name}'",
        "UPDATE t SET qty = 99 WHERE qty < {n}",
        "DELETE FROM t WHERE name = '{name}' AND qty >= {n}",
        "DELETE FROM t WHERE qty IN ({n}, 0)",
        # a duplicate key: within the statement, or a stored row's
        "INSERT INTO t (rid, name, qty) VALUES (40, '{name}', {n}), "
        "(41, 'omega', {m}), ({k}, 'beta', 1)",
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
    k=st.integers(-1, 45),
    name=st.sampled_from(_NAMES),
    with_indexes=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_dml_planner_matches_naive(rows, template, n, m, k, name,
                                   with_indexes):
    sql = template.format(n=n, m=m, k=k, name=name)
    planner_db = _load(rows, with_indexes)
    naive_db = _load(rows, False)
    assert _dml_outcome(planner_db, sql) == \
        _dml_outcome(naive_db, sql, use_planner=False), sql


# ------------------------------------------------- late materialization
#
# Rows travel from every access path to the output stage as positions
# (DESIGN.md §11); these differentials pin the output stage — projection
# subsets, ORDER BY keys and LIMITs — byte-identical to the naive
# interpreter over every table layout the positions can come from.

_STATES = ["heap", "frozen", "mixed", "masked", "masked_one", "interleaved",
           "raw"]

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
    inside one), a tail rid in front of every segment, and
    dictionary-overflow / beyond-int64 ``raw`` columns."""
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
    db.create_table(schema)

    def as_row(i, row):
        name, qty, opt, score = row
        if state == "raw" and i % 5 == 0:
            qty = 2 ** 70 + qty  # does not fit array('q'): raw encoding
        return {"rid": i, "name": name, "qty": qty, "opt": opt,
                "score": score}

    head = rows if state in ("heap", "frozen", "raw") \
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


# --------------------------------------------- aggregates over every child
#
# The aggregate stage folds one AggState over whatever child the planner
# picks (DESIGN.md §12).  Sixty-four filler rows with unique names and
# large qty values make each WHERE below plan the child it names whatever
# the generated rows are; the statements include the shapes whose fold
# raises, which must fail exactly like the naive interpreter's.

_FILLER = 64

_AGG_PATHS = [  # (layout, WHERE, the child the aggregate stage folds)
    ("heap", "", "FullScan"),
    ("heap", " WHERE score > {n}", "Filter"),
    ("indexed", " WHERE name = '{name}'", "IndexLookup"),
    ("indexed", " WHERE rid = {k}", "PkLookup"),
    ("indexed", " WHERE qty <= {n}", "RangeScan"),
    ("mixed", " WHERE score > {n}", "SegmentScan"),
]

_AGG_STATEMENTS = [
    "SELECT COUNT(*) AS n, MIN(qty) AS lo, MAX(name) AS hi FROM t{where}",
    "SELECT name, COUNT(opt) AS n, SUM(qty) AS s FROM t{where} GROUP BY name",
    "SELECT opt, AVG(score) AS a, MAX(score) AS hi FROM t{where} "
    "GROUP BY opt",
    "SELECT t.name, SUM(t.qty) AS s, AVG(opt) AS a FROM t{where} "
    "GROUP BY t.name",
    "SELECT SUM(name) AS s FROM t{where}",
    "SELECT opt, AVG(name) AS a FROM t{where} GROUP BY opt",
    "SELECT name, qty, COUNT(*) AS n FROM t{where} GROUP BY name",
    "SELECT COUNT(nope) AS n FROM t{where}",
    "SELECT nope, COUNT(*) AS n FROM t{where} GROUP BY nope",
]


def _paths_db(rows, layout, dims=None, filler=_FILLER):
    """``t`` holding ``rows`` (late_rows_strategy tuples) plus ``filler``
    rows in one of the layouts: ``heap`` and ``indexed`` (hash on name,
    sorted on qty) keep every row in the tail, ``mixed`` freezes all but
    the last third of the generated rows.  With ``dims``, ``d``
    holds a filler row per filler name too, and is indexed on both its
    columns in the ``indexed`` layout."""
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
    db.create_table(schema)
    filled = [(f"f{i:02d}", 100 + i, None if i % 4 == 0 else i % 3,
               i - 30.5) for i in range(filler)]
    cut = len(rows) * 2 // 3 if layout == "mixed" else len(rows)
    for frozen, chunk in ((True, rows[:cut] + filled), (False, rows[cut:])):
        start = len(db._table("t"))
        db.run(lambda txn, chunk=chunk, start=start: txn.insert_many("t", [
            {"rid": start + i, "name": name, "qty": qty, "opt": opt,
             "score": score}
            for i, (name, qty, opt, score) in enumerate(chunk)]))
        if frozen and layout == "mixed":
            db.compact("t")
    if dims is not None:
        _load_dims(db, dims + [(name, i % 10) for i, (name, *_)
                               in enumerate(filled)], layout == "indexed")
    if layout == "indexed":
        if dims is not None:
            db.create_index("d", "grp", "hash")
        db.create_index("t", "name", "hash")
        db.create_index("t", "qty", "sorted")
    return db


def _outcome(db, sql, use_planner=True):
    """The result rows with their key order, or the error raised."""
    try:
        rows = execute_sql(db, sql, use_planner=use_planner)
    except (SqlError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return [list(r.items()) for r in rows]


def _folds_over(db, sql):
    """The operator right below the aggregate stage."""
    return execute_sql(db, f"EXPLAIN {sql}")[1]["plan"].split("(")[0].strip()


@given(
    rows=late_rows_strategy,
    path=st.sampled_from(_AGG_PATHS),
    n=st.integers(-5, 5), k=st.integers(0, 24),
    name=st.sampled_from(_NAMES),
)
@settings(max_examples=120, deadline=None)
def test_aggregates_match_naive_over_every_child(rows, path, n, k, name):
    layout, where, child = path
    db = _paths_db(rows, layout)
    where = where.format(n=n, k=k, name=name)
    for statement in _AGG_STATEMENTS:
        sql = statement.format(where=where)
        assert _folds_over(db, sql) == child, sql
        assert _outcome(db, sql) == _outcome(db, sql, False), sql
    if layout == "mixed" and len(rows) >= 3:
        assert db._table("t").tail_size


@given(
    rows=late_rows_strategy,
    dims=dim_strategy,
    join=st.sampled_from([("heap", "", "HashJoin"),
                          ("indexed", " WHERE t.rid = {k}",
                           "IndexNestedLoopJoin")]),
    k=st.integers(0, 24),
)
@settings(max_examples=60, deadline=None)
def test_join_aggregates_match_naive_over_both_joins(rows, dims, join, k):
    layout, where, child = join
    db = _paths_db(rows, layout, dims)
    where = where.format(k=k)
    for statement in [
        "SELECT grp, COUNT(*) AS n, SUM(t.qty) AS s, MIN(d.name) AS lo "
        "FROM t JOIN d ON t.name = d.name{where} GROUP BY grp",
        # an unqualified name both sides hold resolves to the left one
        "SELECT COUNT(*) AS n, MAX(name) AS hi, AVG(score) AS a "
        "FROM t JOIN d ON t.name = d.name{where}",
        "SELECT grp, qty, COUNT(*) AS n FROM t JOIN d ON t.name = d.name"
        "{where} GROUP BY grp",
        # joined on another column, the two names differ
        "SELECT d.name, COUNT(*) AS n, MAX(t.name) AS t, MIN(d.name) AS d, "
        "MIN(name) AS bare FROM t JOIN d ON t.opt = d.grp{where} "
        "GROUP BY d.name",
    ]:
        sql = statement.format(where=where)
        assert _folds_over(db, sql) == child, sql
        assert _outcome(db, sql) == _outcome(db, sql, False), sql


def test_aggregates_over_an_empty_table_match_naive():
    for layout in ("heap", "indexed", "mixed"):
        db = _paths_db([], layout, filler=0)
        for sql in ["SELECT COUNT(*) AS n, SUM(qty) AS s, MIN(name) AS lo "
                    "FROM t",
                    "SELECT name, COUNT(*) AS n, AVG(score) AS a FROM t "
                    "GROUP BY name",
                    "SELECT name, qty, COUNT(*) AS n FROM t GROUP BY name",
                    "SELECT qty, COUNT(*) AS n FROM t"]:
            assert _outcome(db, sql) == _outcome(db, sql, False), sql


def test_which_statements_record_predicate_feedback(monkeypatch):
    from repro.storage.rdbms.stats import StatisticsManager

    recorded = []
    real = StatisticsManager.record_predicate_feedback
    monkeypatch.setattr(
        StatisticsManager, "record_predicate_feedback",
        lambda self, table, *args: recorded.append(table)
        or real(self, table, *args))
    rows = [(_NAMES[i % 5], i % 7 - 3, i % 3, i / 4) for i in range(12)]
    join = "FROM t JOIN d ON t.name = d.name WHERE grp = 1 GROUP BY grp"
    for layout, sql, records in [
        # an aggregate stage records only over a child without a kernel
        ("heap", "SELECT COUNT(*) AS n FROM t WHERE score > 0", True),
        ("indexed", "SELECT name, COUNT(*) AS n FROM t WHERE name = 'f01' "
                    "GROUP BY name", True),
        ("mixed", "SELECT COUNT(*) AS n FROM t WHERE score > 0", False),
        ("heap", "SELECT COUNT(*) AS n FROM t", False),
        ("heap", f"SELECT grp, COUNT(*) AS n {join}", False),
        ("heap", "SELECT name FROM t WHERE score > 0", True),
        ("heap", "SELECT name FROM t WHERE score > 0 LIMIT 3", False),
        ("heap", "UPDATE t SET opt = 1 WHERE score > 0", True),
        ("heap", "DELETE FROM t", False),
    ]:
        db = _paths_db(rows, layout, dims=[])
        recorded.clear()
        execute_sql(db, sql)
        assert recorded == (["t"] if records else []), (layout, sql)
