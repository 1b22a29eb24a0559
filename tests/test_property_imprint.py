"""Column imprints (DESIGN.md §12): a segment's INT/FLOAT/BOOL column
keeps one bucket code per cell, and the scan kernel decides a conjunct
bucket by bucket with one ``bytes.translate``, comparing only the cells of
the literal's own bucket exactly.

The oracles: every kernel bitmap — over all of a segment, over a subset
of its positions and over a permutation of them (a group order) — equals
``eval_predicate`` cell by cell, or the kernel refuses (TypeError, the
row fallback) where the reference raises; and ORDER BY ... LIMIT k, which
walks the imprint's buckets from the winning end, equals the naive
interpreter's sort over several segments, tail rows and dead positions;
so does the top-k walk access path, where the planner takes it and where
a test forces it, on a snapshot and under 2PL, NaN keys included.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import facts_schema
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.planner import (Planner, ScanPredicate, SegmentScan,
                                         SelectPlan, _imprint_bitmap,
                                         _segment_selection, split_conjuncts)
from repro.storage.rdbms.segments import NAN_CODE, NULL_CODE, Segment
from repro.storage.rdbms.sql import (ColumnRef, Comparison, InPredicate,
                                     Literal, NullPredicate, SqlError,
                                     eval_predicate, execute_sql, parse_sql)
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.telemetry.report import render_report, summarize_trace

C = ColumnRef(None, "c")
OPS = ("=", "!=", "<", "<=", ">", ">=")
BIG = 2 ** 53

_INT_CELLS = st.one_of(
    st.none(), st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from([BIG - 1, BIG, BIG + 1, BIG + 2, -BIG - 1,
                     -(1 << 63), (1 << 63) - 1]))
_FLOAT_CELLS = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                0.5, -0.5, float(BIG), float(BIG + 2)]),
    st.floats(-100, 100), st.integers(-4, 4).map(float))
_CELLS = {ColumnType.INT: _INT_CELLS, ColumnType.FLOAT: _FLOAT_CELLS,
          ColumnType.BOOL: st.one_of(st.none(), st.booleans())}


def _wide(col_type, seed, n, spread):
    """``n`` seeded cells of ``spread`` distinct values at most: more than
    an imprint has buckets (several values share one) or few (each has
    its own, one-value buckets among them), with NULLs and NaN."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.05:
            out.append(None)
        elif roll < 0.07 and col_type is ColumnType.FLOAT:
            out.append(math.nan)
        elif col_type is ColumnType.INT:
            out.append(BIG + rng.randrange(spread))
        elif col_type is ColumnType.FLOAT:
            out.append(rng.randrange(spread) / 8 - 3.0)
        else:
            out.append(rng.random() < 0.5)
    return out


@st.composite
def columns(draw):
    col_type = draw(st.sampled_from(list(_CELLS)))
    if draw(st.booleans()):
        values = draw(st.lists(_CELLS[col_type], min_size=1, max_size=60))
        if draw(st.booleans()):  # all equal, or nearly
            values = [values[0]] * len(values)
    else:
        values = _wide(col_type, draw(st.integers(0, 10 ** 6)),
                       draw(st.integers(300, 1_500)),
                       draw(st.sampled_from([3, 40, 700, 10 ** 6])))
    return col_type, values


def _literals(values):
    """Literals around the column's values: each, its neighbours, ints
    above 2**53 as floats, bounds outside every value, NaN, NULL."""
    present = [v for v in values if v is not None]
    out = [None, math.nan, math.inf, -math.inf, 10 ** 30, -10 ** 30,
           float(BIG), BIG + 1, 0, -0.0, True]
    for v in present[:40]:
        if isinstance(v, float) and math.isnan(v):
            continue
        out += [v, v + 1, v - 1, float(v) if not isinstance(v, bool) else v]
        if isinstance(v, float) and math.isfinite(v):
            out += [math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    return out


@st.composite
def conjuncts(draw, values):
    literals = _literals(values)
    kind = draw(st.sampled_from(["cmp", "cmp", "cmp", "in", "null", "bad"]))
    if kind == "null":
        return NullPredicate(C, draw(st.booleans()))
    if kind == "in":
        picks = draw(st.lists(st.sampled_from(literals), max_size=5))
        return InPredicate(C, tuple(picks), draw(st.booleans()))
    lit = "x" if kind == "bad" else draw(st.sampled_from(literals))
    op = draw(st.sampled_from(OPS))
    if draw(st.booleans()):  # literal on the left: the op is flipped
        return Comparison(op, Literal(lit), C)
    return Comparison(op, C, Literal(lit))


def _reference(conjunct, cells, positions):
    """The positions ``eval_predicate`` keeps, or None where it raises."""
    try:
        return [p for p in positions
                if eval_predicate(conjunct, {"c": cells[p]})]
    except SqlError:
        return None


def _incomparable(conjunct):
    if isinstance(conjunct, InPredicate):
        return any(isinstance(v, str) for v in conjunct.values)
    if isinstance(conjunct, Comparison):
        lit = (conjunct.right if isinstance(conjunct.right, Literal)
               else conjunct.left).value
        return isinstance(lit, str)
    return False


def _segment(col_type, values):
    schema = TableSchema("t", (Column("c", col_type),))
    return Segment.from_rows(schema, [(i, {"c": v})
                                      for i, v in enumerate(values)])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_the_kernel_bitmap_equals_eval_predicate_cell_by_cell(data):
    col_type, values = data.draw(columns())
    segment = _segment(col_type, values)
    col = segment.columns["c"]
    cells = col.decoded()
    imprint = col.imprint()
    assert imprint is not None and len(imprint.codes) == len(values)
    n = len(values)
    subset = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    order = list(range(n))
    random.Random(data.draw(st.integers(0, 99))).shuffle(order)
    for _ in range(4):
        conjunct = data.draw(conjuncts(values))
        for positions in (None, subset):
            want = _reference(conjunct, cells,
                              range(n) if positions is None else positions)
            got = _segment_selection(segment, [conjunct], positions)
            if got is None:
                assert want is None or _incomparable(conjunct), conjunct
            else:
                assert want is not None and list(got) == want, conjunct
        # a group order reads the codes in its own order of positions
        want = _reference(conjunct, cells, order)
        try:
            bits = _imprint_bitmap(col, conjunct, order, imprint.at(order))
        except TypeError:
            assert want is None or _incomparable(conjunct), conjunct
        else:
            assert want is not None, conjunct
            assert [p for p, bit in zip(order, bits) if bit] == want


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_codes_order_the_buckets_and_reserve_nan_and_null(data):
    col_type, values = data.draw(columns())
    imprint = _segment(col_type, values).columns["c"].imprint()
    assert len(imprint.lows) <= NAN_CODE - 1
    assert imprint.lows == sorted(imprint.lows)
    buckets: dict[int, list] = {}
    for v, code in zip(values, imprint.codes):
        if v is None:
            assert code == NULL_CODE
        elif isinstance(v, float) and math.isnan(v):
            assert code == NAN_CODE
        else:
            assert code < NAN_CODE
            buckets.setdefault(code, []).append(v)
    codes = sorted(buckets)
    for lower, upper in zip(codes, codes[1:]):
        assert max(buckets[lower]) < min(buckets[upper])
    for j in imprint.points:  # a one-value bucket holds one value
        assert len(set(buckets.get(j, []))) <= 1


# ------------------------------------------------------------- ORDER BY


_KEYS = {ColumnType.INT: st.one_of(st.none(), st.integers(-6, 6),
                                   st.integers(-10 ** 4, 10 ** 4)),
         ColumnType.FLOAT: st.one_of(st.none(), st.sampled_from([0.0, -0.0]),
                                     st.integers(-6, 6).map(lambda v: v / 2),
                                     st.floats(-1e4, 1e4))}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_the_topk_walk_equals_the_reference_sort(data):
    """NaN keys are left out: they order against nothing, and a unit that
    holds one sorts every key as before."""
    col_type = data.draw(st.sampled_from(list(_KEYS)))
    keys = data.draw(st.lists(_KEYS[col_type], min_size=1, max_size=400))
    db = Database()
    db.create_table(TableSchema("t", (
        Column("id", ColumnType.INT, nullable=False), Column("v", col_type),
        Column("w", ColumnType.INT)), primary_key="id"))
    db.run(lambda t: t.insert_many("t", [
        {"id": i, "v": v, "w": i % 7} for i, v in enumerate(keys)]))
    db.compact("t", target_rows=data.draw(st.integers(8, 150)))
    n = len(keys)
    changes = data.draw(st.lists(st.tuples(
        st.sampled_from(["update", "delete", "insert"]), st.integers(0, n - 1),
        _KEYS[col_type]), max_size=12))

    def apply(t):
        for j, (kind, at, v) in enumerate(changes):
            if kind == "insert":
                t.insert("t", {"id": n + j, "v": v, "w": at % 7})
            elif t.get_by_pk("t", at) is not None:
                rid = t.get_by_pk("t", at).rid
                if kind == "delete":
                    t.delete("t", rid)
                else:
                    t.update("t", rid, {"v": v})
    db.run(apply)
    for _ in range(4):
        desc = " DESC" if data.draw(st.booleans()) else ""
        where = data.draw(st.sampled_from(
            ["", " WHERE w > 2", " WHERE v > 0", " WHERE v IS NOT NULL"]))
        k = data.draw(st.integers(1, 30))
        sql = f"SELECT id, v FROM t{where} ORDER BY v{desc} LIMIT {k}"
        assert execute_sql(db, sql) == execute_sql(db, sql,
                                                   use_planner=False), sql


# ------------------------------------------------------ the top-k walk

_WALK_KEYS = {
    ColumnType.INT: st.one_of(st.none(), st.integers(-6, 6),
                              st.integers(-10 ** 4, 10 ** 4)),
    ColumnType.FLOAT: st.one_of(
        st.none(), st.just(math.nan),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
        st.integers(-6, 6).map(lambda v: v / 2), st.floats(-1e4, 1e4)),
    ColumnType.BOOL: st.one_of(st.none(), st.booleans())}
_WALK_LITERALS = {
    ColumnType.INT: st.integers(-7, 7).map(str),
    ColumnType.FLOAT: st.sampled_from(["0.0", "-0.0", "0.5", "-2.5", "3",
                                       "1000.0", "-1e9"]),
    ColumnType.BOOL: st.sampled_from(["TRUE", "FALSE"])}


@st.composite
def _where(draw, col_type):
    """A WHERE over the order key ``v``, an INT ``w`` and a TEXT ``s``:
    comparisons, IN, IS [NOT] NULL and LIKE under AND and OR."""
    def atom():
        kind = draw(st.sampled_from(["v", "v", "w", "in", "null", "like"]))
        if kind == "v":
            ops = ["=", "!="] if col_type is ColumnType.BOOL else OPS
            return (f"v {draw(st.sampled_from(ops))} "
                    f"{draw(_WALK_LITERALS[col_type])}")
        if kind == "w":
            return f"w {draw(st.sampled_from(OPS))} {draw(st.integers(0, 6))}"
        if kind == "in":
            values = draw(st.lists(_WALK_LITERALS[col_type], min_size=1,
                                   max_size=3))
            return f"v IN ({', '.join(values)})"
        if kind == "null":
            return (f"{draw(st.sampled_from(['v', 'w', 's']))} IS "
                    f"{draw(st.sampled_from(['', 'NOT ']))}NULL")
        return f"s LIKE '{draw(st.sampled_from(['a%', 'b', '%c']))}'"

    clause = ""
    for _ in range(draw(st.integers(0, 3))):
        term = atom()
        if draw(st.booleans()):
            term = f"({term} OR {atom()})"
        clause = term if not clause else f"{clause} AND {term}"
    return f" WHERE {clause}" if clause else ""


def _walked(db, sql, txn):
    """``sql``'s rows through the top-k walk whatever it costs, or None
    when the statement has no walk."""
    stmt = parse_sql(sql)
    prepared = Planner(db).prepare(stmt)
    if prepared.walk is None or stmt.limit < 0:
        return None
    scan = SegmentScan("t", ScanPredicate(split_conjuncts(stmt.where),
                                          prepared.schema, "t"),
                       (prepared.walk, stmt.order_desc, stmt.limit))
    return SelectPlan(scan, stmt, True, None, prepared.output).execute(txn)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_topk_access_path_reads_as_the_reference(data):
    """ORDER BY an INT, FLOAT or BOOL key (NULL, NaN, -0.0, ties) LIMIT
    0..n + 2 over 1-3 segments with dead positions and tail rows, read
    on a snapshot and under 2PL beside an open writer: the planned rows,
    and the rows of the walk whatever the planner chose, are the naive
    interpreter's row for row (repr: -0.0 is not 0.0, NaN is NaN)."""
    col_type = data.draw(st.sampled_from(list(_WALK_KEYS)))
    cells = _WALK_KEYS[col_type]
    if data.draw(st.booleans()):  # a few values, many ties
        cells = st.sampled_from(data.draw(st.lists(cells, min_size=1,
                                                   max_size=4)))
    keys = data.draw(st.lists(cells, min_size=1, max_size=250))
    n = len(keys)
    db = Database()
    db.create_table(TableSchema("t", (
        Column("id", ColumnType.INT, nullable=False), Column("v", col_type),
        Column("w", ColumnType.INT), Column("s", ColumnType.TEXT)),
        primary_key="id"))

    def row(i, v):
        return {"id": i, "v": v, "w": None if i % 11 == 3 else i % 7,
                "s": ["ab", "bc", None, "ac", "b"][i % 5]}

    db.run(lambda t: t.insert_many("t", [row(i, v)
                                         for i, v in enumerate(keys)]))
    segments = data.draw(st.integers(1, 3))
    db.compact("t", target_rows=-(-n // segments))
    changes = st.lists(st.tuples(
        st.sampled_from(["update", "delete", "insert"]),
        st.integers(0, n - 1), _WALK_KEYS[col_type]), max_size=10)

    def apply(t, todo, first_id):
        for j, (kind, at, v) in enumerate(todo):
            if kind == "insert":
                t.insert("t", row(first_id + j, v))
            elif t.get_by_pk("t", at) is not None:
                rid = t.get_by_pk("t", at).rid
                if kind == "delete":
                    t.delete("t", rid)
                else:
                    t.update("t", rid, {"v": v, "w": j % 7})

    db.run(lambda t: apply(t, data.draw(changes), n))
    writer = db.begin()  # uncommitted: a 2PL read in it sees them
    apply(writer, data.draw(changes), n + 100)
    try:
        for _ in range(3):
            items, order = data.draw(st.sampled_from(
                [("id, v", "v"), ("*", "v"), ("v AS k, id", "k")]))
            desc = " DESC" if data.draw(st.booleans()) else ""
            k = data.draw(st.one_of(st.integers(0, 4),
                                    st.integers(0, n + 2)))
            sql = (f"SELECT {items} FROM t{data.draw(_where(col_type))} "
                   f"ORDER BY {order}{desc} LIMIT {k}")
            snapshot = data.draw(st.booleans())
            txn = db.begin_snapshot() if snapshot else writer
            try:
                want = repr(execute_sql(db, sql, txn, use_planner=False))
                assert repr(execute_sql(db, sql, txn)) == want, sql
                walked = _walked(db, sql, txn)
                assert walked is None or repr(walked) == want, sql
            finally:
                if snapshot:
                    txn.commit()
    finally:
        writer.abort()


def test_nan_keys_read_as_the_reference_over_segments_and_tail():
    """A NaN key orders against nothing, so the reference's one top-k pass
    keeps what the order it meets rows in decides; seeded FLOAT keys, one
    in six NaN, over 1-3 segments and tail rows, read as it does."""
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(5, 120)

        def key():
            roll = rng.random()
            return None if roll < 0.1 else math.nan if roll < 0.25 \
                else rng.choice([0.0, -0.0, 1.5, -2.0, rng.uniform(-9, 9)])

        db = Database()
        db.create_table(TableSchema("t", (
            Column("id", ColumnType.INT, nullable=False),
            Column("v", ColumnType.FLOAT), Column("w", ColumnType.INT)),
            primary_key="id"))
        db.run(lambda t: t.insert_many("t", [
            {"id": i, "v": key(), "w": i % 7} for i in range(n)]))
        db.compact("t", target_rows=-(-n // rng.randrange(1, 4)))
        db.run(lambda t: t.insert_many("t", [
            {"id": n + j, "v": key(), "w": j % 7}
            for j in range(rng.randrange(0, 5))]))
        for desc in ("", " DESC"):
            for where in ("", " WHERE w > 1"):
                k = rng.choice([1, 3, 10])
                sql = f"SELECT id, v FROM t{where} ORDER BY v{desc} LIMIT {k}"
                want = repr(execute_sql(db, sql, use_planner=False))
                assert repr(execute_sql(db, sql)) == want, (seed, sql)
                snap = db.begin_snapshot()
                try:
                    assert repr(_walked(db, sql, snap)) == want, (seed, sql)
                finally:
                    snap.commit()


def _serving_facts():
    """A ``facts`` table shaped like the serving workloads': 2,000
    entities x 10 attributes, values distinct per attribute, one
    compacted segment, indexed on ``entity`` and ``attribute``."""
    db = Database()
    db.create_table(facts_schema())
    db.create_index("facts", "entity")
    db.create_index("facts", "attribute")
    rng = random.Random(7)
    values = {a: rng.sample(range(100_000), 2_000) for a in range(10)}
    db.run(lambda t: t.insert_many("facts", [
        {"fact_id": e * 10 + a, "entity": f"entity_{e:05d}",
         "attribute": f"attr_{a:02d}", "value_text": None,
         "value_num": values[a][e] / 100.0,
         "confidence": rng.randrange(300, 1000) / 1000.0,
         "doc_id": f"doc_{e % 977}"}
        for e in range(2_000) for a in range(10)]))
    db.compact("facts")
    return db


def test_the_planner_walks_for_a_range_topk_and_probes_for_an_entity():
    db = _serving_facts()
    for threshold in (0, 450, 899):
        sql = ("SELECT entity, value_num FROM facts WHERE attribute = "
               f"'attr_03' AND value_num > {threshold} "
               "ORDER BY value_num DESC LIMIT 10")
        plan = [r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}")]
        assert plan[0] == "TopK(key=value_num, desc, k=10)"
        assert plan[2].startswith(
            "    SegmentScan(facts, pred=attribute = 'attr_03' AND "
            f"value_num > {threshold}, walk=value_num desc)"), plan
        assert execute_sql(db, sql) == execute_sql(db, sql,
                                                   use_planner=False)
    sql = ("SELECT entity, value_num FROM facts WHERE entity = "
           "'entity_00042' ORDER BY value_num DESC LIMIT 3")
    plan = [r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}")]
    assert plan[2].startswith(
        "    IndexLookup(facts.entity = 'entity_00042' via hash index)"
        "  [rows~10 "), plan
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False)
    # a segment with dead positions reaches a walk as a list of its live
    # ones, built whole: the walk costs the segment, and the index wins
    db.run(lambda t: t.update("facts", 5, {"value_num": 1.0}))
    sql = ("SELECT entity, value_num FROM facts WHERE attribute = "
           "'attr_03' AND value_num > 450 ORDER BY value_num DESC LIMIT 10")
    plan = [r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}")]
    assert "IndexLookup(facts.attribute = 'attr_03'" in plan[-1], plan
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False)


# ---------------------------------------------------------- observability


def test_an_imprint_is_built_once_per_column_and_counted():
    db = Database()
    db.create_table(TableSchema("t", (
        Column("id", ColumnType.INT, nullable=False),
        Column("v", ColumnType.FLOAT)), primary_key="id"))
    db.run(lambda t: t.insert_many("t", [
        {"id": i, "v": (i * 37 % 1000) / 10} for i in range(3_000)]))
    db.compact("t", target_rows=1_000)  # three segments
    registry = MetricsRegistry()
    with use_registry(registry):
        for bound in (5, 50.05, 99.5):
            rows = execute_sql(db, f"SELECT id FROM t WHERE v > {bound}")
            assert len(rows) == sum((i * 37 % 1000) / 10 > bound
                                    for i in range(3_000))
    assert registry.get("segments.imprints_built") == 3  # v's, per segment
    rechecked = registry.get("planner.kernel.cells_rechecked")
    assert 0 < rechecked < 3 * 3_000 / 10
    report = render_report(summarize_trace([]), registry.snapshot())
    assert "imprints_built=3" in report
    assert f"cells_rechecked={rechecked:.0f}" in report
