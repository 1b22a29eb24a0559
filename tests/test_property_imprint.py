"""Column imprints (DESIGN.md §12): a segment's INT/FLOAT/BOOL column
keeps one bucket code per cell, and the scan kernel decides a conjunct
bucket by bucket with one ``bytes.translate``, comparing only the cells of
the literal's own bucket exactly.

The oracles: every kernel bitmap — over all of a segment, over a subset
of its positions and over a permutation of them (a group order) — equals
``eval_predicate`` cell by cell, or the kernel refuses (TypeError, the
row fallback) where the reference raises; and ORDER BY ... LIMIT k, which
walks the imprint's buckets from the winning end, equals the naive
interpreter's sort over several segments, tail rows and dead positions.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.planner import _imprint_bitmap, _segment_selection
from repro.storage.rdbms.segments import NAN_CODE, NULL_CODE, Segment
from repro.storage.rdbms.sql import (ColumnRef, Comparison, InPredicate,
                                     Literal, NullPredicate, SqlError,
                                     eval_predicate, execute_sql)
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
