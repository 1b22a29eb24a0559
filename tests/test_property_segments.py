"""Property tests for columnar segments: encode/decode round-trips under
random values (including NULLs, NaN-free floats, out-of-int64 ints, and
dictionary overflow), plus a differential suite — random tables compacted
into segments must answer aggregate queries byte-identically to the naive
row-at-a-time oracle."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.segments import ColumnSegment, Segment
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema

_INTS = st.one_of(st.none(),
                  st.integers(min_value=-(2 ** 70), max_value=2 ** 70))
_FLOATS = st.one_of(st.none(),
                    st.floats(allow_nan=False, allow_infinity=False))
_TEXTS = st.one_of(st.none(), st.text(max_size=12))
_BOOLS = st.one_of(st.none(), st.booleans())


# --------------------------------------------------------- encode round-trip


@given(values=st.lists(_INTS, max_size=120))
@settings(max_examples=60, deadline=None)
def test_int_column_roundtrip(values):
    col = ColumnSegment.encode("c", ColumnType.INT, values)
    assert col.decoded() == values
    assert [col.value_at(i) for i in range(len(values))] == values
    assert col.null_count == sum(1 for v in values if v is None)


@given(values=st.lists(_FLOATS, max_size=120))
@settings(max_examples=60, deadline=None)
def test_float_column_roundtrip(values):
    col = ColumnSegment.encode("c", ColumnType.FLOAT, values)
    decoded = col.decoded()
    assert len(decoded) == len(values)
    for got, want in zip(decoded, values):
        assert got == want and type(got) is type(want)


@given(values=st.lists(_TEXTS, max_size=120), dict_max=st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_text_column_roundtrip_any_dict_budget(values, dict_max):
    col = ColumnSegment.encode("c", ColumnType.TEXT, values,
                               dict_max=dict_max)
    assert col.decoded() == values
    distinct = len({v for v in values if v is not None})
    assert col.encoding == ("dict" if distinct <= dict_max else "raw")


@given(values=st.lists(_BOOLS, max_size=120))
@settings(max_examples=60, deadline=None)
def test_bool_column_roundtrip_is_real_bools(values):
    col = ColumnSegment.encode("c", ColumnType.BOOL, values)
    decoded = col.decoded()
    assert decoded == values
    assert all(v is None or isinstance(v, bool) for v in decoded)


@given(data=st.data(),
       col_type=st.sampled_from([ColumnType.INT, ColumnType.FLOAT,
                                 ColumnType.TEXT, ColumnType.BOOL]),
       dict_max=st.integers(1, 20))
@settings(max_examples=120, deadline=None)
def test_gather_and_null_flags_agree_with_value_at(data, col_type, dict_max):
    values = data.draw(st.lists(
        {ColumnType.INT: _INTS, ColumnType.FLOAT: _FLOATS,
         ColumnType.TEXT: _TEXTS, ColumnType.BOOL: _BOOLS}[col_type],
        min_size=1, max_size=60))
    col = ColumnSegment.encode("c", col_type, values, dict_max=dict_max)
    positions = data.draw(st.lists(st.integers(0, len(values) - 1),
                                   max_size=40))
    want = [col.value_at(i) for i in positions]
    got = col.gather(positions)
    assert got == want and [type(v) for v in got] == [type(v) for v in want]
    nulls = [i for i, v in enumerate(values) if v is None]
    assert col.null_positions() == nulls
    flags = col.null_flags(positions)
    assert flags == (None if not nulls
                     else [values[i] is None for i in positions])


@given(values=st.lists(_INTS, min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_zone_map_bounds_are_exact(values):
    col = ColumnSegment.encode("c", ColumnType.INT, values)
    non_null = [v for v in values if v is not None]
    zone = col.zone_map()
    assert zone["count"] == len(values)
    assert zone["null_count"] == len(values) - len(non_null)
    assert zone["min"] == (min(non_null) if non_null else None)
    assert zone["max"] == (max(non_null) if non_null else None)


@given(rows=st.lists(st.tuples(_INTS, _TEXTS, _FLOATS), max_size=60),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_segment_iter_rows_roundtrip_shuffled_rids(rows, seed):
    import random
    schema = TableSchema(
        "t",
        (Column("id", ColumnType.INT, nullable=False),
         Column("v", ColumnType.INT),
         Column("s", ColumnType.TEXT),
         Column("f", ColumnType.FLOAT)),
        primary_key="id",
    )
    items = [(rid, {"id": rid, "v": v, "s": s, "f": f})
             for rid, (v, s, f) in enumerate(rows)]
    random.Random(seed).shuffle(items)
    seg = Segment.from_rows(schema, items, dict_max=8)
    got = list(seg.iter_rows())
    want = sorted(((rid, vals) for rid, vals in items), key=lambda kv: kv[0])
    assert got == want


# --------------------------------------------------------- differential suite

_DIFF_QUERIES = [
    "SELECT COUNT(*), COUNT(v), COUNT(s) FROM t",
    "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
    "SELECT SUM(f), AVG(f), MIN(f), MAX(f) FROM t",
    "SELECT MIN(s), MAX(s) FROM t",
    "SELECT s, COUNT(*), SUM(v), MIN(f) FROM t GROUP BY s",
    "SELECT COUNT(*) FROM t WHERE v > 0",
    "SELECT SUM(v) FROM t WHERE s = 'a' AND v < 50",
    "SELECT s, COUNT(*) FROM t WHERE v IS NOT NULL GROUP BY s",
    "SELECT COUNT(*) FROM t WHERE s IN ('a', 'b')",
    "SELECT COUNT(*) FROM t WHERE s LIKE 'a%'",
    "SELECT * FROM t ORDER BY id LIMIT 10",
    # late materialization: only the chosen rows' projected columns decode
    "SELECT s, v FROM t WHERE v > 0 ORDER BY f DESC LIMIT 3",
    "SELECT id FROM t WHERE s = 'a' ORDER BY v",
    "SELECT v AS w, s FROM t ORDER BY w LIMIT -1",
    "SELECT s FROM t ORDER BY v LIMIT 4",
    "SELECT f, id FROM t WHERE s IS NULL OR v < 0 LIMIT 5",
    "SELECT s, f FROM t WHERE id = 3",
]

_diff_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=-100, max_value=100)),
        st.one_of(st.none(), st.sampled_from(["a", "b", "ab", "c"])),
        st.one_of(st.none(), st.floats(min_value=-1e6, max_value=1e6,
                                       allow_nan=False)),
    ),
    min_size=0, max_size=40,
)


def _build(rows, target_rows):
    db = Database()
    db.create_table(TableSchema(
        "t",
        (Column("id", ColumnType.INT, nullable=False),
         Column("v", ColumnType.INT),
         Column("s", ColumnType.TEXT),
         Column("f", ColumnType.FLOAT)),
        primary_key="id",
    ))

    def insert(txn):
        for i, (v, s, f) in enumerate(rows):
            txn.insert("t", {"id": i, "v": v, "s": s, "f": f})

    db.run(insert)
    db._table("t").compact(target_rows=target_rows)
    return db


@given(rows=_diff_rows, target_rows=st.integers(min_value=1, max_value=16))
@settings(max_examples=30, deadline=None)
def test_segmented_execution_matches_naive_oracle(rows, target_rows):
    db = _build(rows, target_rows)
    for sql in _DIFF_QUERIES:
        fast = execute_sql(db, sql, use_planner=True)
        slow = execute_sql(db, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), sql


@given(rows=_diff_rows, target_rows=st.integers(min_value=1, max_value=16),
       extra=st.lists(st.tuples(
           st.one_of(st.none(), st.integers(min_value=-100, max_value=100)),
           st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
           st.one_of(st.none(), st.floats(min_value=-1e6, max_value=1e6,
                                          allow_nan=False))),
           max_size=10))
@settings(max_examples=20, deadline=None)
def test_mixed_segment_and_tail_matches_oracle(rows, target_rows, extra):
    db = _build(rows, target_rows)

    def insert(txn):
        for j, (v, s, f) in enumerate(extra):
            txn.insert("t", {"id": len(rows) + j, "v": v, "s": s, "f": f})

    db.run(insert)
    for sql in _DIFF_QUERIES:
        fast = execute_sql(db, sql, use_planner=True)
        slow = execute_sql(db, sql, use_planner=False)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(slow, sort_keys=True), sql
