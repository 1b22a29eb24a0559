"""Property tests for columnar segments: encode/decode round-trips under
random values (including NULLs, NaN-free floats, out-of-int64 ints, and
dictionary overflow), a differential suite — random tables compacted
into segments must answer aggregate queries byte-identically to the naive
row-at-a-time oracle — and the splice: a segment a compaction builds by
copying another's kept rows is, image for image, what a fresh encode of
the same rows makes."""

import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.segments import (DICT_MAX_ENTRIES, ColumnSegment,
                                          Segment)
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.table import (SPLICE_PIECE_ROWS, _cuts,
                                       _live_between, _stretches)
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.segment_checks import (assert_segments_canonical,
                                  every_chunk_spliced, imprint_codes)

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


# ------------------------------------------------------------------ splice

_SPLICE_SCHEMA = TableSchema("t", (
    Column("id", ColumnType.INT, nullable=False),
    Column("i", ColumnType.INT), Column("f", ColumnType.FLOAT),
    Column("b", ColumnType.BOOL), Column("s", ColumnType.TEXT),
    Column("n", ColumnType.TEXT)), primary_key="id")

#: Cells that make a splice decide: NULLs, ints past int64 (``raw``),
#: NaN and zeros of both signs (zone-map bounds), a few strings (each
#: value's first and last cell), and ``n``, a column of NULLs only.
_SPLICE_CELLS = {
    "i": st.one_of(st.none(), st.integers(-3, 3),
                   st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 63,
                                    -2 ** 70])),
    "f": st.one_of(st.none(), st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -1.5]),
        st.floats(-10, 10)),
    "b": st.one_of(st.none(), st.booleans()),
    "s": st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e"])),
    "n": st.none(),
}


@st.composite
def _splice_values(draw):
    return {name: draw(cells) for name, cells in _SPLICE_CELLS.items()}


def _image(segment):
    return json.dumps(segment.image(), sort_keys=True)


@given(data=st.data(), dict_max=st.integers(1, 6), imprinted=st.booleans())
@settings(max_examples=300, deadline=None)
def test_a_spliced_segment_is_a_fresh_encode(data, dict_max, imprinted):
    """Any subset of a segment's rows kept, new rows between them: the
    splice equals ``from_columns`` of the same rows, and an imprint built
    before it is carried with each cell coded as its bounds say."""
    old = data.draw(st.lists(_splice_values(), min_size=1, max_size=40))
    n = len(old)
    segment = Segment.from_columns(
        _SPLICE_SCHEMA, [10 * p for p in range(n)],
        (list(range(n)) if name == "id"
         else [values[name] for values in old]
         for name in _SPLICE_SCHEMA.column_names), dict_max=dict_max)
    if imprinted:
        for name in ("i", "f", "b"):
            segment.columns[name].imprint()
    kept = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    added = sorted(data.draw(st.lists(st.tuples(
        st.integers(0, n), _splice_values()), max_size=8)),
        key=lambda item: item[0])
    pieces, rows = [], []  # the splice's input, and the rows it stands for
    for p in range(n + 1):
        new = [(10 * p - 9 + k, {**values, "id": 1000 + k})
               for k, (at, values) in enumerate(added) if at == p]
        if new:
            pieces.append(new)
            rows += new
        if p < n and kept[p]:
            if pieces and isinstance(pieces[-1], range) \
                    and pieces[-1].stop == p:
                pieces[-1] = range(pieces[-1].start, p + 1)
            else:
                pieces.append(range(p, p + 1))
            rows.append((10 * p, {**old[p], "id": p}))
    spliced = segment.spliced(pieces, dict_max=dict_max)
    fresh = Segment.from_columns(
        _SPLICE_SCHEMA, [rid for rid, _ in rows],
        ([values[name] for _, values in rows]
         for name in _SPLICE_SCHEMA.column_names), dict_max=dict_max)
    assert _image(spliced) == _image(fresh)
    assert list(spliced.iter_rows()) == list(fresh.iter_rows()) or any(
        values["f"] != values["f"] for _, values in rows)  # (NaN != NaN)
    for name in ("i", "f", "b"):
        imprint = spliced.columns[name]._imprint
        if imprint is not None:
            assert imprinted
            assert imprint.codes == imprint_codes(spliced.columns[name],
                                                  imprint.lows)


_DML_SCHEMA = TableSchema("t", (
    Column("id", ColumnType.INT, nullable=False),
    Column("i", ColumnType.INT), Column("f", ColumnType.FLOAT),
    Column("b", ColumnType.BOOL), Column("s", ColumnType.TEXT),
    Column("n", ColumnType.TEXT)), primary_key="id")

_dml = st.lists(st.tuples(
    st.sampled_from(["insert", "update", "delete", "delete_first"]),
    st.integers(0, 10_000), _splice_values(),
    st.sampled_from(["i", "f", "b", "s"])), max_size=8)


@given(rows=st.lists(_splice_values(), min_size=1, max_size=40),
       target_rows=st.sampled_from([3, 8, 20, 1_000]),
       rounds=st.lists(st.tuples(_dml, st.sampled_from([3, 8, 20, 1_000]),
                                 st.booleans()), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_a_compaction_after_random_writes_is_a_fresh_encode(
        rows, target_rows, rounds):
    """Random inserts, updates and deletes (the first live row among
    them: a dictionary's first occurrence), each round compacted at its
    own ``target_rows``, some after reads that build imprints: every
    segment is what a fresh encode of its rows makes (JSON image), every
    imprint codes each cell as its bounds say, and reads stay the
    naive interpreter's."""
    db = Database()
    db.create_table(_DML_SCHEMA)
    next_id = len(rows)
    db.run(lambda t: t.insert_many("t", [{**values, "id": k}
                                         for k, values in enumerate(rows)]))
    db.compact("t", target_rows=target_rows)
    for ops, target_rows, read in rounds:
        if read:  # imprints on i, f and b, built before the writes
            for sql in ("SELECT id FROM t WHERE i > 0",
                        "SELECT id FROM t WHERE f < 1.0",
                        "SELECT id FROM t WHERE b = TRUE"):
                execute_sql(db, sql)

        def apply(t):
            nonlocal next_id
            for kind, pick, values, column in ops:
                live = db._table("t").rids()
                if kind == "insert" or not live:
                    t.insert("t", {**values, "id": next_id})
                    next_id += 1
                elif kind == "update":
                    t.update("t", live[pick % len(live)],
                             {column: values[column]})
                else:
                    t.delete("t", live[0 if kind == "delete_first"
                                       else pick % len(live)])
        db.run(apply)
        with every_chunk_spliced():  # (its few rows copied, not encoded)
            db.compact("t", target_rows=target_rows)
        assert_segments_canonical(db._table("t"))
    for sql in ("SELECT * FROM t ORDER BY id",
                "SELECT s, COUNT(*), MIN(f), MAX(i) FROM t GROUP BY s"):
        assert repr(execute_sql(db, sql)) == repr(
            execute_sql(db, sql, use_planner=False)), sql


def _one_segment(values_by_column):
    """A database whose table ``t`` is one compacted segment of these
    columns' values (``id`` added)."""
    columns = list(values_by_column)
    n = len(values_by_column[columns[0]])
    types = {"i": ColumnType.INT, "f": ColumnType.FLOAT,
             "b": ColumnType.BOOL, "s": ColumnType.TEXT}
    db = Database()
    db.create_table(TableSchema("t", (
        Column("id", ColumnType.INT, nullable=False),
        *(Column(name, types[name]) for name in columns)), primary_key="id"))
    db.run(lambda t: t.insert_many("t", [
        {"id": k, **{name: values_by_column[name][k] for name in columns}}
        for k in range(n)]))
    db.compact("t")
    return db


def _copied(db, write):
    """``write``'s SQL statements, then a compaction: the rows it copied."""
    registry = MetricsRegistry()
    with use_registry(registry), every_chunk_spliced():
        for sql in write:
            execute_sql(db, sql)
        db.compact("t")
    assert_segments_canonical(db._table("t"))
    return registry.get("segments.rows_copied")


def test_a_splice_keeps_each_case_a_fresh_encode_would_decide_otherwise():
    """One segment, a few writes, one compaction that copies the rest:
    a removed first occurrence reorders the dictionary, a removed last
    cell drops its value, a removed bound (a ``-0.0`` among zeros, a NaN,
    the maximum) is recomputed and so is a bound a new ``-0.0`` before
    an equal ``0.0`` takes, an int past int64 turns the column ``raw``
    and back, and a dictionary passes ``dict_max`` and comes back under
    it."""
    db = _one_segment({"s": ["x", "y", "x", "z", "y"] * 4,
                       "f": [0.0, -0.0, 2.5, math.nan, 1.0] * 4,
                       "i": [1, 2, 3, 4, 5] * 4})
    assert _copied(db, ["DELETE FROM t WHERE id = 0"]) == 19  # x moves
    column = db._table("t").segments[0].columns["s"]
    assert column.dictionary == ["y", "x", "z"]
    assert _copied(db, ["DELETE FROM t WHERE s = 'z' AND id <> 18",
                        "UPDATE t SET s = 'w' WHERE id = 18"]) == 15
    assert db._table("t").segments[0].columns["s"].dictionary == [
        "y", "x", "w"]
    assert _copied(db, ["DELETE FROM t WHERE id = 18"]) == 15  # a NaN
    assert _copied(db, ["DELETE FROM t WHERE f = 2.5 AND id < 10"]) == 13
    assert _copied(db, [f"UPDATE t SET i = {2 ** 64} WHERE id = 1"]) == 12
    segment = db._table("t").segments[0]
    assert segment.columns["i"].encoding == "raw"
    assert repr(segment.columns["f"].min_value) == "-0.0"  # (id 1's)
    assert _copied(db, ["DELETE FROM t WHERE id = 1"]) == 12
    segment = db._table("t").segments[0]
    assert segment.columns["i"].encoding == "int"
    assert repr(segment.columns["f"].min_value) == "0.0"  # (id 5's)
    assert _copied(db, ["UPDATE t SET f = -0.0 WHERE id = 4"]) == 11
    segment = db._table("t").segments[0]  # (a new zero before the bound)
    assert repr(segment.columns["f"].min_value) == "-0.0"
    rng = random.Random(5)
    wide = _one_segment({  # one value more than a dictionary holds, ...
        "s": [f"v{k}" for k in range(DICT_MAX_ENTRIES)] + ["v0"],
        "f": [rng.random() for _ in range(DICT_MAX_ENTRIES + 1)]})
    assert _copied(wide, ["UPDATE t SET s = 'past' WHERE id = "
                          f"{DICT_MAX_ENTRIES}"]) == DICT_MAX_ENTRIES
    assert wide._table("t").segments[0].columns["s"].encoding == "raw"
    assert _copied(wide, [f"DELETE FROM t WHERE id = {DICT_MAX_ENTRIES}"]) \
        == DICT_MAX_ENTRIES  # ... and back
    assert wide._table("t").segments[0].columns["s"].encoding == "dict"
    # a new cell before the first cell of a value whose code is not next
    # to the removed cell's: an old value's, then a new value's
    for cells, value, dictionary in (
            (["a", "b", "a", "c", "d"] * 4, "d", ["a", "b", "d", "c"]),
            (["a", "b", "a", "d"] * 5, "w", ["a", "b", "w", "d"])):
        db = _one_segment({"s": cells})
        assert _copied(db, [f"UPDATE t SET s = '{value}' WHERE id = 2"]) \
            == 19
        assert db._table("t").segments[0].columns["s"].dictionary \
            == dictionary


@given(n=st.integers(1, 60), data=st.data())
def test_the_piece_rule_counts_stretches_of_dead_rows(n, data):
    """What the piece rule counts before a chunk is cut is one less than
    the stretches it is cut into: a run of dead positions cuts once."""
    flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    dead = [p for p in range(n) if flags[p]]
    start = data.draw(st.integers(0, n - 1))
    live = _live_between(dead, start, data.draw(st.integers(start + 1, n)))
    if live:
        assert _cuts(dead, live) \
            == len(_stretches(dead, live[0], live[-1] + 1)) - 1


def test_a_chunk_cut_into_short_pieces_is_encoded_afresh():
    """A compaction splices a chunk only when its pieces average at
    least ``SPLICE_PIECE_ROWS`` kept rows; past that, a piece's slicing
    costs more than encoding its rows, and the chunk is encoded afresh.
    A stretch of dead rows cuts once, however long it is.  Either way
    the segment is what a fresh encode makes."""
    for rows, copied in ((2 * SPLICE_PIECE_ROWS + 1, 2 * SPLICE_PIECE_ROWS),
                         (2 * SPLICE_PIECE_ROWS, 0)):
        db = _one_segment({"i": list(range(rows)),
                           "s": [f"v{k % 3}" for k in range(rows)]})
        registry = MetricsRegistry()
        with use_registry(registry):  # two pieces around the dead row
            execute_sql(db, f"DELETE FROM t WHERE id = {rows // 2}")
            db.compact("t")
        assert registry.get("segments.rows_frozen") == rows - 1
        assert registry.get("segments.rows_copied") == copied, rows
        assert_segments_canonical(db._table("t"))
    db = _one_segment({"i": list(range(64))})
    with use_registry(registry := MetricsRegistry()):  # one-row stretches
        execute_sql(db, "DELETE FROM t WHERE id IN ("
                    + ", ".join(str(k) for k in range(1, 64, 2)) + ")")
        db.compact("t")
    assert registry.get("segments.rows_copied") == 0
    assert_segments_canonical(db._table("t"))
    db = _one_segment({"i": list(range(64))})
    with use_registry(registry := MetricsRegistry()):  # one dead stretch
        execute_sql(db, "DELETE FROM t WHERE id >= 16 AND id < 48")
        db.compact("t")
    assert registry.get("segments.rows_copied") == 32
    assert_segments_canonical(db._table("t"))
