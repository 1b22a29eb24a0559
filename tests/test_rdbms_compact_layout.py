"""Compaction builds segments a column at a time (DESIGN.md §12); the
layout must be byte for byte what the row-at-a-time compaction produced,
because WAL replay of a ``compact`` record rebuilds it.  The old bodies
live on here as the reference."""

import copy
from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.segments import (DICT_MAX_ENTRIES, ColumnSegment,
                                          Segment)
from repro.storage.rdbms.table import HeapTable
from repro.storage.rdbms.types import Column, ColumnType, TableSchema

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


# ------------------------------------------- the reference (parent commit)


def encode_reference(name, col_type, values, dict_max=DICT_MAX_ENTRIES):
    count = len(values)
    nulls = None
    null_count = 0
    for i, v in enumerate(values):
        if v is None:
            if nulls is None:
                nulls = bytearray((count + 7) // 8)
            nulls[i >> 3] |= 1 << (i & 7)
            null_count += 1
    non_null = [v for v in values if v is not None]
    min_value = min(non_null) if non_null else None
    max_value = max(non_null) if non_null else None

    def raw():
        return ColumnSegment(name, "raw", list(values), None, nulls,
                             null_count, count, min_value, max_value)

    if col_type is ColumnType.INT:
        if any(not (_INT64_MIN <= v <= _INT64_MAX) for v in non_null):
            return raw()
        data = array("q", (0 if v is None else v for v in values))
        return ColumnSegment(name, "int", data, None, nulls,
                             null_count, count, min_value, max_value)
    if col_type is ColumnType.FLOAT:
        if any(v != v for v in non_null):
            min_value = max_value = None
        data = array("d", (0.0 if v is None else v for v in values))
        return ColumnSegment(name, "float", data, None, nulls,
                             null_count, count, min_value, max_value)
    if col_type is ColumnType.BOOL:
        data = array("b", (0 if not v else 1 for v in values))
        return ColumnSegment(name, "bool", data, None, nulls,
                             null_count, count, min_value, max_value)
    if col_type is ColumnType.TEXT:
        codes_by_value = {}
        codes = array("i")
        for v in values:
            if v is None:
                codes.append(-1)
                continue
            code = codes_by_value.get(v)
            if code is None:
                if len(codes_by_value) >= dict_max:
                    return raw()
                code = len(codes_by_value)
                codes_by_value[v] = code
            codes.append(code)
        return ColumnSegment(name, "dict", codes, list(codes_by_value), nulls,
                             null_count, count, min_value, max_value)
    return raw()


def from_rows_reference(schema, items):
    items = sorted(items, key=lambda kv: kv[0])
    rids = array("q", (rid for rid, _ in items))
    columns = {}
    for col in schema.columns:
        values = [values_dict.get(col.name) for _, values_dict in items]
        columns[col.name] = encode_reference(col.name, col.col_type, values)
    return Segment(schema, rids, columns)


def compact_reference(heap, target_rows):
    """``HeapTable.compact`` as it was: every live row of a rewritten
    segment through a row dict."""
    max_rid = heap._next_rid - 1
    rows = heap._rows
    rewritten, fresh = [], []
    frozen = 0
    segments = sorted((s for s in heap._segments if s.count),
                      key=lambda s: s.min_rid)
    tail = sorted(rows)
    del tail[bisect_right(tail, max_rid):]
    runs = [[]]
    at = 0
    for segment in segments:
        first = bisect_left(tail, segment.min_rid, at)
        end = bisect_right(tail, segment.max_rid, first)
        runs[-1] += [(rid, rows[rid]) for rid in tail[at:end]]
        if end > first or segment in heap._dead:
            runs[-1] += segment.rows_at(heap.live_positions(segment))
            rewritten.append(segment)
        else:
            runs.append([])
        at = end
    runs[-1] += [(rid, rows[rid]) for rid in tail[at:]]
    for run in runs:
        run.sort(key=itemgetter(0))
        fresh += [from_rows_reference(heap._schema,
                                      run[start:start + target_rows])
                  for start in range(0, len(run), target_rows)]
        frozen += len(run)
    for segment in rewritten:
        heap._segments.remove(segment)
        heap._dead.pop(segment, None)
    for rid in tail:
        del rows[rid]
    heap._segments += fresh
    heap._directory = None
    return len(fresh), frozen, max_rid


# ----------------------------------------------------------- the comparison


def _plain(value):
    """Comparable across tables, NaN included (and 1 apart from True)."""
    return type(value).__name__, repr(value)


def column_layout(column):
    data = column.data
    return (column.name, column.encoding,
            (data.typecode, data.tobytes()) if isinstance(data, array)
            else list(map(_plain, data)),
            column.dictionary,
            None if column.nulls is None else bytes(column.nulls),
            {key: _plain(value) for key, value in column.zone_map().items()})


def table_layout(heap):
    return ([(segment.rids.tobytes(),
              [column_layout(segment.columns[name])
               for name in heap.schema.column_names],
              list(heap.dead_positions(segment)))
             for segment in heap._segments],
            sorted(heap._rows), heap.segment_layout())


# ------------------------------------------------------------- the tables

SCHEMA = TableSchema(
    "t",
    (Column("id", ColumnType.INT, nullable=False),
     Column("n", ColumnType.INT),
     Column("f", ColumnType.FLOAT),
     Column("s", ColumnType.TEXT),
     Column("b", ColumnType.BOOL)),
    primary_key="id",
)

CELLS = {
    ColumnType.INT: st.one_of(
        st.none(), st.integers(-5, 5),
        st.sampled_from([_INT64_MIN - 1, _INT64_MAX + 1, _INT64_MIN])),
    ColumnType.FLOAT: st.one_of(
        st.none(), st.floats(allow_nan=True, allow_infinity=True, width=32)),
    ColumnType.TEXT: st.one_of(
        st.none(), st.sampled_from(["", "a", "b", "ß", "a b"])),
    ColumnType.BOOL: st.one_of(st.none(), st.booleans()),
}
cells_st = st.tuples(*(CELLS[column.col_type]
                       for column in SCHEMA.columns[1:]))
#: (kind, which row, new cells, segment size of a compaction)
op_st = st.tuples(
    st.sampled_from(["insert", "insert", "update", "update", "delete",
                     "compact"]),
    st.integers(0, 1000), cells_st, st.integers(1, 6))


def _values(key, cells):
    return dict(zip(("n", "f", "s", "b"), cells), id=key)


def _apply(heap, ops):
    """Writes and compactions (the new code: the reference runs beside it
    on a copy only at the end), so later steps see dead positions, tail
    rows inside and beyond segments, neighbours rewritten together."""
    for kind, pick, cells, size in ops:
        rids = heap.rids()
        if kind == "insert" or not rids:
            heap.insert(_values(heap._next_rid, cells))   # a key never used
        elif kind == "update":
            heap.update(rids[pick % len(rids)], _values(None, cells)
                        | {"id": heap.get(rids[pick % len(rids)])["id"]})
        elif kind == "delete":
            heap.delete(rids[pick % len(rids)])
        else:
            heap.compact(target_rows=size)


@given(before=st.lists(op_st, max_size=25),
       size=st.integers(1, 6), after=st.lists(op_st, max_size=12),
       resize=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_column_major_compaction_is_layout_identical(
        before, size, after, resize):
    heap = HeapTable(SCHEMA)
    _apply(heap, before)
    for target_rows, ops in ((size, after), (resize, ())):
        reference = copy.deepcopy(heap)
        assert heap.compact(target_rows=target_rows) \
            == compact_reference(reference, target_rows)
        assert table_layout(heap) == table_layout(reference)
        assert [(r.rid, _plain(r.values)) for r in heap.scan()] \
            == [(r.rid, _plain(r.values)) for r in reference.scan()]
        # what is written next lands beside (and inside) these segments,
        # and the second compaction re-chunks neighbours by another size
        _apply(heap, [op for op in ops if op[0] != "compact"])


@given(col_type=st.sampled_from(list(ColumnType)), data=st.data(),
       dict_max=st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_encode_is_layout_identical(col_type, data, dict_max):
    values = data.draw(st.lists(CELLS[col_type], max_size=40))
    assert column_layout(ColumnSegment.encode("c", col_type, values,
                                              dict_max=dict_max)) \
        == column_layout(encode_reference("c", col_type, values,
                                          dict_max=dict_max))
    assert column_layout(ColumnSegment.encode("c", col_type, tuple(values))) \
        == column_layout(encode_reference("c", col_type, values))


def test_a_dictionary_that_overflows_falls_back_to_raw_through_compaction():
    heap = HeapTable(SCHEMA)
    for key in range(DICT_MAX_ENTRIES + 40):
        heap.insert(_values(key, (key, key / 4, f"s{key}", key % 2 == 0)))
    heap.compact(target_rows=DICT_MAX_ENTRIES + 20)   # raw, then dict
    for key in (3, DICT_MAX_ENTRIES + 30):            # both get rewritten
        heap.update(heap._pk_index[key], {"s": None})
    reference = copy.deepcopy(heap)
    assert heap.compact() == compact_reference(reference, 65_536)
    assert table_layout(heap) == table_layout(reference)
    assert [segment.columns["s"].encoding for segment in heap._segments] \
        == ["raw"]
