"""Columnar segments: the cold/immutable layout of heap tables (DESIGN.md §12).

The paper argues the *system* should pick the physical representation for
each piece of data; Impliance (PAPERS.md) extends that to an appliance-
managed storage hierarchy.  This module is that decision applied to the
relational store's own rows: committed heap rows can be *frozen* into
immutable column segments —

* INT/FLOAT/BOOL columns become typed ``array`` buffers (``'q'``/``'d'``/
  ``'b'``), falling back to a plain-list ``raw`` encoding when a value
  does not fit (e.g. an int beyond 64 bits);
* TEXT columns are dictionary-encoded (first-occurrence code order), with
  a ``raw`` fallback when the dictionary would exceed ``dict_max``;
* NULLs live in a packed per-column bitmap plus a placeholder slot, so
  the typed buffer stays rectangular;
* every column carries a **zone map** — min/max/count/null count — that
  lets scans skip whole segments and feeds the statistics module.

Segments are purely a layout change: :meth:`Segment.iter_rows` decodes
byte-identical ``(rid, values)`` pairs, and the heap table merges
segments with its row-store tail so readers never observe the split.
The vectorized executor in :mod:`repro.storage.rdbms.planner` is the
consumer that makes the layout pay off.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterator, Sequence

from repro.storage.rdbms.types import ColumnType, TableSchema

#: Rows per segment produced by compaction (the vectorized executor's
#: working-set unit; also the zone-map granularity).
SEGMENT_TARGET_ROWS = 65_536

#: Dictionary entries per TEXT column before falling back to ``raw``.
DICT_MAX_ENTRIES = 4_096

#: Smallest int that still fits ``array('q')`` (and the largest + 1).
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

def take(cells: Sequence[Any], positions: Sequence[int]) -> Sequence[Any]:
    """``cells`` at ``positions``, gathered by one C-level call (a slice
    for a stretch of consecutive positions)."""
    if isinstance(positions, range) and positions.step == 1:
        return cells[positions.start:positions.stop]
    if len(positions) > 1:
        return itemgetter(*positions)(cells)
    return [cells[i] for i in positions]


#: Bit offsets set in each byte value: a null bitmap decodes one byte
#: (not one position) at a time, and all-zero bytes cost nothing.
_SET_BITS = tuple(tuple(bit for bit in range(8) if byte >> bit & 1)
                  for byte in range(256))


class ColumnSegment:
    """One column of one segment: typed buffer + null bitmap + zone map.

    Attributes:
        name: column name.
        encoding: ``int`` | ``float`` | ``bool`` | ``dict`` | ``raw``.
        data: the typed buffer — an ``array`` for numeric encodings, an
            ``array`` of dictionary codes for ``dict`` (``-1`` = NULL),
            a plain list (with ``None`` entries) for ``raw``.
        dictionary: code → string list (``dict`` encoding only).
        nulls: packed null bitmap (``None`` when the column has no NULLs).
        null_count / count / min_value / max_value: the zone map.
    """

    __slots__ = ("name", "encoding", "data", "dictionary", "nulls",
                 "null_count", "count", "min_value", "max_value", "_lookup")

    def __init__(self, name: str, encoding: str, data: Any,
                 dictionary: list[str] | None, nulls: bytearray | None,
                 null_count: int, count: int,
                 min_value: Any, max_value: Any) -> None:
        self.name = name
        self.encoding = encoding
        self.data = data
        self.dictionary = dictionary
        self.nulls = nulls
        self.null_count = null_count
        self.count = count
        self.min_value = min_value
        self.max_value = max_value
        #: code -> value with NULL's code (-1) landing on a trailing None,
        #: so dictionary columns decode with one C-level index per cell.
        self._lookup = None if dictionary is None else dictionary + [None]

    # ------------------------------------------------------------ encoding

    @staticmethod
    def encode(name: str, col_type: ColumnType, values: list[Any],
               dict_max: int = DICT_MAX_ENTRIES) -> "ColumnSegment":
        """Pick and apply the best encoding for ``values``.

        ``values`` must already be schema-validated (correct python types
        or ``None``); encoding never changes a value, only its layout.
        """
        count = len(values)
        nulls: bytearray | None = None
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

        def raw() -> "ColumnSegment":
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
                # NaN poisons min()/max(); publish no bounds rather than
                # bounds a zone-map prune could wrongly trust.
                min_value = max_value = None
            data = array("d", (0.0 if v is None else v for v in values))
            return ColumnSegment(name, "float", data, None, nulls,
                                 null_count, count, min_value, max_value)
        if col_type is ColumnType.BOOL:
            data = array("b", (0 if not v else 1 for v in values))
            return ColumnSegment(name, "bool", data, None, nulls,
                                 null_count, count, min_value, max_value)
        if col_type is ColumnType.TEXT:
            codes_by_value: dict[str, int] = {}
            codes = array("i")
            for v in values:
                if v is None:
                    codes.append(-1)
                    continue
                code = codes_by_value.get(v)
                if code is None:
                    if len(codes_by_value) >= dict_max:
                        return raw()  # dictionary overflow
                    code = len(codes_by_value)
                    codes_by_value[v] = code
                codes.append(code)
            dictionary = list(codes_by_value)
            return ColumnSegment(name, "dict", codes, dictionary, nulls,
                                 null_count, count, min_value, max_value)
        return raw()

    # ------------------------------------------------------------ decoding

    def is_null(self, i: int) -> bool:
        return self.nulls is not None and bool(self.nulls[i >> 3] & (1 << (i & 7)))

    def value_at(self, i: int) -> Any:
        """The decoded python value at position ``i``."""
        if self.is_null(i):
            return None
        if self.encoding == "dict":
            return self.dictionary[self.data[i]]
        if self.encoding == "bool":
            return bool(self.data[i])
        return self.data[i]

    def null_positions(self) -> list[int]:
        """Ascending positions of the NULLs, read off the packed bitmap."""
        if self.null_count == 0:
            return []
        out: list[int] = []
        for at, byte in enumerate(self.nulls):
            if byte:
                base = at << 3
                out.extend([base + bit for bit in _SET_BITS[byte]])
        return out

    def decoded(self) -> list[Any]:
        """The whole column as properly-typed python values (with Nones)."""
        if self.encoding == "dict":
            return list(map(self._lookup.__getitem__, self.data))
        if self.encoding == "raw":
            return list(self.data)
        out = list(map(bool, self.data)) if self.encoding == "bool" \
            else list(self.data)
        for i in self.null_positions():
            out[i] = None
        return out

    def gather(self, positions: Sequence[int]) -> list[Any]:
        """The decoded values at ``positions`` (any order, repeats fine)."""
        encoding = self.encoding
        cells = take(self.data, positions)
        if encoding == "dict":
            return list(take(self._lookup, cells))
        if encoding == "raw":
            return list(cells)
        if self.null_count == 0:
            return list(map(bool, cells) if encoding == "bool" else cells)
        nulls = self.nulls
        if encoding == "bool":
            return [None if nulls[i >> 3] >> (i & 7) & 1 else bool(v)
                    for i, v in zip(positions, cells)]
        return [None if nulls[i >> 3] >> (i & 7) & 1 else v
                for i, v in zip(positions, cells)]

    def cells(self) -> Sequence[Any]:
        """The decoded values as an indexable sequence: the typed buffer
        itself where it needs no decoding, else :meth:`decoded`."""
        if self.encoding in ("int", "float") and self.null_count == 0:
            return self.data
        return self.decoded()

    def null_flags(self, positions: Sequence[int] | None = None,
                   ) -> list[bool] | None:
        """Null flags of every position (or of ``positions``), or None
        when the column has no NULLs."""
        if self.null_count == 0:
            return None
        if positions is not None:
            nulls = self.nulls
            return [bool(nulls[i >> 3] >> (i & 7) & 1) for i in positions]
        flags = [False] * self.count
        for i in self.null_positions():
            flags[i] = True
        return flags

    def zone_map(self) -> dict[str, Any]:
        """The per-segment statistics summary for this column."""
        return {
            "min": self.min_value,
            "max": self.max_value,
            "count": self.count,
            "null_count": self.null_count,
        }


class Segment:
    """An immutable, rid-sorted slice of a table in columnar layout.

    ``shard`` tags segments of sharded tables (DESIGN.md §14): a sharded
    table's segments hold rows of exactly one shard, so parallel plans can
    hand whole segments to per-shard worker tasks without re-routing rows.
    ``None`` means the table was unsharded when the segment was frozen.
    """

    __slots__ = ("schema", "rids", "columns", "count", "shard")

    def __init__(self, schema: TableSchema, rids: array,
                 columns: dict[str, ColumnSegment],
                 shard: int | None = None) -> None:
        self.schema = schema
        self.rids = rids  # array('q'), ascending
        self.columns = columns
        self.count = len(rids)
        self.shard = shard

    @staticmethod
    def from_rows(schema: TableSchema,
                  items: list[tuple[int, dict[str, Any]]],
                  dict_max: int = DICT_MAX_ENTRIES,
                  shard: int | None = None) -> "Segment":
        """Freeze ``(rid, values)`` pairs into a segment (rid-sorted)."""
        items = sorted(items, key=lambda kv: kv[0])
        rids = array("q", (rid for rid, _ in items))
        columns: dict[str, ColumnSegment] = {}
        for col in schema.columns:
            values = [values_dict.get(col.name) for _, values_dict in items]
            columns[col.name] = ColumnSegment.encode(
                col.name, col.col_type, values, dict_max=dict_max)
        return Segment(schema, rids, columns, shard=shard)

    # -------------------------------------------------------------- access

    @property
    def min_rid(self) -> int:
        return self.rids[0] if self.count else -1

    @property
    def max_rid(self) -> int:
        return self.rids[-1] if self.count else -1

    def column(self, name: str) -> ColumnSegment | None:
        return self.columns.get(name)

    def rid_position(self, rid: int) -> int | None:
        """Position of ``rid`` in this segment, or None."""
        pos = bisect.bisect_left(self.rids, rid)
        if pos < self.count and self.rids[pos] == rid:
            return pos
        return None

    def positions_of(self, rids: list[int]) -> list[int] | None:
        """Positions of ``rids`` (each within this segment's rid range),
        or None when one of them is not in the segment."""
        held = self.rids
        first = held[0]
        if held[-1] - first + 1 == self.count:  # no gaps: subtract
            return [rid - first for rid in rids]
        positions = list(map(bisect.bisect_left, repeat(held), rids))
        if list(take(held, positions)) != rids:
            return None
        return positions

    def gather(self, names: Sequence[str],
               positions: Sequence[int]) -> list[list[Any]]:
        """One decoded value list per named column, at ascending
        ``positions`` (all of them decodes whole columns at once)."""
        if len(positions) == self.count:
            return [self.column_values(name) for name in names]
        return [self.columns[name].gather(positions)
                if name in self.columns else [None] * len(positions)
                for name in names]

    def rows_at(self, positions: Sequence[int],
                ) -> Iterator[tuple[int, dict[str, Any]]]:
        """``(rid, values)`` of the rows at ascending ``positions``, all
        columns in schema order (same as the heap table) — the one place
        a segment position becomes a row dict."""
        names = self.schema.column_names
        rids = self.rids if len(positions) == self.count \
            else take(self.rids, positions)
        columns = self.gather(names, positions)
        return zip(rids, (dict(zip(names, cells)) for cells in zip(*columns)))

    def iter_rows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Decode every row in rid order."""
        return self.rows_at(range(self.count))

    def column_values(self, name: str) -> list[Any]:
        """All decoded values of one column (for ANALYZE sampling)."""
        col = self.columns.get(name)
        return col.decoded() if col is not None else [None] * self.count

    def zone_maps(self) -> dict[str, dict[str, Any]]:
        """Column name → zone map, validated by the reopen regression."""
        return {name: col.zone_map() for name, col in self.columns.items()}
