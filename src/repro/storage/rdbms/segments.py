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
consumer that makes the layout pay off.  A checkpoint stores a segment
as its buffers and zone maps (:meth:`Segment.image`), and reopen takes
them back as they are.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from base64 import b64decode, b64encode
from collections import defaultdict
from itertools import accumulate, repeat
from operator import is_, itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.storage.rdbms.types import ColumnType, TableSchema
from repro.telemetry import metrics

#: Rows per segment produced by compaction (the vectorized executor's
#: working-set unit; also the zone-map granularity).
SEGMENT_TARGET_ROWS = 65_536

#: Dictionary entries per TEXT column before falling back to ``raw``.
DICT_MAX_ENTRIES = 4_096

#: Smallest int that still fits ``array('q')`` (and the largest + 1).
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: The typed buffer of each encoding that has one (``raw`` keeps a list).
_TYPECODES = {"int": "q", "float": "d", "bool": "b", "dict": "i"}


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


def _bounds(col_type: ColumnType, non_null: Sequence[Any]) -> tuple[Any, Any]:
    """A column's zone-map ``(min, max)`` from its non-NULL values: what
    :meth:`ColumnSegment.encode` publishes (and a checkpoint image
    carries), so a bound is always one its data has.  NaN poisons
    min()/max(): a FLOAT column holding one publishes no bounds rather
    than bounds a zone-map prune could wrongly trust."""
    if not non_null or (col_type is ColumnType.FLOAT
                        and any(map(math.isnan, non_null))):
        return None, None
    low, high = min(non_null), max(non_null)
    if col_type is ColumnType.BOOL:  # (a bool buffer holds 0 and 1)
        return bool(low), bool(high)
    return low, high


def to_base64(buffer: array | bytearray) -> str:
    """A typed buffer or a null bitmap as base64 of its little-endian
    bytes."""
    if sys.byteorder == "big" and isinstance(buffer, array):
        buffer = array(buffer.typecode, buffer)
        buffer.byteswap()
    return b64encode(buffer).decode("ascii")


def from_base64(text: str, typecode: str) -> array:
    """The typed buffer :func:`to_base64` made ``text`` of."""
    buffer = array(typecode, b64decode(text))
    if sys.byteorder == "big":
        buffer.byteswap()
    return buffer


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

    A column loaded from a checkpoint image (:meth:`from_image`) holds
    ``data`` and ``nulls`` as the image's base64 text until their first
    read (:meth:`__getattr__`).
    """

    __slots__ = ("name", "encoding", "data", "dictionary", "nulls",
                 "null_count", "count", "min_value", "max_value", "_lookup",
                 "_texts")

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
        #: ``data`` / ``nulls`` -> image text, for each still encoded
        self._texts: dict[str, str] | None = None

    def __getattr__(self, name: str) -> Any:
        """``data`` or ``nulls`` of a column loaded from an image, on its
        first read (only an unset slot gets here): its text decoded once
        and dropped.  Two first reads at once may both decode; each gets
        an equal buffer, and either stays."""
        texts = self._texts if name in ("data", "nulls") else None
        text = texts.get(name) if texts else None
        if text is None:  # (or another first read has set the slot)
            return object.__getattribute__(self, name)
        value = bytearray(b64decode(text)) if name == "nulls" \
            else from_base64(text, _TYPECODES[self.encoding])
        setattr(self, name, value)
        texts.pop(name, None)
        return value

    # ------------------------------------------------------------ encoding

    @staticmethod
    def encode(name: str, col_type: ColumnType, values: Sequence[Any],
               dict_max: int = DICT_MAX_ENTRIES) -> "ColumnSegment":
        """Pick and apply the best encoding for ``values``.

        ``values`` must already be schema-validated (correct python types
        or ``None``); encoding never changes a value, only its layout.
        """
        count = len(values)
        null_count = values.count(None)
        nulls: bytearray | None = None
        non_null = values
        if null_count:
            # one 0/1 byte per position, then position i's to bit i & 7
            # of byte i >> 3 - eight strides ORed as big integers
            flags = bytes(map(is_, values, repeat(None)))
            packed = 0
            for bit in range(8):
                packed |= int.from_bytes(flags[bit::8], "little") << bit
            nulls = bytearray(packed.to_bytes((count + 7) // 8, "little"))
            non_null = [v for v in values if v is not None]
        min_value, max_value = _bounds(col_type, non_null)

        def done(encoding: str, data: Any,
                 dictionary: list[str] | None = None) -> "ColumnSegment":
            return ColumnSegment(name, encoding, data, dictionary, nulls,
                                 null_count, count, min_value, max_value)

        def filled(placeholder: Any) -> Sequence[Any]:
            # NULL slots hold a placeholder: the buffer stays rectangular
            return [placeholder if v is None else v for v in values] \
                if null_count else values

        if col_type is ColumnType.INT:
            if non_null and (min_value < _INT64_MIN or max_value > _INT64_MAX):
                return done("raw", list(values))
            return done("int", array("q", filled(0)))
        if col_type is ColumnType.FLOAT:
            return done("float", array("d", filled(0.0)))
        if col_type is ColumnType.BOOL:
            return done("bool", array("b", map(bool, values)))
        if col_type is ColumnType.TEXT:
            # codes in first-occurrence order, NULL's last
            code_of = {v: code for code, v in
                       enumerate(dict.fromkeys(non_null))}
            if len(code_of) <= dict_max:
                dictionary = list(code_of)
                code_of[None] = -1
                return done("dict", array("i", map(code_of.__getitem__,
                                                   values)), dictionary)
        return done("raw", list(values))  # also: dictionary overflow

    def _text(self, name: str) -> str:
        """``data`` or ``nulls`` as an image holds it: the text it was
        loaded from while it is still encoded."""
        texts = self._texts
        text = texts.get(name) if texts else None
        return to_base64(getattr(self, name)) if text is None else text

    def image(self) -> dict[str, Any]:
        """What a checkpoint stores of this column: the encoding, the
        buffer (base64 of its little-endian bytes; a ``raw`` column's
        list as it is), the zone map's bounds, the dictionary, the null
        bitmap and null count."""
        image: dict[str, Any] = {
            "encoding": self.encoding,
            "data": self.data if self.encoding == "raw"
            else self._text("data"),
            "min": self.min_value, "max": self.max_value}
        if self.dictionary is not None:
            image["dictionary"] = self.dictionary
        if self.null_count:
            image["nulls"] = self._text("nulls")
            image["null_count"] = self.null_count
        return image

    @staticmethod
    def from_image(name: str, image: dict[str, Any],
                   count: int) -> "ColumnSegment":
        """The column :meth:`image` made ``image`` of, its ``count``
        cells and its zone map taken as they are; its buffer and null
        bitmap stay text until first read."""
        encoding = image["encoding"]
        column = ColumnSegment(
            name, encoding, image["data"], image.get("dictionary"), None,
            image.get("null_count", 0), count, image["min"], image["max"])
        texts = {"nulls": image["nulls"]} if "nulls" in image else {}
        if encoding != "raw":
            texts["data"] = image["data"]
        for unset in texts:
            delattr(column, unset)
        column._texts = texts or None
        return column

    # ------------------------------------------------------------ decoding

    def is_null(self, i: int) -> bool:
        return self.null_count > 0 and bool(self.nulls[i >> 3] & (1 << (i & 7)))

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


class GroupOrder:
    """A segment's positions stably sorted by a key (DESIGN.md §12):
    ``positions[bounds[g]:bounds[g + 1]]`` are group ``g``'s, ascending.
    A key is what the segment stores (a dictionary code stands for its
    string), compared as a dict key, like the rows it stands for:
    ``-0.0`` joins ``0.0``, each NaN is a group.  No key: one group.
    The columns it copies stay typed, like the segment (a FLOAT column
    costs 8 bytes a row, its null flags one)."""

    __slots__ = ("positions", "bounds", "_columns", "_copies", "_rank")

    def __init__(self, columns: dict[str, ColumnSegment],
                 names: Sequence[str], count: int) -> None:
        self._columns = columns
        self._copies: dict[str, tuple[Sequence[Any], Any]] = {}
        self.positions: Sequence[int] = range(count)
        self.bounds = [0, count]
        self._rank: array | None = None
        if names:
            keys = [columns[name].data if columns[name].encoding == "dict"
                    else columns[name].cells() for name in names]
            groups: dict[Any, list[int]] = defaultdict(list)
            for pos, key in enumerate(keys[0] if len(keys) == 1
                                      else zip(*keys)):
                groups[key].append(pos)
            if len(groups) > 1:  # (one group: the stored order)
                self.positions = positions = array("i")
                for group in groups.values():
                    positions.fromlist(group)
                self.bounds = list(accumulate(map(len, groups.values()),
                                              initial=0))

    def column(self, name: str) -> tuple[Sequence[Any], Any]:
        """One column's stored cells in this order (copied once) and
        their null flags (None: no NULLs)."""
        copy = self._copies.get(name)
        if copy is None:
            col = self._columns[name]
            data, flags = col.data, col.null_flags()
            if not isinstance(self.positions, range):  # (else: as stored)
                gather = itemgetter(*self.positions)  # (two groups or more)
                data, flags = gather(data), flags and gather(flags)
                if col.encoding != "raw":
                    data = array(col.data.typecode, data)
            flags = flags and bytearray(flags)
            copy = self._copies[name] = data, flags
        return copy

    def rank(self) -> array:
        """Where each position sits in :attr:`positions`."""
        if self._rank is None:  # published whole: readers share the order
            rank = array("i", self.positions)
            for at, pos in enumerate(self.positions):
                rank[pos] = at
            self._rank = rank
        return self._rank


class Segment:
    """An immutable, rid-sorted slice of a table in columnar layout.
    Group orders are cached on the segment."""

    __slots__ = ("schema", "rids", "columns", "count", "_group_orders",
                 "_rids_text")

    def __init__(self, schema: TableSchema, rids: array,
                 columns: dict[str, ColumnSegment]) -> None:
        self.schema = schema
        self.rids = rids  # array('q'), ascending
        self.columns = columns
        self.count = len(rids)
        self._group_orders: dict[tuple[str, ...], GroupOrder] = {}
        #: the image text the rids were decoded from (None: not loaded)
        self._rids_text: str | None = None

    def group_order(self, names: Sequence[str]) -> GroupOrder:
        """The cached :class:`GroupOrder` of the key ``names``."""
        key = tuple(names)
        order = self._group_orders.get(key)
        if order is None:
            order = self._group_orders[key] = GroupOrder(
                self.columns, key, self.count)
            metrics.get_registry().inc("segments.group_orders_built")
        return order

    @staticmethod
    def from_columns(schema: TableSchema, rids: Sequence[int],
                     columns: Iterable[Sequence[Any]],
                     chunk_rows: int | None = None,
                     dict_max: int = DICT_MAX_ENTRIES) -> "list[Segment]":
        """Freeze ascending ``rids`` and, per schema column in order, the
        values of those rows into segments of ``chunk_rows`` rows (None:
        one, even of no rows).  ``columns`` may be lazy: one column is
        held at a time."""
        step = chunk_rows or max(len(rids), 1)
        starts = range(0, max(len(rids), 1), step)
        encoded: list[dict[str, ColumnSegment]] = [{} for _ in starts]
        for col, values in zip(schema.columns, columns):
            for into, start in zip(encoded, starts):
                into[col.name] = ColumnSegment.encode(
                    col.name, col.col_type, values[start:start + step],
                    dict_max=dict_max)
        return [Segment(schema, array("q", rids[start:start + step]), into)
                for into, start in zip(encoded, starts)]

    @staticmethod
    def from_rows(schema: TableSchema,
                  items: list[tuple[int, dict[str, Any]]],
                  dict_max: int = DICT_MAX_ENTRIES) -> "Segment":
        """Freeze ``(rid, values)`` pairs into a segment (rid-sorted).
        Tests build segments with it; the engine freezes columns."""
        items = sorted(items, key=lambda kv: kv[0])
        return Segment.from_columns(
            schema, [rid for rid, _ in items],
            ([values.get(name) for _, values in items]
             for name in schema.column_names),
            dict_max=dict_max)[0]

    def image(self) -> dict[str, Any]:
        """What a checkpoint stores of this segment: its rids (base64 of
        little-endian int64) and each column's
        :meth:`ColumnSegment.image`, one column at a time — the text a
        loaded one came from, where nothing has decoded it since."""
        return {"rids": self._rids_text or to_base64(self.rids),
                "columns": {name: column.image()
                            for name, column in self.columns.items()}}

    @staticmethod
    def from_image(schema: TableSchema, image: dict[str, Any]) -> "Segment":
        """The segment :meth:`image` made ``image`` of: no row is built,
        nothing is encoded, and only the rids are decoded (the columns
        wait for their first read: :meth:`ColumnSegment.from_image`)."""
        rids = from_base64(image["rids"], "q")
        segment = Segment(schema, rids, {
            name: ColumnSegment.from_image(
                name, image["columns"][name], len(rids))
            for name in schema.column_names})
        segment._rids_text = image["rids"]
        return segment

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
        """Column name → zone map."""
        return {name: col.zone_map() for name, col in self.columns.items()}
