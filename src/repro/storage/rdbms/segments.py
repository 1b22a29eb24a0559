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
  lets scans skip whole segments and feeds the statistics module;
* an INT/FLOAT/BOOL column builds, at its first kernel use, an
  :class:`Imprint` — one bucket code per cell — that the scan kernel
  decides comparisons on (never stored in a checkpoint).

Segments are purely a layout change: :meth:`Segment.iter_rows` decodes
byte-identical ``(rid, values)`` pairs, and the heap table merges
segments with its row-store tail so readers never observe the split.
The vectorized executor in :mod:`repro.storage.rdbms.planner` is the
consumer that makes the layout pay off.  A checkpoint stores a segment
as its buffers and zone maps (:meth:`Segment.image`), and reopen takes
them back as they are.  A compaction that rewrites a segment splices it
(:meth:`Segment.spliced`: the kept rows' buffers copied, only new rows
encoded, a built imprint carried over), byte for byte what a fresh
encode of the same rows makes.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from base64 import b64decode, b64encode
from collections import Counter, defaultdict
from itertools import accumulate, chain, compress, count, repeat
from operator import add, is_, itemgetter
from random import Random
from typing import Any, Callable, Iterable, Iterator, Sequence

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


#: Imprint codes: value buckets take 0..253, a NaN and a NULL cell these.
NAN_CODE, NULL_CODE = 254, 255

#: Cells an imprint samples its bounds from (all of a smaller column).
_IMPRINT_SAMPLE = 1_024

#: A verdict table's mark for the bucket a literal splits: its cells are
#: compared one by one.
RECHECK = 2

#: A rechecked cell's verdict as the byte it puts back into the bitmap.
_VERDICTS = (b"\0", b"\1")


class Imprint:
    """A column imprint (Sidirourgos & Kersten, SIGMOD 2013) at cell
    granularity, of an ``int``/``float``/``bool`` column (DESIGN.md §12).

    ``lows`` are at most 253 ascending bucket bounds and ``codes`` one
    byte per cell: ``bisect_right(lows, v)`` for a value ``v`` — bucket
    ``j`` holds the values in ``[lows[j - 1], lows[j])`` (open below the
    first bound and above the last) — :data:`NAN_CODE` for NaN and
    :data:`NULL_CODE` for NULL.  So every value of bucket ``i`` is below
    every value of bucket ``j > i``, and a comparison with a literal is
    decided bucket by bucket except in the literal's own bucket.

    The bounds are quantiles of a seeded random sample of the cells (a
    strided one would alias with a layout's period — rows written
    entity by entity, ten attributes each, repeat every ten).  A value
    the sample picks more than once also gets its successor (``v + 1``;
    the next float up) as a bound: its bucket holds that value only, and
    is listed in ``points``, so a comparison with a frequent value is
    decided without looking at a cell.
    """

    __slots__ = ("lows", "points", "codes", "coded", "_by_code")

    def __init__(self, lows: list[Any], points: frozenset[int], codes: bytes,
                 coded: int = 0) -> None:
        self.lows = lows
        self.points = points
        self.codes = codes
        #: cells coded since the sample the bounds came from (see carried)
        self.coded = coded
        self._by_code: dict[int, array] = {}  # (see _cells)

    @staticmethod
    def sampled(col: "ColumnSegment") -> "Imprint":
        """The imprint of ``col``, its bounds sampled from its cells."""
        data = col.data
        count = len(data)
        picked = Random(count).sample(range(count),
                                      min(count, _IMPRINT_SAMPLE))
        sample = sorted(v for v in take(data, picked)
                        if v == v)  # (NaN orders against nothing)
        picks = [sample[i * len(sample) // (NAN_CODE - 1)]
                 for i in range(min(len(sample), NAN_CODE - 1))]
        after = (lambda v: math.nextafter(v, math.inf)) \
            if col.encoding == "float" else (lambda v: v + 1)
        # a value picked k > 1 times frees k - 1 slots: one is its successor
        repeated = [after(v) for v, n in Counter(picks).items() if n > 1]
        lows = sorted({*picks, *repeated})
        points = frozenset(j for j in range(1, len(lows))
                           if lows[j] == after(lows[j - 1]))
        codes = bytearray(map(bisect.bisect_right, repeat(lows), data))
        if col.encoding == "float" and col.min_value is None:  # NaN?
            for at in compress(range(len(data)), map(math.isnan, data)):
                codes[at] = NAN_CODE
        for at in col.null_positions():
            codes[at] = NULL_CODE
        return Imprint(lows, points, bytes(codes))

    def carried(self, pieces: Sequence[Sequence[Any]],
                count: int) -> "Imprint | None":
        """This imprint over the column :meth:`ColumnSegment.spliced` makes
        of ``pieces``: the same bounds, the codes of each kept stretch
        copied and each new cell coded by ``bisect_right``.  None (built
        afresh at its first use) once the cells coded since the sample
        pass one bucket's share of the ``count`` cells: appended values
        would pile into the buckets the sample did not foresee."""
        lows = self.lows
        coded = self.coded + sum(len(piece) for piece in pieces
                                 if not isinstance(piece, range))
        if not lows or coded > count // len(lows):
            return None

        def code(v: Any) -> int:
            return NULL_CODE if v is None else NAN_CODE if v != v \
                else bisect.bisect_right(lows, v)

        return Imprint(lows, self.points, b"".join(
            self.codes[piece.start:piece.stop] if isinstance(piece, range)
            else bytes(map(code, piece)) for piece in pieces), coded)

    def at(self, positions: Sequence[int] | None) -> bytes:
        """The codes of the cells at ``positions`` (None: all)."""
        if positions is None:
            return self.codes
        return bytes(take(self.codes, positions))

    def verdicts(self, fn: Callable[[Any, Any], bool], lit: Any) -> bytearray:
        """Per code, the verdict of ``cell fn lit`` on every value of its
        bucket — the buckets below the literal's, then those above it —
        or :data:`RECHECK` for the literal's own (unless it holds one
        value); a NaN cell equals nothing and orders against nothing, and
        a NULL cell compares false."""
        if lit != lit:  # NaN: every number compares alike with it
            table = bytearray([fn(0, lit)]) * 256
        else:
            lows = self.lows
            j = bisect.bisect_right(lows, lit)
            table = bytearray([fn(0, 1)]) * j \
                + bytearray([fn(1, 0)]) * (256 - j)
            table[j] = fn(lows[j - 1], lit) if j in self.points else RECHECK
        table[NAN_CODE], table[NULL_CODE] = fn(math.nan, lit), False
        return table

    def memberships(self, values: Sequence[Any], negated: bool) -> bytearray:
        """Per code, the verdict of ``cell [NOT] IN values``: a value's
        bucket is rechecked unless it holds that one value.  (A NaN cell,
        decoded afresh, is no literal's NaN object, so no list holds it:
        its code keeps ``negated``.)"""
        lows, points = self.lows, self.points
        table = bytearray([negated]) * 256
        for value in values:
            if value is not None:
                j = bisect.bisect_right(lows, value)
                if j not in points:
                    table[j] = RECHECK
                elif lows[j - 1] == value:  # (the bucket's one value)
                    table[j] = not negated
        table[NULL_CODE] = (None in values) != negated
        return table

    @staticmethod
    def select(codes: bytes, table: bytearray,
               test: Callable[[Sequence[Any]], Iterable[bool]],
               data: Sequence[Any], positions: Sequence[int] | None,
               negated: bool = False) -> bytearray:
        """The bitmap ``table`` makes of ``codes`` (the codes of the cells
        at ``positions``, None: all), each :data:`RECHECK` replaced by
        ``test``'s verdict on its stored value in ``data`` (negated when
        ``negated``): gathered, compared and put back by C-level calls."""
        bits = codes.translate(table)
        if RECHECK not in bits:
            return bytearray(bits)
        # The marked cells split the bitmap: part i ends where the i-th is.
        parts = bits.split(bytes((RECHECK,)))
        at = list(map(add, accumulate(map(len, parts[:-1])), count()))
        metrics.get_registry().inc("planner.kernel.cells_rechecked", len(at))
        cells = take(data, at if positions is None else take(positions, at))
        verdicts = _VERDICTS[::-1] if negated else _VERDICTS
        return bytearray().join(chain(
            chain.from_iterable(zip(parts, map(verdicts.__getitem__,
                                               test(cells)))), parts[-1:]))

    def top(self, positions: Sequence[int] | None, desc: bool, k: int,
            keep: Callable[[Sequence[int]], Sequence[int] | None] | None
            = None) -> list[int] | None:
        """The first ``k`` cells at ``positions`` (None: all) in ORDER BY
        order, and the ties of the last: the ascending indices into
        ``positions`` of the cells ``keep`` passes (None: every cell) among
        the whole buckets walked from the winning end — NULL's first for
        DESC, last for ASC — until ``k`` pass.  A cell of a bucket not
        walked orders after every one of them.  ``keep`` takes ascending
        positions, a batch of buckets at a time, and returns those that
        pass: the first batch holds ``k`` cells, each next one as many as
        the pass rate so far says are left to find (as many as walked
        while none passed).  None when a cell is NaN (it orders against
        nothing) or ``keep`` returns None."""
        last = len(self.lows)
        order = chain((NULL_CODE,), range(last, -1, -1)) if desc \
            else chain(range(last + 1), (NULL_CODE,))
        buckets = self._buckets(positions, order)
        if buckets is None:
            return None
        kept: list[int] = []
        batch: list[int] = []
        walked, want = 0, k
        for cells in chain(buckets, [None]):
            if cells is not None:
                batch += cells
                if len(batch) < want:
                    continue
            elif not batch:
                break
            batch.sort()
            if keep is None:
                kept += batch
            else:
                at = batch if positions is None else take(positions, batch)
                passed = keep(at)
                if passed is None:
                    return None
                passed = set(passed)
                kept += compress(batch, map(passed.__contains__, at))
            walked += len(batch)
            if len(kept) >= k:
                break
            want = (k - len(kept)) * walked // len(kept) + 1 if kept \
                else walked
            batch = []
        kept.sort()
        return kept

    def _buckets(self, positions: Sequence[int] | None,
                 order: Iterable[int]) -> Iterator[Sequence[int]] | None:
        """The ascending indices into ``positions`` (None: all cells) of
        the cells of each code of ``order``, in that order (a code no cell
        holds yields nothing), or None when one of them is NaN.  Over all
        cells or one stretch of them a code's cells are a slice of its
        positions over the whole column, found once and kept
        (:meth:`_cells`); over other positions, their own codes are
        searched."""
        if positions is None or isinstance(positions, range) \
                and positions.step == 1:
            low, high = (0, len(self.codes)) if positions is None \
                else (positions.start, positions.stop)
            nan = self._cells(NAN_CODE)
            if bisect.bisect_left(nan, low) < bisect.bisect_left(nan, high):
                return None
            return self._slices(order, low, high)
        codes = self.at(positions)
        if NAN_CODE in codes:
            return None
        return _found(codes, order)

    def _slices(self, order: Iterable[int], low: int,
                high: int) -> Iterator[Sequence[int]]:
        """:meth:`_buckets` over the stretch ``low .. high - 1`` (the kept
        positions themselves over the whole column: read, not changed)."""
        whole = low == 0 and high == len(self.codes)
        for code in order:
            cells = self._cells(code)
            if not whole:
                cells = cells[bisect.bisect_left(cells, low):
                              bisect.bisect_left(cells, high)]
            if cells:
                yield list(map((-low).__add__, cells)) if low else cells

    def _cells(self, code: int) -> array:
        """The ascending positions of the column's cells holding ``code``,
        searched at the first walk that reaches the code and kept, 4 bytes
        a cell (two first walks may both search; either array stays)."""
        cells = self._by_code.get(code)
        if cells is None:
            cells = self._by_code[code] = array(
                "i", next(_found(self.codes, (code,)), ()))
        return cells


def _found(codes: bytes, order: Iterable[int]) -> Iterator[list[int]]:
    """The ascending indices of ``codes`` holding each code of ``order``,
    in that order (a code no cell holds yields nothing)."""
    for code in order:
        at = codes.find(code)
        cells = []
        while at >= 0:
            cells.append(at)
            at = codes.find(code, at + 1)
        if cells:
            yield cells


#: A bit of ``format(n, "b")`` as a 0/1 byte.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

#: One 0/1 NULL flag byte turned into a selector of the non-NULL cells.
_NOT_NULL = bytes.maketrans(b"\0\1", b"\1\0")


def _packed(flags: bytes) -> bytearray:
    """One 0/1 byte per position as a packed bitmap: position i's to bit
    ``i & 7`` of byte ``i >> 3`` — eight strides ORed as big integers."""
    packed = 0
    for bit in range(8):
        packed |= int.from_bytes(flags[bit::8], "little") << bit
    return bytearray(packed.to_bytes((len(flags) + 7) // 8, "little"))


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
                 "_texts", "_imprint")

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
        self._imprint: Imprint | None = None

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
            nulls = _packed(bytes(map(is_, values, repeat(None))))
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

    def spliced(self, col_type: ColumnType, pieces: Sequence[Sequence[Any]],
                dict_max: int = DICT_MAX_ENTRIES) -> "ColumnSegment":
        """What :meth:`encode` makes of the cells ``pieces`` name in order
        — a ``range`` is a stretch of this column's positions (the ranges
        ascending and disjoint), any other piece a list of new values —
        with every stretch copied, not decoded: a slice of the typed
        buffer, and of the null bitmap shifted as a big integer.  Only the
        new values are encoded, by :meth:`encode`'s rules.  A dictionary
        keeps its codes unless a value lost its last cell or a first
        occurrence moved out of order (:meth:`_recoded`); the zone map's
        bounds are recomputed over the spliced buffer by :func:`_bounds`,
        as :meth:`encode` computes them.  A ``raw`` column, an int past 64
        bits or a dictionary past ``dict_max`` is decoded and encoded
        afresh.  A built :class:`Imprint` is carried over
        (:meth:`Imprint.carried`)."""
        count = sum(map(len, pieces))
        column = self._copied(col_type, pieces, count, dict_max)
        if column is None:
            column = ColumnSegment.encode(self.name, col_type, list(
                chain.from_iterable(self.gather(piece) if isinstance(
                    piece, range) else piece for piece in pieces)), dict_max)
        imprint = self._imprint
        if imprint is not None and column.encoding in ("int", "float", "bool"):
            column._imprint = imprint.carried(pieces, count)
        return column

    def _copied(self, col_type: ColumnType, pieces: Sequence[Sequence[Any]],
                count: int, dict_max: int) -> "ColumnSegment | None":
        """:meth:`spliced` by copying, or None: encode afresh."""
        encoding = self.encoding
        added = [v for piece in pieces if not isinstance(piece, range)
                 for v in piece if v is not None]
        if encoding == "raw" or encoding == "int" and added and (
                min(added) < _INT64_MIN or max(added) > _INT64_MAX):
            return None
        old = self._null_bytes()
        flags = b"".join(old[piece.start:piece.stop] if isinstance(
            piece, range) else bytes(map(is_, piece, repeat(None)))
            for piece in pieces)
        null_count = flags.count(1)
        nulls = _packed(flags) if null_count else None
        if encoding == "dict":
            data, dictionary = self._recoded(pieces, added)
            if len(dictionary) > dict_max:
                return None
            low, high = _bounds(col_type, dictionary)
            return ColumnSegment(self.name, encoding, data, dictionary, nulls,
                                 null_count, count, low, high)
        typecode = _TYPECODES[encoding]
        data = array(typecode)
        for piece in pieces:  # (NULL's placeholder: encode's 0 / 0.0 / False)
            data += self.data[piece.start:piece.stop] \
                if isinstance(piece, range) else array(
                    typecode, [0 if v is None else v for v in piece])
        low, high = _bounds(col_type, data if not null_count else list(
            compress(data, flags.translate(_NOT_NULL))))
        return ColumnSegment(self.name, encoding, data, None, nulls,
                             null_count, count, low, high)

    def _null_bytes(self) -> bytes:
        """One 0/1 byte per position, 1 for a NULL: the bitmap unpacked
        (its bits in ``format``'s text, read from the low end)."""
        if not self.null_count:
            return bytes(self.count)
        bits = format(int.from_bytes(self.nulls, "little"), f"0{self.count}b")
        return bits[::-1].encode("ascii").translate(_BIT_BYTES)

    def _recoded(self, pieces: Sequence[Sequence[Any]],
                 added: Sequence[Any]) -> tuple[array, list[str]]:
        """The dictionary codes of the cells ``pieces`` name and their
        dictionary in first-occurrence order: the old codes, a new value
        coded after every old one, renumbered by one pass over the codes
        when a value lost its last cell or a first occurrence moved past
        another's."""
        old = self.dictionary
        code_of = dict(zip(old, range(len(old))))
        for v in added:
            code_of.setdefault(v, len(code_of))
        dictionary = list(code_of)
        code_of[None] = -1
        data = array("i")
        for piece in pieces:
            data += self.data[piece.start:piece.stop] \
                if isinstance(piece, range) \
                else array("i", map(code_of.__getitem__, piece))
        order = [code for code in dict.fromkeys(data) if code != -1]
        if order != list(range(len(dictionary))):
            back = [-1] * (len(dictionary) + 1)  # (-1 stays -1)
            for new, code in enumerate(order):
                back[code] = new
            data = array("i", map(back.__getitem__, data))
            dictionary = [dictionary[code] for code in order]
        return data, dictionary

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

    def imprint(self) -> Imprint | None:
        """The column's :class:`Imprint` (None: not an ``int``/``float``/
        ``bool`` column), built on first use.  Two first uses at once may
        both build one; each is equal, and either stays."""
        imprint = self._imprint
        if imprint is None and self.encoding in ("int", "float", "bool"):
            imprint = self._imprint = Imprint.sampled(self)
            metrics.get_registry().inc("segments.imprints_built")
        return imprint

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

    __slots__ = ("positions", "bounds", "_columns", "_copies", "_codes",
                 "_rank")

    def __init__(self, columns: dict[str, ColumnSegment],
                 names: Sequence[str], count: int) -> None:
        self._columns = columns
        self._copies: dict[str, tuple[Sequence[Any], Any]] = {}
        self._codes: dict[str, bytes] = {}
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

    def codes(self, name: str) -> bytes | None:
        """One column's imprint codes in this order (gathered once), or
        None: the column has no :class:`Imprint`."""
        codes = self._codes.get(name)
        if codes is None:
            imprint = self._columns[name].imprint()
            if imprint is None:
                return None
            codes = self._codes[name] = imprint.at(self.positions)
        return codes

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
                     dict_max: int = DICT_MAX_ENTRIES) -> "Segment":
        """Freeze ascending ``rids`` and, per schema column in order, the
        values of those rows into one segment.  ``columns`` may be lazy:
        one column is held at a time."""
        return Segment(schema, array("q", rids), {
            col.name: ColumnSegment.encode(col.name, col.col_type, values,
                                           dict_max=dict_max)
            for col, values in zip(schema.columns, columns)})

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
            dict_max=dict_max)

    def spliced(self, pieces: Sequence[Sequence[Any]],
                dict_max: int = DICT_MAX_ENTRIES) -> "Segment":
        """The segment :meth:`from_columns` makes of the rows ``pieces``
        name in order — a ``range`` is a stretch of this segment's
        positions (the ranges ascending and disjoint), any other piece a
        list of new ``(rid, values)`` rows — byte for byte, with each
        stretch's rids and cells copied (:meth:`ColumnSegment.spliced`)."""
        rids = array("q")
        for piece in pieces:
            rids += self.rids[piece.start:piece.stop] \
                if isinstance(piece, range) \
                else array("q", map(itemgetter(0), piece))
        return Segment(self.schema, rids, {
            col.name: self.columns[col.name].spliced(col.col_type, [
                piece if isinstance(piece, range)
                else [values.get(col.name) for _, values in piece]
                for piece in pieces], dict_max)
            for col in self.schema.columns})

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
