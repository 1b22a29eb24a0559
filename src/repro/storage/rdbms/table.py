"""Heap tables: in-memory row storage with stable row IDs.

Since PR 6 a heap table has two regions (DESIGN.md §12):

* the **row-store tail** — the mutable ``rid -> values`` dict every write
  lands in;
* zero or more immutable **columnar segments** — cold rows frozen by
  :meth:`HeapTable.compact` into the typed layout of
  :mod:`repro.storage.rdbms.segments`.

A write never changes a segment.  Beside each one the table keeps its
**delete vector** — the positions that are *dead*: deleted, or superseded
by a tail row stored under the same rid.  ``update`` of a frozen row
decodes that one row, marks its position dead and stores the new values
in the tail; ``delete`` marks it dead; :meth:`HeapTable.compact` rewrites
the segments that have dead positions and no others.

Readers never observe the split, and they read in rid order: one function
(:meth:`HeapTable._interleave`) merges segments and tail into **scan
units** (DESIGN.md §11) — ``("segment", Segment, positions)`` names live
rows of a segment without decoding them, ``("rows", [(rid, values), ...],
None)`` carries tail rows *by reference*, and a tail row whose rid falls
inside a segment's range comes between two stretches of that segment.
:meth:`scan_units` enumerates a table that way and :meth:`locate` maps
index-produced rids to the same shape.  Sharing the stored value dicts is
safe because the table never mutates one in place: every write stores a
freshly validated dict (a bulk load, dicts its caller hands over), so a
reader (or a snapshot) holding the old one keeps seeing the old values.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter, ne
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ShardedLogError
from repro.storage.rdbms.segments import SEGMENT_TARGET_ROWS, Segment, take
from repro.storage.rdbms.types import SchemaError, TableSchema
from repro.telemetry import metrics


#: Tail rows per ``rows`` scan unit: bounds what a LIMIT that stops early
#: has already built, and is the stride of per-unit guard polls.
TAIL_UNIT_ROWS = 4_096

#: ``(kind, unit, selected)`` — see the module docstring.
ScanUnit = tuple[str, Any, Sequence[int] | None]


@dataclass(frozen=True)
class Row:
    """A stored row: stable ``rid`` plus column values."""

    rid: int
    values: dict[str, Any]

    def __getitem__(self, column: str) -> Any:
        return self.values[column]


def _live_between(dead: Sequence[int], start: int, stop: int) -> Sequence[int]:
    """Positions ``start .. stop - 1`` minus the ascending ``dead`` ones —
    a ``range`` when none of them is dead."""
    lo, hi = bisect_left(dead, start), bisect_left(dead, stop)
    if lo == hi:
        return range(start, stop)
    live: list[int] = []
    for pos in dead[lo:hi]:
        live.extend(range(start, pos))
        start = pos + 1
    live.extend(range(start, stop))
    return live


#: A chunk is spliced only when its pieces (kept stretches and runs of
#: tail rows) average at least this many kept rows: each piece costs a
#: slice per column, about what eight encoded rows cost (a 65,536-row
#: segment of four columns, CPython 3.11: ~8 us a piece, ~1.2 us a row).
SPLICE_PIECE_ROWS = 8


def _stretches(dead: Sequence[int], start: int, stop: int) -> list[range]:
    """Positions ``start .. stop - 1`` minus the ascending ``dead`` ones,
    as the ranges between them (none empty)."""
    out = []
    for pos in dead[bisect_left(dead, start):bisect_left(dead, stop)]:
        if pos > start:
            out.append(range(start, pos))
        start = pos + 1
    if stop > start:
        out.append(range(start, stop))
    return out


def _cuts(dead: Sequence[int], live: Sequence[int]) -> int:
    """How many stretches of the ascending ``dead`` positions lie between
    the first and the last of the ascending ``live`` ones: each cuts the
    live ones once more, however long it is."""
    inside = dead[bisect_left(dead, live[0]):bisect_left(dead, live[-1])]
    if not inside:
        return 0
    # a dead position starts a stretch unless the one before it is dead
    return 1 + sum(map(ne, inside[1:], map((1).__add__, inside)))


def _chunks(units: Iterable[ScanUnit], rows: int) -> Iterator[list[ScanUnit]]:
    """``units`` cut into lists of ``rows`` rows each (the last: the rest)."""
    chunk: list[ScanUnit] = []
    room = rows
    for kind, unit, selected in units:
        items = unit if kind == "rows" else selected
        while items:
            part, items = items[:room], items[room:]
            chunk.append((kind, part, None) if kind == "rows"
                         else (kind, unit, part))
            room -= len(part)
            if not room:
                yield chunk
                chunk, room = [], rows
    if chunk:
        yield chunk


def gather_column(units: list[ScanUnit], name: str) -> Sequence[Any]:
    """One column's values over ``units``, in order — no row is built."""
    parts = [[values.get(name) for _, values in unit] if kind == "rows"
             else unit.gather((name,), selected)[0]
             for kind, unit, selected in units]
    return parts[0] if len(parts) == 1 else list(chain.from_iterable(parts))


def gather_rids(units: Iterable[ScanUnit]) -> list[int]:
    """The rids of ``units``, in order."""
    return list(chain.from_iterable(
        map(itemgetter(0), unit) if kind == "rows"
        else take(unit.rids, selected) for kind, unit, selected in units))


def unit_len(kind: str, unit: Any, selected: Sequence[int] | None) -> int:
    """Rows one scan unit stands for."""
    return len(unit) if kind == "rows" else len(selected)


def unit_rows(kind: str, unit: Any, selected: Sequence[int] | None,
              ) -> Iterable[tuple[int, dict[str, Any]]]:
    """One scan unit's ``(rid, values)`` pairs in rid order, all columns.
    Tail rows come back by reference: consumers must not mutate them."""
    return unit if kind == "rows" else unit.rows_at(selected)


def iter_rows(units: Iterable[ScanUnit]) -> Iterator[Row]:
    """Scan units as caller-owned :class:`Row` objects (the public read
    APIs hand out rows their callers may keep or change, so tail value
    dicts are copied here; segment rows decode into fresh dicts anyway)."""
    for kind, unit, selected in units:
        if kind == "rows":
            for rid, values in unit:
                yield Row(rid, dict(values))
        else:
            for rid, values in unit.rows_at(selected):
                yield Row(rid, values)


def fetch_rows(units: Iterable[ScanUnit]) -> list[Row]:
    """:func:`iter_rows`, materialized."""
    return list(iter_rows(units))


class HeapTable:
    """An unordered collection of rows addressed by row ID.

    The engine layers locking, logging, and indexing on top; the heap table
    itself only enforces the schema and primary-key uniqueness, and hands
    out keys: with an INT primary key (:attr:`TableSchema.serial_key`) it
    keeps ``_next_key``, one past every key it ever stored — an insert or
    an update moves it up, a delete or an abort's undo never moves it
    back — and an insert that leaves the key out or gives NULL takes it.

    A table loaded from a checkpoint image with frozen rows leaves its pk
    map (``_pk_index``) unset until the first key lookup or write builds
    it (:meth:`__getattr__`).
    """

    def __init__(self, schema: TableSchema) -> None:
        self._schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_rid = 0
        self._next_key = 0
        self._pk_index: dict[Any, int] = {}
        self._segments: list[Segment] = []
        #: segment -> its dead positions, ascending (the delete vector);
        #: a segment with none has no entry
        self._dead: dict[Segment, list[int]] = {}
        #: lazily built by :meth:`_segment_directory`; reset to None by
        #: whatever changes ``_segments``
        self._directory: tuple[list[int], list[Segment]] | None = None

    def __getattr__(self, name: str) -> Any:
        """The pk map of a table loaded from an image (only an unset
        attribute gets here), built on first use under the table's lock
        — so a writer's first insert and a reader's first lookup build
        one — from the tail's entries and the pk column at the positions
        live when the image was loaded.  Every write since that adds,
        moves or drops a key went through the map, so built first; an
        update that keeps its row's key changes no entry."""
        pending = self.__dict__.get("_pk_pending") \
            if name == "_pk_index" else None
        if pending is not None:
            lock, pks, frozen = pending
            with lock:
                if "_pk_index" not in self.__dict__:
                    pk = self._schema.primary_key
                    for segment, dead in frozen:
                        live = _live_between(dead, 0, segment.count)
                        pks.update(zip(segment.gather((pk,), live)[0],
                                       take(segment.rids, live)))
                    self._pk_index = pks
                    del self._pk_pending
        try:  # (built by now: here, or by another first use)
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def schema(self) -> TableSchema:
        return self._schema

    def committed_view(self, undo_entries: Sequence[tuple]) -> "HeapTable":
        """A table nobody writes to, holding this one's committed state —
        what a snapshot reads.  ``undo_entries`` are the change-log
        entries of every active uncommitted transaction *for this table*,
        in append order (``(kind, table, rid, before, after)`` as
        :class:`~repro.storage.rdbms.engine.Transaction` keeps them; X
        locks give each rid one uncommitted writer, so different
        transactions' entries never overlap).  Call with writers kept out
        (the database's mutate lock).

        The tail is a shallow copy (value dicts are never mutated in
        place) with the entries applied in reverse, which rolls it back to
        committed data.  Segments are immutable and shared; each delete
        vector is copied — it may hold a position an uncommitted writer
        marked dead, but the reversed entry has put that row's committed
        values into the tail copy under the same rid, and readers take the
        tail row for a dead position's rid, so nothing more is undone.
        The pk map is left empty: it covers frozen rows too, O(total) to
        copy, and a snapshot reads the live one
        (:mod:`repro.storage.rdbms.mvcc`).
        """
        view = HeapTable(self._schema)
        rows = view._rows = dict(self._rows)
        for kind, _, rid, before, _ in reversed(undo_entries):
            if kind == "insert":
                rows.pop(rid, None)
            else:  # update / delete
                rows[rid] = before
        view._next_rid, view._next_key = self._next_rid, self._next_key
        view._segments = list(self._segments)
        view._dead = {segment: list(dead)
                      for segment, dead in self._dead.items()}
        return view

    @property
    def name(self) -> str:
        return self._schema.name

    def __len__(self) -> int:
        return (len(self._rows) + sum(s.count for s in self._segments)
                - self.dead_rows)

    @property
    def tail_size(self) -> int:
        """Rows still in the mutable row-store tail."""
        return len(self._rows)

    @property
    def dead_rows(self) -> int:
        """Frozen positions marked dead and not yet compacted away."""
        # the planner asks without a lock: list the vectors in one step,
        # before a writer can add or drop one
        return sum(map(len, list(self._dead.values())))

    @property
    def segments(self) -> list[Segment]:
        return list(self._segments)

    def dead_positions(self, segment: Segment) -> Sequence[int]:
        """The ascending dead positions of one of this table's segments."""
        return self._dead.get(segment, ())

    def live_positions(self, segment: Segment) -> Sequence[int]:
        """Its other positions, ascending (a ``range`` when none is dead)."""
        return _live_between(self.dead_positions(segment), 0, segment.count)

    def segment_count(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------- mutation

    def insert(self, values: dict[str, Any], rid: int | None = None) -> Row:
        """Insert a row; returns the stored :class:`Row` (a copy: the
        stored dict is :meth:`stored_values`).

        ``rid`` may be forced (an abort's undo, :meth:`load`'s row-by-row
        path); otherwise assigned.  A serial key left out or NULL is
        assigned too: ``_next_key``.

        Raises:
            SchemaError: on schema or primary-key violations.
        """
        serial = self._schema.serial_key
        if serial is not None and values.get(serial) is None:
            values = {**values, serial: self._next_key}
        row_values = self._schema.validate_row(values)
        pk = self._schema.primary_key
        if pk is not None:
            key = row_values[pk]
            if key is None:
                raise SchemaError(f"primary key {pk!r} may not be NULL")
            if key in self._pk_index:
                raise SchemaError(f"duplicate primary key {key!r}")
            if serial is not None and key >= self._next_key:
                self._next_key = key + 1
        if rid is None:
            rid = self._next_rid  # above every rid ever stored: free
        elif self.holds(rid):
            raise SchemaError(f"row id {rid} already in use")
        if rid >= self._next_rid:
            self._next_rid = rid + 1
        self._rows[rid] = row_values
        if pk is not None:
            self._pk_index[row_values[pk]] = rid
        return Row(rid=rid, values=dict(row_values))

    def stored_values(self, rid: int) -> dict[str, Any]:
        """The values dict stored for tail row ``rid``, itself: never
        mutated in place, and read-only to the caller."""
        return self._rows[rid]

    def load(self, rows: Sequence[tuple[int, dict[str, Any]]]) -> None:
        """Store caller-owned ``(rid, values)`` rows as the same
        ``insert(values, rid=rid)`` calls in order would (recovery).

        The batch is checked whole (:meth:`_loadable`) and its dicts
        are stored as they are, no row copied.  A batch that needs a
        coercion or fails a check goes through :meth:`insert` row by row
        instead, so the stored values and the first error are
        :meth:`insert`'s.

        Raises:
            SchemaError: as :meth:`insert`.
        """
        rids = list(map(itemgetter(0), rows))
        batch = list(map(itemgetter(1), rows))
        if not rows or not self._loadable(rids, batch):
            for rid, values in rows:
                self.insert(values, rid=rid)
            return
        self._rows.update(rows)
        pk = self._schema.primary_key
        if pk is not None:
            keys = list(map(itemgetter(pk), batch))
            self._pk_index.update(zip(keys, rids))
            if self._schema.serial_key is not None:
                self._next_key = max(self._next_key, max(keys) + 1)
        self._next_rid = max(self._next_rid, max(rids) + 1)

    def _loadable(self, rids: list[int],
                  batch: list[dict[str, Any]]) -> bool:
        """Whether :meth:`insert` would store each of ``batch`` unchanged
        under its rid: the schema keeps the dicts as they are
        (:meth:`TableSchema.stores_as_is`), the primary keys are distinct,
        not NULL and not held, and the rids distinct and not in use."""
        if not self._schema.stores_as_is(batch):
            return False
        pk = self._schema.primary_key
        if pk is not None:
            keys = set(map(itemgetter(pk), batch))
            if None in keys or len(keys) < len(batch) \
                    or not self._pk_index.keys().isdisjoint(keys):
                return False
        wanted = set(rids)
        if len(wanted) < len(rids) or not self._rows.keys().isdisjoint(wanted):
            return False
        top = max((s.max_rid for s in self._segments if s.count), default=-1)
        return min(wanted) > top or all(
            self._segment_of(rid) is None for rid in wanted if rid <= top)

    def _current(self, rid: int,
                 ) -> tuple[dict[str, Any], tuple[Segment, int] | None]:
        """A caller-owned copy of the row's values, and where the row is
        frozen (None: it lives in the tail).  A frozen row costs one
        decoded row, not its segment.

        Raises:
            KeyError: unknown rid.
        """
        values = self._rows.get(rid)
        if values is not None:
            return dict(values), None
        frozen = self._segment_of(rid)
        if frozen is None:
            raise KeyError(rid)
        segment, pos = frozen
        return next(segment.rows_at((pos,)))[1], frozen

    def holds(self, rid: int) -> bool:
        """Whether a row lives under ``rid``."""
        return rid in self._rows or self._segment_of(rid) is not None

    def _mark_dead(self, segment: Segment, pos: int) -> None:
        insort(self._dead.setdefault(segment, []), pos)
        metrics.get_registry().inc("segments.rows_masked")
        self._publish_dead_rows()

    def _publish_dead_rows(self) -> None:
        metrics.get_registry().set_gauge(
            f"segments.dead_rows.{self.name}", self.dead_rows)

    def update(self, rid: int, changes: dict[str, Any]) -> tuple[Row, Row]:
        """Apply column changes to one row; returns (old_row, new_row).

        A frozen row's position is marked dead and the new values go to
        the tail under the same rid; a rejected update changes nothing,
        and neither does one whose values equal the stored ones (the
        returned rows then compare equal).

        Raises:
            KeyError: unknown rid.
            SchemaError: schema or primary-key violations.
        """
        old_values, frozen = self._current(rid)
        new_values = self._schema.validate_row({**old_values, **changes})
        if new_values == old_values:
            return Row(rid, old_values), Row(rid, new_values)
        pk = self._schema.primary_key
        if pk is not None and new_values[pk] != old_values[pk]:
            if new_values[pk] is None:
                raise SchemaError(f"primary key {pk!r} may not be NULL")
            if new_values[pk] in self._pk_index:
                raise SchemaError(f"duplicate primary key {new_values[pk]!r}")
            del self._pk_index[old_values[pk]]
            self._pk_index[new_values[pk]] = rid
            if self._schema.serial_key is not None:
                self._next_key = max(self._next_key, new_values[pk] + 1)
        if frozen is not None:
            self._mark_dead(*frozen)
        self._rows[rid] = new_values
        return Row(rid, old_values), Row(rid, dict(new_values))

    def delete(self, rid: int) -> Row:
        """Delete one row (a frozen one by marking its position dead);
        returns it.

        Raises:
            KeyError: unknown rid.
        """
        values, frozen = self._current(rid)
        if frozen is None:
            del self._rows[rid]
        else:
            self._mark_dead(*frozen)
        pk = self._schema.primary_key
        if pk is not None:
            self._pk_index.pop(values[pk], None)
        return Row(rid, values)

    def replace_schema(self, schema: TableSchema,
                       migrate: Callable[[dict[str, Any]], dict[str, Any]]) -> None:
        """Swap in a new schema, rewriting every row through ``migrate``.

        Used by the schema-evolution subsystem (Figure 1 Part IV).
        Segments are melted first: they are typed against the old schema.
        """
        self.melt_all()
        new_rows: dict[int, dict[str, Any]] = {}
        new_pk: dict[Any, int] = {}
        pk = schema.primary_key
        for rid, values in self._rows.items():
            migrated = schema.validate_row(migrate(dict(values)))
            if pk is not None:
                key = migrated[pk]
                if key is None or key in new_pk:
                    raise SchemaError(f"migration breaks primary key at rid {rid}")
                new_pk[key] = rid
            new_rows[rid] = migrated
        self._schema = schema
        self._rows = new_rows
        self._pk_index = new_pk
        if schema.serial_key is not None:  # (a retype can make the key INT)
            self._next_key = max([self._next_key]
                                 + [key + 1 for key in new_pk])
        self.__dict__.pop("_pk_pending", None)  # (its segments are gone)

    # ------------------------------------------------------------ segments

    def compact(self, max_rid: int | None = None,
                target_rows: int = SEGMENT_TARGET_ROWS) -> tuple[int, int, int]:
        """Freeze tail rows with ``rid <= max_rid`` into columnar segments
        and fold the delete vectors in.

        In rid order: a segment that has a dead position (or a tail row
        inside its rid range) is rewritten — its live rows and those tail
        rows join the run being frozen — and an untouched segment ends
        the run, so no new segment's rid range reaches across an existing
        one's.  A run is :meth:`_interleave`'s rid-order merge cut into
        chunks of ``target_rows``.  A chunk whose kept rows all come from
        one segment is that segment spliced (:meth:`Segment.spliced`:
        its stretches copied as buffers, a carried imprint with them,
        only the tail rows encoded) unless its pieces are too short to
        copy (:data:`SPLICE_PIECE_ROWS`); any other is built a column at
        a time by :meth:`Segment.from_columns` (no row dict is made).  Both
        make the same bytes of the same rows, so WAL replay of a
        ``compact`` record over the same table state reproduces the
        layout.  Returns ``(segments_created, rows_frozen,
        max_rid_used)``; counters ``segments.rows_frozen`` and, of
        those, ``segments.rows_copied``.
        """
        if target_rows < 1:
            raise ValueError("target_rows must be >= 1")
        if max_rid is None:
            max_rid = self._next_rid - 1
        names = self._schema.column_names
        fresh: list[Segment] = []
        frozen = 0
        tail = sorted(self._rows)
        del tail[bisect_right(tail, max_rid):]
        # per run: the segments it rewrites and the tail rids it takes
        runs: list[tuple[list[Segment], list[int]]] = [([], [])]
        at = 0
        for segment in self._segment_directory()[1]:
            first = bisect_left(tail, segment.min_rid, at)
            end = bisect_right(tail, segment.max_rid, first)
            runs[-1][1].extend(tail[at:end])
            if end > first or segment in self._dead:
                runs[-1][0].append(segment)
            else:
                runs.append(([], []))
            at = end
        runs[-1][1].extend(tail[at:])
        copied = 0
        for run in runs:
            for chunk in _chunks(self._interleave(*run), target_rows):
                spliced = self._spliced(chunk)
                if spliced is not None:
                    fresh.append(spliced[0])
                    copied += spliced[1]
                else:
                    fresh.append(Segment.from_columns(
                        self._schema, gather_rids(chunk),
                        (gather_column(chunk, name) for name in names)))
                frozen += fresh[-1].count
        rewritten = [segment for run in runs for segment in run[0]]
        # Everything new is built: only now does the old layout go.
        for segment in rewritten:
            self._segments.remove(segment)
            self._dead.pop(segment, None)
        if rewritten:
            self._publish_dead_rows()
        # a new dict, not deletions from the old one: what is left of a
        # dict costs every copy and scan of the tail what it once held
        self._rows = {rid: values for rid, values in self._rows.items()
                      if rid > max_rid}
        self._segments += fresh
        self._directory = None
        if frozen:
            registry = metrics.get_registry()
            registry.inc("segments.created", len(fresh))
            registry.inc("segments.rows_frozen", frozen)
            registry.inc("segments.rows_copied", copied)
        return len(fresh), frozen, max_rid

    def _spliced(self, chunk: list[ScanUnit]) -> tuple[Segment, int] | None:
        """The segment :meth:`compact` makes of ``chunk`` by splicing the
        one segment all its kept rows come from (:meth:`Segment.spliced`:
        each stretch between dead positions and tail rows a ``range``),
        and the rows it copies; None when they come from two segments or
        none, or when its pieces are too short to copy
        (:data:`SPLICE_PIECE_ROWS`, told by :func:`_cuts` before a
        stretch is cut)."""
        sources = {unit for kind, unit, _ in chunk if kind == "segment"}
        if len(sources) != 1:
            return None
        source = sources.pop()
        dead = self._dead.get(source, ())
        kept = pieces = 0
        for kind, _, selected in chunk:
            pieces += 1
            if kind == "segment":
                kept += len(selected)
                pieces += _cuts(dead, selected)
        if pieces * SPLICE_PIECE_ROWS > kept:
            return None
        cut: list[Sequence[Any]] = []
        for kind, unit, selected in chunk:
            if kind == "rows":
                cut.append(unit)
            else:
                cut += _stretches(dead, selected[0], selected[-1] + 1)
        return source.spliced(cut), kept

    def melt_all(self) -> None:
        """Decode every segment's live rows back into the row-store tail
        (a change of schema re-types every row; no write does this)."""
        registry = metrics.get_registry()
        for segment in self._segments:
            live = self.live_positions(segment)
            self._rows.update(segment.rows_at(live))
            registry.inc("segments.melted")
            registry.inc("segments.rows_melted", len(live))
        if self._dead:
            self._dead = {}
            self._publish_dead_rows()
        self._segments = []
        self._directory = None

    def _segment_directory(self) -> tuple[list[int], list[Segment]]:
        """``(first rids, segments)`` of the non-empty segments in rid
        order, for one bisect per lookup.  Their rid ranges never
        overlap: :meth:`compact` cuts them that way, and a checkpoint
        image brings them back as they were."""
        directory = self._directory
        if directory is None:
            segments = sorted((s for s in self._segments if s.count),
                              key=attrgetter("min_rid"))
            directory = self._directory = (
                [s.min_rid for s in segments], segments)
        return directory

    def _segment_of(self, rid: int) -> tuple[Segment, int] | None:
        """The segment holding ``rid`` alive and its position there, or
        None (a dead position holds nothing)."""
        mins, segments = self._segment_directory()
        at = bisect_right(mins, rid) - 1
        if at < 0:
            return None
        segment = segments[at]
        pos = segment.rid_position(rid)
        if pos is None:
            return None
        dead = self._dead.get(segment, ())
        at = bisect_left(dead, pos)
        return (segment, pos) if at == len(dead) or dead[at] != pos else None

    def locate(self, rids: Iterable[int]) -> list[ScanUnit]:
        """Ascending ``rids`` as scan units, still in rid order: runs of
        frozen rows become ``("segment", segment, positions)``, runs of
        tail rows ``("rows", [(rid, values), ...], None)`` by reference.
        The tail is asked first — a tail row supersedes the frozen one
        under its rid.  Nothing is decoded or copied.

        Raises:
            KeyError: a rid the table does not hold.
        """
        rids = list(rids)
        units: list[ScanUnit] = []
        tail = self._rows
        at, n = 0, len(rids)
        while at < n:
            rid = rids[at]
            values = tail.get(rid)
            if values is not None:
                members = []
                while values is not None:
                    members.append((rid, values))
                    at += 1
                    if at == n:
                        break
                    rid = rids[at]
                    values = tail.get(rid)
                units.append(("rows", members, None))
                continue
            found = self._segment_of(rid)
            if found is None:
                raise KeyError(rid)
            segment, pos = found
            positions = [pos]
            # Every rid up to the segment's last is, bar an interleaved
            # tail row, in the same segment: position the whole stretch
            # at once, and end it before the first dead position.
            end = bisect_right(rids, segment.max_rid, at)
            if end > at + 1:
                positions = segment.positions_of(rids[at:end])
                if positions is None:
                    end, positions = at + 1, [pos]
                dead = self._dead.get(segment, ())
                for gone in dead[bisect_left(dead, pos):
                                 bisect_right(dead, positions[-1])]:
                    cut = bisect_left(positions, gone)
                    if positions[cut] == gone:
                        del positions[cut:]
                        end = at + cut
                        break
            if units and units[-1][1] is segment:
                units[-1][2].extend(positions)
            else:
                units.append(("segment", segment, positions))
            at = end
        return units

    def segment_layout(self) -> list[list[int]]:
        """``[[min_rid, max_rid, count], ...]``: the layout as tests
        observe it (nothing in the engine reads it).  ``count`` is the
        segment's live rows plus the tail rows inside its rid range; a
        range left with none is omitted.
        """
        layout = []
        tail = sorted(self._rows)
        for s in self._segments:
            count = len(self.live_positions(s)) + (
                bisect_right(tail, s.max_rid) - bisect_left(tail, s.min_rid))
            if count:
                layout.append([s.min_rid, s.max_rid, count])
        return layout

    def image(self) -> dict[str, Any]:
        """The table's data as a checkpoint stores it: the tail rows by
        rid (value dicts by reference), each segment's
        :meth:`Segment.image` with its dead positions, and the next key.
        No row is decoded."""
        return {
            "rows": {str(rid): values for rid, values in self._rows.items()},
            "segments": [{**segment.image(),
                          "dead": self._dead.get(segment, [])}
                         for segment in self._segments],
            "next_key": self._next_key,
        }

    def load_image(self, image: dict[str, Any]) -> None:
        """Take in what :meth:`image` made (recovery, into an empty
        table): the tail through :meth:`load`, each segment straight from
        its buffers (:meth:`Segment.from_image`: no row dict, no
        encoding) with its dead positions.  The pk map waits for its
        first use (:meth:`__getattr__`) with the tail's entries and each
        segment's live positions.  An image without the next key (an
        older layout) continues after its largest key, read from the
        tail and the segments' zone maps.

        Raises:
            ValueError: the image holds segments as rid ranges, the
                layout before encoded segments, or columns without zone
                maps, the layout before those.
            ShardedLogError: a segment of the image is tagged with a
                shard.
        """
        entries = image.get("segments", ())
        older = "segments as rid ranges" if any(
            not isinstance(entry, dict) for entry in entries) \
            else "columns without zone maps" if any(
                "min" not in column for entry in entries
                for column in entry["columns"].values()) else None
        if older is not None:
            raise ValueError(
                f"table {self.name!r}: its image holds {older}, an older "
                "layout which this version neither reads nor migrates")
        if any(entry.get("shard") is not None for entry in entries):
            raise ShardedLogError(self.name)
        self.load([(int(rid), values)
                   for rid, values in image.get("rows", {}).items()])
        frozen = []
        for entry in entries:
            segment = Segment.from_image(self._schema, entry)
            self._segments.append(segment)
            if entry["dead"]:
                self._dead[segment] = list(entry["dead"])
            frozen.append((segment, entry["dead"]))
            if segment.count:  # (a dead position's rid is not reused)
                self._next_rid = max(self._next_rid, segment.max_rid + 1)
        serial = self._schema.serial_key
        if "next_key" in image:
            self._next_key = image["next_key"]
        elif serial is not None:
            self._next_key = max([self._next_key] + [
                segment.columns[serial].max_value + 1
                for segment in self._segments
                if segment.columns[serial].max_value is not None])
        if self._schema.primary_key is not None and frozen:
            self._pk_pending = (threading.Lock(),
                                self.__dict__.pop("_pk_index"), frozen)
        self._directory = None
        if self._dead:
            self._publish_dead_rows()

    # ---------------------------------------------------------------- reads

    def get(self, rid: int) -> Row:
        """Fetch by row ID (tail or segment).

        Raises:
            KeyError: unknown rid.
        """
        return fetch_rows(self.locate((rid,)))[0]

    def get_by_pk(self, key: Any) -> Row | None:
        """Fetch by primary-key value, or None."""
        rid = self._pk_index.get(key)
        if rid is None:
            return None
        return self.get(rid)

    def scan(self) -> Iterator[Row]:
        """Yield all rows in rid order (segments merged with the tail)."""
        return iter_rows(self.scan_units())

    def _interleave(self, segments: list[Segment],
                    tail: list[int]) -> Iterator[ScanUnit]:
        """The rid-order merge every scan reads through: ``segments`` (in
        rid order, ranges disjoint) and the ascending ``tail`` rids, as
        scan units whose concatenation is rid order.

        A segment comes out as stretches of live positions — one, a
        ``range``, when nothing in it was written since it froze — and a
        tail row whose rid falls inside the segment's range (the new
        version of a dead position) sits between two stretches, exactly
        where the row it replaced was.  Tail rows travel in
        :data:`TAIL_UNIT_ROWS` slices, value dicts by reference.
        """
        at = 0  # tail[:at] has been emitted
        for segment in segments:
            rids = segment.rids
            dead = self._dead.get(segment, ())
            end = bisect_right(tail, rids[-1], at)
            start = 0
            for t in range(bisect_left(tail, rids[0], at, end), end):
                split = bisect_left(rids, tail[t], start)
                live = _live_between(dead, start, split)
                if live:
                    yield from self._tail_units(tail[at:t])
                    yield "segment", segment, live
                    at = t
                start = split + (split < segment.count
                                 and rids[split] == tail[t])
            live = _live_between(dead, start, segment.count)
            if live:
                yield from self._tail_units(tail[at:end])
                yield "segment", segment, live
                at = end
        yield from self._tail_units(tail[at:])

    def _tail_units(self, rids: list[int]) -> Iterator[ScanUnit]:
        rows = self._rows
        for at in range(0, len(rids), TAIL_UNIT_ROWS):
            chunk = rids[at:at + TAIL_UNIT_ROWS]
            yield "rows", list(zip(chunk, map(rows.__getitem__, chunk))), None

    def scan_units(self) -> Iterator[ScanUnit]:
        """The scan split into vectorizable units, in global rid order
        (see :meth:`_interleave`).  Lazy: the caller must keep writers
        out while it iterates (a table S lock, or a snapshot clone).
        """
        yield from self._interleave(self._segment_directory()[1],
                                    sorted(self._rows))

    def column_items(self, column: str) -> Iterator[tuple[Any, int]]:
        """``(value, rid)`` of every row for one column, in no particular
        order — what an index or a pk map loads, without decoding (or
        copying) any other column."""
        for segment in self._segments:
            live = self.live_positions(segment)
            yield from zip(segment.gather((column,), live)[0],
                           take(segment.rids, live))
        for rid, values in self._rows.items():
            yield values.get(column), rid

    def column_items_of(self, column: str,
                        rids: Iterable[int]) -> Iterable[tuple[Any, int]]:
        """:meth:`column_items` for those of the ascending ``rids`` the
        table holds, one gather per run of frozen rows (:meth:`locate`)."""
        rows = self._rows
        held = [rid for rid in rids
                if rid in rows or self._segment_of(rid) is not None]
        return zip(gather_column(self.locate(held), column), held)

    def scan_where(self, predicate: Callable[[dict[str, Any]], bool]) -> Iterator[Row]:
        """Filtered scan."""
        for row in self.scan():
            if predicate(row.values):
                yield row

    def rids(self) -> list[int]:
        all_rids = list(self._rows)
        for segment in self._segments:
            all_rids.extend(take(segment.rids, self.live_positions(segment)))
        return sorted(all_rids)
