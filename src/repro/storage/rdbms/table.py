"""Heap tables: in-memory row storage with stable row IDs.

Since PR 6 a heap table has two regions (DESIGN.md §12):

* the **row-store tail** — the mutable ``rid -> values`` dict every write
  lands in, exactly as before;
* zero or more immutable **columnar segments** — cold rows frozen by
  :meth:`HeapTable.compact` into the typed layout of
  :mod:`repro.storage.rdbms.segments`.

Readers never observe the split: :meth:`scan` merges segments and tail in
rid order, :meth:`get` consults both, and any update/delete of a frozen
row *melts* its segment back into the tail first (copy-on-write at
segment granularity).

The executor reads the regions separately, as **scan units** (DESIGN.md
§11): ``("segment", Segment, positions)`` names rows of a segment without
decoding them, ``("rows", [(rid, values), ...], None)`` carries tail rows
*by reference*.  :meth:`scan_units` enumerates a table that way and
:meth:`locate` maps index-produced rids to the same shape.  Sharing the
stored value dicts is safe because the table never mutates one in place:
every write stores a freshly validated dict, so a reader (or a snapshot)
holding the old one keeps seeing the old values.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.storage.rdbms.segments import SEGMENT_TARGET_ROWS, Segment
from repro.storage.rdbms.sharding import ShardSpec
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


def _rid_order(ranges: list[tuple[int, int]]) -> list[int] | None:
    """Indexes of ``(first rid, last rid)`` ranges in rid order, or None
    when two of them overlap."""
    order = sorted(range(len(ranges)), key=lambda i: ranges[i][0])
    if any(ranges[b][0] <= ranges[a][1] for a, b in zip(order, order[1:])):
        return None
    return order


def unit_len(kind: str, unit: Any, selected: Sequence[int] | None) -> int:
    """Rows one scan unit stands for."""
    return len(unit) if kind == "rows" else len(selected)


def unit_rows(kind: str, unit: Any, selected: Sequence[int] | None,
              ) -> Iterable[tuple[int, dict[str, Any]]]:
    """One scan unit's ``(rid, values)`` pairs in rid order, all columns.
    Tail rows come back by reference: consumers must not mutate them."""
    return unit if kind == "rows" else unit.rows_at(selected)


def fetch_rows(units: Iterable[ScanUnit]) -> list[Row]:
    """Scan units as caller-owned :class:`Row` objects (the public read
    APIs hand out rows their callers may keep or change, so tail value
    dicts are copied here; segment rows decode into fresh dicts anyway)."""
    rows: list[Row] = []
    for kind, unit, selected in units:
        if kind == "rows":
            rows.extend(Row(rid, dict(values)) for rid, values in unit)
        else:
            rows.extend(Row(rid, values)
                        for rid, values in unit.rows_at(selected))
    return rows


class HeapTable:
    """An unordered collection of rows addressed by row ID.

    The engine layers locking, logging, and indexing on top; the heap table
    itself only enforces the schema and primary-key uniqueness.
    """

    def __init__(self, schema: TableSchema,
                 shard_spec: ShardSpec | None = None) -> None:
        self._schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_rid = 0
        self._pk_index: dict[Any, int] = {}
        self._segments: list[Segment] = []
        #: lazily built by :meth:`_segment_directory`; reset to None by
        #: whatever changes ``_segments``
        self._directory: tuple[list[int], list[Segment]] | None = None
        # Shard membership covers *all* rids (tail + frozen); compaction
        # and melting move rows between regions without changing shards.
        self._shard_spec: ShardSpec | None = None
        self._shard_rids: list[set[int]] = []
        if shard_spec is not None:
            self.set_shard_spec(shard_spec)

    @property
    def schema(self) -> TableSchema:
        return self._schema

    # ------------------------------------------------------------- sharding

    @property
    def shard_spec(self) -> ShardSpec | None:
        return self._shard_spec

    def set_shard_spec(self, spec: ShardSpec | None) -> None:
        """Adopt (or drop) a sharding layout, re-routing every row.

        Existing segments are melted first: a sharded table's segments
        always hold rows of exactly one shard, and the old layout may
        straddle the new shard boundaries.  Callers wanting frozen
        per-shard segments re-compact afterwards.
        """
        if spec is not None and not self._schema.has_column(spec.key):
            raise SchemaError(
                f"shard key {spec.key!r} is not a column of {self.name!r}")
        self.melt_all()
        self._shard_spec = spec
        if spec is None:
            self._shard_rids = []
            return
        sets: list[set[int]] = [set() for _ in range(spec.count)]
        for rid, values in self._rows.items():
            sets[spec.shard_of(values.get(spec.key))].add(rid)
        self._shard_rids = sets

    def _shard_of_values(self, values: dict[str, Any]) -> int:
        spec = self._shard_spec
        assert spec is not None
        return spec.shard_of(values.get(spec.key))

    @property
    def name(self) -> str:
        return self._schema.name

    def __len__(self) -> int:
        return len(self._rows) + sum(s.count for s in self._segments)

    @property
    def tail_size(self) -> int:
        """Rows still in the mutable row-store tail."""
        return len(self._rows)

    @property
    def segments(self) -> list[Segment]:
        return list(self._segments)

    def segment_count(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------- mutation

    def insert(self, values: dict[str, Any], rid: int | None = None) -> Row:
        """Insert a row; returns the stored :class:`Row`.

        ``rid`` may be forced (used by recovery replay); otherwise assigned.

        Raises:
            SchemaError: on schema or primary-key violations.
        """
        row_values = self._schema.validate_row(values)
        pk = self._schema.primary_key
        if pk is not None:
            key = row_values[pk]
            if key is None:
                raise SchemaError(f"primary key {pk!r} may not be NULL")
            if key in self._pk_index:
                raise SchemaError(f"duplicate primary key {key!r}")
        if rid is None:
            rid = self._next_rid
        if rid in self._rows or self._segment_of(rid) is not None:
            raise SchemaError(f"row id {rid} already in use")
        self._next_rid = max(self._next_rid, rid + 1)
        self._rows[rid] = row_values
        if pk is not None:
            self._pk_index[row_values[pk]] = rid
        if self._shard_spec is not None:
            self._shard_rids[self._shard_of_values(row_values)].add(rid)
        return Row(rid=rid, values=dict(row_values))

    def insert_many(self, values_list: list[dict[str, Any]]) -> list[Row]:
        """Insert a batch of rows atomically; returns the stored rows.

        All rows are validated (schema + primary-key uniqueness, including
        duplicates *within* the batch) before any row is stored, so a
        failure leaves the table untouched.

        Raises:
            SchemaError: on schema or primary-key violations.
        """
        validated = [self._schema.validate_row(v) for v in values_list]
        pk = self._schema.primary_key
        if pk is not None:
            batch_keys: set[Any] = set()
            for row_values in validated:
                key = row_values[pk]
                if key is None:
                    raise SchemaError(f"primary key {pk!r} may not be NULL")
                if key in self._pk_index or key in batch_keys:
                    raise SchemaError(f"duplicate primary key {key!r}")
                batch_keys.add(key)
        rows: list[Row] = []
        for row_values in validated:
            rid = self._next_rid
            self._next_rid += 1
            self._rows[rid] = row_values
            if pk is not None:
                self._pk_index[row_values[pk]] = rid
            if self._shard_spec is not None:
                self._shard_rids[self._shard_of_values(row_values)].add(rid)
            rows.append(Row(rid=rid, values=dict(row_values)))
        return rows

    def update(self, rid: int, changes: dict[str, Any]) -> tuple[Row, Row]:
        """Apply column changes to one row; returns (old_row, new_row).

        A frozen row's segment is melted back into the tail first.

        Raises:
            KeyError: unknown rid.
            SchemaError: schema or primary-key violations.
        """
        if rid not in self._rows:
            self._melt_containing(rid)
        if rid not in self._rows:
            raise KeyError(rid)
        old_values = dict(self._rows[rid])
        merged = dict(old_values)
        merged.update(changes)
        new_values = self._schema.validate_row(merged)
        pk = self._schema.primary_key
        if pk is not None and new_values[pk] != old_values[pk]:
            if new_values[pk] is None:
                raise SchemaError(f"primary key {pk!r} may not be NULL")
            if new_values[pk] in self._pk_index:
                raise SchemaError(f"duplicate primary key {new_values[pk]!r}")
            del self._pk_index[old_values[pk]]
            self._pk_index[new_values[pk]] = rid
        self._rows[rid] = new_values
        if self._shard_spec is not None:
            old_shard = self._shard_of_values(old_values)
            new_shard = self._shard_of_values(new_values)
            if old_shard != new_shard:
                self._shard_rids[old_shard].discard(rid)
                self._shard_rids[new_shard].add(rid)
        return Row(rid, old_values), Row(rid, dict(new_values))

    def delete(self, rid: int) -> Row:
        """Delete one row (melting its segment if frozen); returns it.

        Raises:
            KeyError: unknown rid.
        """
        if rid not in self._rows:
            self._melt_containing(rid)
        if rid not in self._rows:
            raise KeyError(rid)
        values = self._rows.pop(rid)
        pk = self._schema.primary_key
        if pk is not None:
            self._pk_index.pop(values[pk], None)
        if self._shard_spec is not None:
            self._shard_rids[self._shard_of_values(values)].discard(rid)
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
        spec = self._shard_spec
        if spec is not None:
            # Values may have been rewritten (or the key column dropped):
            # re-route every row; dropping the key unshards the table.
            self._shard_spec = None
            self.set_shard_spec(spec if schema.has_column(spec.key) else None)

    # ------------------------------------------------------------ segments

    def compact(self, max_rid: int | None = None,
                target_rows: int = SEGMENT_TARGET_ROWS) -> tuple[int, int, int]:
        """Freeze tail rows with ``rid <= max_rid`` into columnar segments.

        Chunking is deterministic (sorted rids, ``target_rows`` per
        segment) so WAL replay of a ``compact`` record reproduces the
        exact same layout.  Returns ``(segments_created, rows_frozen,
        max_rid_used)``.
        """
        if target_rows < 1:
            raise ValueError("target_rows must be >= 1")
        if max_rid is None:
            max_rid = self._next_rid - 1
        eligible = sorted(r for r in self._rows if r <= max_rid)
        created = 0
        if self._shard_spec is not None:
            # Deterministic per-shard chunking: a sharded table's segments
            # hold rows of exactly one shard, so parallel plans can hand
            # whole segments to worker tasks.  Routing is seed-stable
            # (sharding.py), so WAL replay reproduces the same layout.
            groups: list[list[int]] = [[] for _ in range(self._shard_spec.count)]
            for rid in eligible:
                groups[self._shard_of_values(self._rows[rid])].append(rid)
            for shard, shard_rids in enumerate(groups):
                for start in range(0, len(shard_rids), target_rows):
                    chunk = shard_rids[start:start + target_rows]
                    segment = Segment.from_rows(
                        self._schema,
                        [(rid, self._rows[rid]) for rid in chunk],
                        shard=shard)
                    self._segments.append(segment)
                    for rid in chunk:
                        del self._rows[rid]
                    created += 1
        else:
            for start in range(0, len(eligible), target_rows):
                chunk = eligible[start:start + target_rows]
                segment = Segment.from_rows(
                    self._schema, [(rid, self._rows[rid]) for rid in chunk])
                self._segments.append(segment)
                for rid in chunk:
                    del self._rows[rid]
                created += 1
        if eligible:
            self._directory = None
            registry = metrics.get_registry()
            registry.inc("segments.created", created)
            registry.inc("segments.rows_frozen", len(eligible))
        return created, len(eligible), max_rid

    def melt_all(self) -> None:
        """Decode every segment back into the row-store tail."""
        for segment in list(self._segments):
            self._melt_segment(segment)

    def _melt_segment(self, segment: Segment) -> None:
        self._segments.remove(segment)
        self._directory = None
        for rid, values in segment.iter_rows():
            self._rows[rid] = values
        registry = metrics.get_registry()
        registry.inc("segments.melted")
        registry.inc("segments.rows_melted", segment.count)

    def _melt_containing(self, rid: int) -> bool:
        found = self._segment_of(rid)
        if found is None:
            return False
        self._melt_segment(found[0])
        return True

    def _segment_directory(self) -> tuple[list[int], list[Segment]]:
        """``(first rids, segments)`` of the non-empty segments in rid
        order, for one bisect per lookup — or ``([], segments)`` when
        their rid ranges overlap (per-shard segments interleave) and a
        lookup has to probe each."""
        directory = self._directory
        if directory is None:
            segments = [s for s in self._segments if s.count]
            order = _rid_order([(s.min_rid, s.max_rid) for s in segments])
            if order is not None:
                segments = [segments[i] for i in order]
            directory = self._directory = (
                [s.min_rid for s in segments] if order is not None else [],
                segments)
        return directory

    def _segment_of(self, rid: int) -> tuple[Segment, int] | None:
        """The segment holding ``rid`` and its position there, or None."""
        mins, segments = self._segment_directory()
        if mins:
            at = bisect_right(mins, rid) - 1
            segments = segments[at:at + 1] if at >= 0 else ()
        for segment in segments:
            pos = segment.rid_position(rid)
            if pos is not None:
                return segment, pos
        return None

    def locate(self, rids: Iterable[int]) -> list[ScanUnit]:
        """Ascending ``rids`` as scan units, still in rid order: runs of
        frozen rows become ``("segment", segment, positions)``, runs of
        tail rows ``("rows", [(rid, values), ...], None)`` by reference.
        Nothing is decoded or copied.

        Raises:
            KeyError: a rid the table does not hold.
        """
        rids = list(rids)
        units: list[ScanUnit] = []
        tail = self._rows
        disjoint = bool(self._segment_directory()[0])
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
            # at once.
            end = bisect_right(rids, segment.max_rid, at) if disjoint \
                else at + 1
            if end > at + 1:
                positions = segment.positions_of(rids[at:end])
                if positions is None:
                    end, positions = at + 1, [pos]
            if units and units[-1][1] is segment:
                units[-1][2].extend(positions)
            else:
                units.append(("segment", segment, positions))
            at = end
        return units

    def segment_layout(self) -> list[list[int]]:
        """``[[min_rid, max_rid, count], ...]`` — checkpointed so reopen
        can re-freeze the same layout (and detect drift).

        Segments of sharded tables emit a fourth ``shard`` element:
        per-shard rid ranges interleave, so restore must know which shard
        each frozen range belonged to (a bare range would scoop up other
        shards' rows).  Unsharded segments keep the 3-entry form so old
        checkpoints stay readable.
        """
        return [
            [s.min_rid, s.max_rid, s.count] if s.shard is None
            else [s.min_rid, s.max_rid, s.count, s.shard]
            for s in self._segments
        ]

    def restore_segments(self, layout: list[list[int]]) -> bool:
        """Re-freeze a checkpointed layout after the rows were reloaded.

        Re-encoding from the recovered rows rebuilds every zone map from
        scratch, so reopen can never serve stale min/max bounds (the
        drift class PR 5's facts-index bug belonged to).  If any entry no
        longer matches the live rows — the snapshot drifted — the restore
        stops and remaining rows stay in the (always correct) tail;
        returns False in that case so callers can count the invalidation.

        The shard spec must already be applied (recovery order): 4-entry
        layouts select rows by rid range *and* shard membership.
        """
        for entry in layout:
            if len(entry) == 4:
                min_rid, max_rid, count, shard = entry
                if (self._shard_spec is None
                        or shard >= self._shard_spec.count):
                    return False
                members = self._shard_rids[shard]
                chunk = sorted(r for r in self._rows
                               if min_rid <= r <= max_rid and r in members)
            else:
                min_rid, max_rid, count = entry
                shard = None
                chunk = sorted(r for r in self._rows
                               if min_rid <= r <= max_rid)
            if len(chunk) != count:
                return False
            segment = Segment.from_rows(
                self._schema, [(rid, self._rows[rid]) for rid in chunk],
                shard=shard)
            self._segments.append(segment)
            self._directory = None
            for rid in chunk:
                del self._rows[rid]
        return True

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
        for rid, values in self._iter_items():
            yield Row(rid, values)

    def _iter_items(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Every ``(rid, values)`` in rid order, as fresh dicts."""
        tail = ((rid, dict(values)) for rid, values in self._tail_rows())
        ordered = self._ordered_units()
        if ordered is None:
            # Rid ranges interleave (e.g. an undo re-inserted a low rid
            # after compaction): k-way merge keeps global rid order.
            yield from heapq.merge(
                *(s.iter_rows() for s in self._segments if s.count), tail,
                key=lambda kv: kv[0])
            return
        for kind, segment in ordered:
            yield from segment.iter_rows() if kind == "segment" else tail

    def _ordered_units(self) -> list[tuple[str, Any]] | None:
        """Units (segments + tail) whose concatenation is global rid order,
        or None when the rid ranges interleave."""
        units: list[tuple[str, Any]] = [
            ("segment", s) for s in self._segments if s.count]
        ranges = [(s.min_rid, s.max_rid) for _, s in units]
        if self._rows:
            units.append(("rows", None))
            ranges.append((min(self._rows), max(self._rows)))
        order = _rid_order(ranges)
        return None if order is None else [units[i] for i in order]

    def scan_units(self) -> Iterator[tuple[str, Any]]:
        """The scan split into vectorizable units, in global rid order.

        Yields ``("segment", Segment)`` and ``("rows", [(rid, values),
        ...])`` entries (the tail in :data:`TAIL_UNIT_ROWS` slices, value
        dicts by reference) whose concatenation enumerates the table in
        rid order.  Lazy: the caller must keep writers out while it
        iterates (a table S lock, or a snapshot clone).  When rid ranges
        interleave this collapses to one rows unit (the merged scan) —
        the executor then falls back to row-at-a-time, which keeps e.g.
        float SUM accumulation order identical to the naive interpreter.
        """
        ordered = self._ordered_units()
        if ordered is None:
            yield "rows", list(self._iter_items())
            return
        for kind, segment in ordered:
            if kind == "segment":
                yield kind, segment
            else:
                yield from (("rows", chunk) for chunk in self._tail_chunks())

    def _tail_chunks(self) -> Iterator[list[tuple[int, dict[str, Any]]]]:
        """The tail's ``(rid, values)`` in rid order, by reference, in
        lists of :data:`TAIL_UNIT_ROWS`."""
        rows = self._rows
        rids = sorted(rows)
        for at in range(0, len(rids), TAIL_UNIT_ROWS):
            chunk = rids[at:at + TAIL_UNIT_ROWS]
            yield list(zip(chunk, map(rows.__getitem__, chunk)))

    def _tail_rows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        return chain.from_iterable(self._tail_chunks())

    def column_items(self, column: str) -> Iterator[tuple[Any, int]]:
        """``(value, rid)`` of every row for one column, in no particular
        order — what an index or a pk map loads, without decoding (or
        copying) any other column."""
        for segment in self._segments:
            yield from zip(segment.column_values(column), segment.rids)
        for rid, values in self._rows.items():
            yield values.get(column), rid

    def sharded_scan_units(self) -> list[list[tuple[str, Any]]]:
        """Per-shard vectorizable units for parallel plans (DESIGN.md §14).

        Returns one unit list per shard; each list enumerates that
        shard's rows in rid order as ``("segment", Segment)`` and
        ``("rows", [(rid, values), ...])`` entries.  Rows units are
        materialized lists (value dicts by reference) so the whole
        structure is picklable for process-pool workers.  Concatenating
        matching rows of all shards through a rid merge reproduces
        :meth:`scan` order exactly — the byte-identity invariant parallel
        plans rely on.
        """
        spec = self._shard_spec
        if spec is None:
            raise SchemaError(f"table {self.name!r} is not sharded")
        out: list[list[tuple[str, Any]]] = []
        # One pass over the (usually small) tail instead of filtering
        # every shard's full rid set: point queries hit this per
        # execution, so it must not scale with frozen-row count.
        tails: list[list[int]] = [[] for _ in range(spec.count)]
        for rid in sorted(self._rows):
            shard = spec.shard_of(self._rows[rid].get(spec.key))
            if rid in self._shard_rids[shard]:
                tails[shard].append(rid)
        segs_by_shard: list[list[Segment]] = [[] for _ in range(spec.count)]
        for s in self._segments:
            if s.count and s.shard is not None:
                segs_by_shard[s.shard].append(s)
        for shard in range(spec.count):
            segs = sorted(segs_by_shard[shard], key=lambda s: s.min_rid)
            tail = tails[shard]
            units: list[tuple[str, Any]] = []
            ranges: list[tuple[int, int]] = []
            for s in segs:
                units.append(("segment", s))
                ranges.append((s.min_rid, s.max_rid))
            if tail:
                units.append(("rows", [(r, self._rows[r]) for r in tail]))
                ranges.append((tail[0], tail[-1]))
            order = _rid_order(ranges)
            if order is None:
                # Rare (undo re-inserted a low rid after compaction):
                # collapse the shard to one merged, decoded rows unit.
                merged = heapq.merge(
                    *(s.iter_rows() for s in segs),
                    iter((r, self._rows[r]) for r in tail),
                    key=lambda kv: kv[0])
                out.append([("rows", list(merged))])
            else:
                out.append([units[i] for i in order])
        return out

    def scan_where(self, predicate: Callable[[dict[str, Any]], bool]) -> Iterator[Row]:
        """Filtered scan."""
        for row in self.scan():
            if predicate(row.values):
                yield row

    def rids(self) -> list[int]:
        all_rids = list(self._rows)
        for segment in self._segments:
            all_rids.extend(segment.rids)
        return sorted(all_rids)
