"""Snapshot-isolation reads: copy-on-write committed snapshots (DESIGN.md §15).

Writers keep strict 2PL; readers stop locking entirely.  A
:class:`SnapshotTransaction` serves every read from a set of
:class:`TableSnapshot` objects — per-table frozen clones capturing the
*committed* state at one commit point:

* the row-store tail is a shallow dict copy (safe to share: the live
  table replaces value dicts on update, never mutates them in place)
  with every **active uncommitted** transaction's undo entries applied
  in reverse, which rolls the copy back to pure committed data;
* columnar segments are referenced directly — they are immutable — and
  each delete vector (the dead positions beside a segment, DESIGN.md
  §12) is copied.  The copy may hold a position an uncommitted writer
  marked dead; the reversed undo entry has put that row's committed
  values into the tail copy under the same rid, and a tail row is what
  readers see for a dead position's rid — so nothing more is undone;
* shard routing is recomputed over the snapshot's tail (frozen rows
  already live in per-shard segments).

Snapshots are built under the database's mutate lock — the same lock
every write-path structural mutation holds — so the copy can never
observe a half-applied write.  Cross-table consistency comes from
resolving *all* tables at ``begin_snapshot()`` time under one lock hold.

A per-table snapshot is cached keyed by the table's committed version
(bumped atomically at every commit/DDL that touches it), so only the
first reader after a commit pays the O(tail) copy; subsequent readers
share the same frozen clone.  Secondary-index lookups build per-snapshot
lazy indexes (the live indexes reflect *uncommitted* writer state and
cannot serve a consistent snapshot), reusing the exact
:class:`~repro.storage.rdbms.index.HashIndex` /
:class:`~repro.storage.rdbms.index.SortedIndex` semantics so results are
row-identical to the locked path.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from repro.errors import CancellationToken, ReadOnlyTransactionError
from repro.storage.rdbms.engine import GUARD_STRIDE, IndexReads
from repro.storage.rdbms.index import HashIndex, Index, SortedIndex
from repro.storage.rdbms.sharding import ShardSpec
from repro.storage.rdbms.table import HeapTable, Row, ScanUnit
from repro.telemetry import metrics


def build_table_snapshot(heap: HeapTable, undo_entries: list[tuple],
                         version: int) -> "TableSnapshot":
    """Freeze one table's committed state into a snapshot clone.

    Must be called under the database mutate lock.  ``undo_entries`` are
    the concatenated undo logs of every active uncommitted transaction,
    in append order; applying them in reverse rolls the tail copy back
    to committed data (row-level entries of different transactions never
    overlap — X locks guarantee one uncommitted writer per rid).
    """
    rows = dict(heap._rows)
    for entry in reversed(undo_entries):
        kind = entry[0]
        if entry[1] != heap.name:
            continue
        if kind == "insert":
            rows.pop(entry[2], None)
        elif kind == "update":
            rows[entry[2]] = entry[3]
        elif kind == "delete":
            rows[entry[2]] = entry[3]
    clone = HeapTable.__new__(HeapTable)
    clone._schema = heap._schema
    clone._rows = rows
    clone._next_rid = heap._next_rid
    # The pk map covers frozen rows too (O(total) to copy), so the
    # snapshot builds its own lazily instead; nothing reads the clone's.
    clone._pk_index = {}
    clone._segments = list(heap._segments)
    clone._dead = {segment: list(dead) for segment, dead in heap._dead.items()}
    clone._directory = None
    clone._shard_spec = heap._shard_spec
    if heap._shard_spec is not None:
        spec = heap._shard_spec
        sets: list[set[int]] = [set() for _ in range(spec.count)]
        for rid, values in rows.items():
            sets[spec.shard_of(values.get(spec.key))].add(rid)
        clone._shard_rids = sets
    else:
        clone._shard_rids = []
    metrics.get_registry().inc("rdbms.mvcc.snapshot_builds")
    return TableSnapshot(clone, version)


class TableSnapshot:
    """One table's frozen committed state plus lazy per-snapshot indexes.

    The wrapped clone is a :class:`HeapTable` that is never mutated, so
    every read method (scan / scan_units / sharded_scan_units / get)
    works unchanged.  Shared across all readers at the same committed
    version; index builds are locked so concurrent first-lookups build
    once.
    """

    __slots__ = ("table", "version", "_lock", "_pk_map",
                 "_hash_indexes", "_sorted_indexes")

    def __init__(self, table: HeapTable, version: int) -> None:
        self.table = table
        self.version = version
        self._lock = threading.Lock()
        self._pk_map: dict[Any, int] | None = None
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}

    def pk_rid(self, key: Any) -> int | None:
        """The rid holding primary key ``key``, or None."""
        pk = self.table.schema.primary_key
        if pk is None:
            return None
        if self._pk_map is None:
            with self._lock:
                if self._pk_map is None:
                    self._pk_map = dict(self.table.column_items(pk))
        return self._pk_map.get(key)

    def hash_index(self, column: str) -> HashIndex:
        index = self._hash_indexes.get(column)
        if index is None:
            with self._lock:
                index = self._hash_indexes.get(column)
                if index is None:
                    index = HashIndex(self.table.name, column)
                    index.bulk_load(self.table.column_items(column))
                    self._hash_indexes[column] = index
        return index

    def sorted_index(self, column: str) -> SortedIndex:
        index = self._sorted_indexes.get(column)
        if index is None:
            with self._lock:
                index = self._sorted_indexes.get(column)
                if index is None:
                    index = SortedIndex(self.table.name, column)
                    index.bulk_load(self.table.column_items(column))
                    self._sorted_indexes[column] = index
        return index


class SnapshotTransaction(IndexReads):
    """A lock-free read-only transaction over a commit-point snapshot.

    Mirrors :class:`~repro.storage.rdbms.engine.Transaction`'s read API
    exactly (the planner's physical operators consume either
    interchangeably) but never touches the lock manager: it cannot
    block, cannot deadlock, and never enters the waits-for graph.
    Writes raise :class:`~repro.errors.ReadOnlyTransactionError`.

    Obtained from :meth:`Database.begin_snapshot`; usable as a context
    manager.  An optional :class:`~repro.errors.CancellationToken` is
    polled at every read call and every :data:`GUARD_STRIDE` rows of a
    streaming scan (cooperative deadlines / shutdown cancellation).
    """

    read_only = True

    def __init__(self, db: Any, snapshots: dict[str, TableSnapshot],
                 guard: CancellationToken | None = None) -> None:
        self._db = db  # parallel operators reach the exec backend via _db
        self._snapshots = snapshots
        self.guard = guard
        self.txn_id = -1
        self.finished = False

    # ----------------------------------------------------------- lifecycle

    def __enter__(self) -> "SnapshotTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finished = True

    def commit(self) -> None:
        self.finished = True

    def abort(self) -> None:
        self.finished = True

    def version_of(self, table: str) -> int:
        """The committed version this snapshot holds for ``table`` (0 when
        the table did not exist at snapshot time)."""
        snap = self._snapshots.get(table)
        return snap.version if snap is not None else 0

    # ------------------------------------------------------------- writes

    def _read_only(self, *_args: Any, **_kwargs: Any) -> Any:
        raise ReadOnlyTransactionError(
            "snapshot transactions are read-only; use Database.run for writes")

    insert = insert_many = update = delete = _read_only

    # -------------------------------------------------------------- reads

    def get(self, table: str, rid: int) -> Row:
        """Point read by rid against the snapshot (no locks)."""
        self._check_active()
        return self._snap(table).table.get(rid)

    def scan(self, table: str) -> list[Row]:
        return list(self.scan_iter(table))

    def scan_iter(self, table: str) -> Iterator[Row]:
        """Streaming full scan of the snapshot (no locks)."""
        self._check_active()
        return self._guarded(self._snap(table).table.scan())

    def scan_units(self, table: str) -> Iterator[ScanUnit]:
        """The snapshot's vectorizable scan units (segments + frozen tail)."""
        self._check_active()
        return self._snap(table).table.scan_units()

    def sharded_scan_units(self, table: str) -> list[list[ScanUnit]]:
        """Per-shard units of the snapshot, for parallel plans."""
        self._check_active()
        return self._snap(table).table.sharded_scan_units()

    def shard_spec(self, table: str) -> ShardSpec | None:
        """The shard layout the snapshot froze for ``table`` (None when
        the table is unsharded or did not exist at snapshot time)."""
        snap = self._snapshots.get(table)
        return snap.table.shard_spec if snap is not None else None

    def scan_where(self, table: str,
                   predicate: Callable[[dict[str, Any]], bool]) -> list[Row]:
        return [r for r in self.scan_iter(table) if predicate(r.values)]

    # ------------------------------------- IndexReads hooks (lock-free)

    def _heap(self, table: str) -> HeapTable:
        return self._snap(table).table

    def _index(self, table: str, column: str,
               need_sorted: bool = False) -> Index | None:
        """A per-snapshot lazy index, when the catalog has one.

        The *live* index cannot be consulted: it reflects uncommitted
        writer state (an in-flight UPDATE moves a rid between buckets
        before committing), so a snapshot read through it could miss
        rows it must see.  The fallback mirrors the locked path: no
        index on the column in the catalog means a scan.
        """
        if need_sorted:
            if self._db.sorted_index(table, column) is None:
                return None
            return self._snap(table).sorted_index(column)
        if self._db._find_index(table, column) is None:
            return None
        return self._snap(table).hash_index(column)

    def _pk_rid(self, table: str, key: Any) -> int | None:
        return self._snap(table).pk_rid(key)

    def _admit(self, table: str, rids: list[int]) -> Iterable[int]:
        guard = self.guard
        if guard is None:
            return rids

        def strides() -> Iterator[list[int]]:
            for at in range(0, len(rids), GUARD_STRIDE):
                guard.check()
                yield rids[at:at + GUARD_STRIDE]

        return chain.from_iterable(strides())

    # ---------------------------------------------------------- internals

    def _snap(self, table: str) -> TableSnapshot:
        snap = self._snapshots.get(table)
        if snap is None:
            raise KeyError(f"no table {table!r}")
        return snap

    def _check_active(self) -> None:
        if self.guard is not None:
            self.guard.check()

    def _guarded(self, it: Iterator[Row]) -> Iterator[Row]:
        guard = self.guard
        if guard is None:
            return it

        def gen() -> Iterator[Row]:
            for i, row in enumerate(it):
                if i % GUARD_STRIDE == 0:
                    guard.check()
                yield row

        return gen()
