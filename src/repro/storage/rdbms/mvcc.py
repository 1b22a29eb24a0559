"""Snapshot-isolation reads: copy-on-write committed snapshots (DESIGN.md §15).

Writers keep strict 2PL; readers stop locking entirely.  A
:class:`SnapshotTransaction` serves every read from a set of
:class:`TableSnapshot` objects — per table, the committed state at one
commit point as :meth:`HeapTable.committed_view` builds it (a tail copy
rolled back past every uncommitted writer, beside the shared immutable
segments) plus the indexes read through it.

Views are built under the database's mutate lock — the same lock every
write-path structural mutation holds — so the copy can never observe a
half-applied write.  Cross-table consistency comes from resolving *all*
tables at ``begin_snapshot()`` time under one lock hold.

A per-table snapshot is cached keyed by the table's committed version
(bumped atomically at every commit/DDL that touches it), so only the
first reader after a commit pays the O(tail) copy; subsequent readers
share the same view.  Secondary-index lookups build per-snapshot lazy
indexes (the live indexes reflect *uncommitted* writer state and cannot
serve a consistent snapshot), reusing the exact
:class:`~repro.storage.rdbms.index.HashIndex` /
:class:`~repro.storage.rdbms.index.SortedIndex` semantics so results are
row-identical to the locked path.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import CancellationToken, ReadOnlyTransactionError
from repro.storage.rdbms.engine import TransactionReads
from repro.storage.rdbms.index import HashIndex, Index, SortedIndex
from repro.storage.rdbms.table import HeapTable


class TableSnapshot:
    """One table's committed view plus lazy per-snapshot indexes.

    The view is a :class:`HeapTable` that is never mutated, so every read
    method works unchanged.  Shared across all readers at the same
    committed version; index builds are locked so concurrent
    first-lookups build once.
    """

    __slots__ = ("table", "version", "_lock", "_pk_map", "_indexes")

    def __init__(self, table: HeapTable, version: int) -> None:
        self.table = table
        self.version = version
        self._lock = threading.Lock()
        self._pk_map: dict[Any, int] | None = None
        self._indexes: dict[tuple[str, type[Index]], Index] = {}

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

    def index(self, column: str, kind: type[Index]) -> Index:
        """The snapshot's own ``kind`` index on ``column``, built on first
        use."""
        index = self._indexes.get((column, kind))
        if index is None:
            with self._lock:
                index = self._indexes.get((column, kind))
                if index is None:
                    index = kind(self.table.name, column)
                    index.bulk_load(self.table.column_items(column))
                    self._indexes[(column, kind)] = index
        return index


class SnapshotTransaction(TransactionReads):
    """A lock-free read-only transaction over a commit-point snapshot.

    Reads through :class:`~repro.storage.rdbms.engine.TransactionReads`
    as the locked transaction does, but supplies no lock hook, so it
    never touches the lock manager: it cannot block, cannot deadlock, and
    never enters the waits-for graph.  Writes raise
    :class:`~repro.errors.ReadOnlyTransactionError`.

    Obtained from :meth:`Database.begin_snapshot`; usable as a context
    manager.  An optional :class:`~repro.errors.CancellationToken` is
    polled at every read call and every
    :data:`~repro.storage.rdbms.engine.GUARD_STRIDE` rows of a streaming scan (cooperative deadlines / shutdown cancellation).
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

    insert = insert_many = update = delete = write_many = _read_only

    # -------------------------------- TransactionReads hooks (lock-free)

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
        db = self._db
        live = db.sorted_index(table, column) if need_sorted \
            else db._find_index(table, column)
        if live is None:
            return None
        return self._snap(table).index(
            column, SortedIndex if need_sorted else HashIndex)

    def _pk_rid(self, table: str, key: Any) -> int | None:
        return self._snap(table).pk_rid(key)

    # ---------------------------------------------------------- internals

    def _snap(self, table: str) -> TableSnapshot:
        snap = self._snapshots.get(table)
        if snap is None:
            raise KeyError(f"no table {table!r}")
        return snap

    def _check_active(self) -> None:
        if self.guard is not None:
            self.guard.check()
