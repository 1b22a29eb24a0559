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

A per-table snapshot is cached until something separates it from the
table: only the first reader after a commit pays the O(tail) copy, later
ones share the view.  Secondary-index lookups read per-snapshot indexes
(the live ones reflect *uncommitted* writer state and cannot serve a
consistent snapshot) with the exact
:class:`~repro.storage.rdbms.index.HashIndex` /
:class:`~repro.storage.rdbms.index.SortedIndex` semantics, so results are
row-identical to the locked path.  An index is loaded from the view the
first time a snapshot is asked for it; after that it is **carried**: a
superseded snapshot hands its successor what it has built, advanced by
the change logs committed in between (:meth:`Index.carry`), or as it is
across a change of layout.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, Sequence

from repro.errors import CancellationToken, ReadOnlyTransactionError
from repro.storage.rdbms.engine import TransactionReads
from repro.storage.rdbms.index import (HashIndex, Index, Move, SortedIndex,
                                       UniqueMap)
from repro.storage.rdbms.table import HeapTable
from repro.telemetry import metrics

def _moves(entries: Sequence[tuple], column: str) -> Iterator[Move]:
    """Change-log entries as one column's index sees them: those that
    changed its value."""
    for _, _, rid, before, after in entries:
        old = before[column] if before else None
        value = after[column] if after else None
        if old != value:
            yield old, value, rid


class TableSnapshot:
    """One table's committed view plus the indexes read through it.

    The view is a :class:`HeapTable` that is never mutated, so every read
    method works unchanged.  Shared across all readers until a commit or
    a change of layout supersedes it; index builds are locked so
    concurrent first-lookups build once.  Given the ``predecessor`` it
    supersedes (mutate lock held), it starts with that one's indexes.
    """

    __slots__ = ("table", "version", "pending", "_room", "_lock", "_indexes")

    def __init__(self, table: HeapTable, version: int,
                 predecessor: "TableSnapshot | None" = None) -> None:
        self.table = table
        self.version = version
        #: The backlog (mutate lock held): what happened to the table
        #: since this view was built — one change log per transaction
        #: committed, an empty one per change of layout.  Non-empty means
        #: the next reader needs a new view.
        self.pending: list[Sequence[tuple]] = []
        self._room = len(table)  # rows the backlog may still grow by
        self._lock = threading.Lock()
        #: per (column, kind): an index, or the primary key's UniqueMap
        self._indexes: dict[tuple[str, type], Any] = {}
        if predecessor is not None:
            self._carry(predecessor)

    def owe(self, log: Sequence[tuple]) -> bool:
        """Add ``log`` to the backlog (mutate lock held).  False once the
        backlog holds more rows than the table did: carrying would cost
        more than loading, and the reader to load for may never come."""
        self.pending.append(log)
        self._room -= len(log)
        return self._room >= 0

    def _carry(self, predecessor: "TableSnapshot") -> None:
        name = self.table.name
        entries = [entry for log in predecessor.pending for entry in log
                   if entry[1] == name]
        # a reader may be adding to the predecessor's: copy in one step
        self._indexes = dict(predecessor._indexes)
        if entries:
            self._indexes = {
                key: index.carry(_moves(entries, key[0]))
                for key, index in self._indexes.items()}
        metrics.get_registry().inc("rdbms.mvcc.index_carries",
                                   len(self._indexes))

    def pk_rid(self, key: Any) -> int | None:
        """The rid holding primary key ``key``, or None."""
        pk = self.table.schema.primary_key
        return None if pk is None else self.index(pk, UniqueMap).get(key)

    def index(self, column: str, kind: type) -> Any:
        """The snapshot's own ``kind`` index (or pk map) on ``column``,
        loaded from the view on first use unless it was carried here."""
        index = self._indexes.get((column, kind))
        if index is None:
            with self._lock:
                index = self._indexes.get((column, kind))
                if index is None:
                    index = kind(self.table.name, column)
                    index.bulk_load(self.table.column_items(column))
                    self._indexes[(column, kind)] = index
                    metrics.get_registry().inc("rdbms.mvcc.index_builds")
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
