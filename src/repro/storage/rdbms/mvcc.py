"""Snapshot-isolation reads over the live indexes (DESIGN.md §15).

Writers keep strict 2PL; readers stop locking entirely.  A
:class:`SnapshotTransaction` serves every read from a set of
:class:`TableSnapshot` objects — per table, the committed state at one
commit point as :meth:`HeapTable.committed_view` builds it under the
database's mutate lock, all tables in one hold (a tail copy rolled back
past every uncommitted writer, beside the shared immutable segments).  A
view is cached until a commit, a change of layout or DDL supersedes it.

There is one index per indexed column and one pk map per table, the live
ones, which writers change before they commit.  A snapshot probes them
and corrects the answer by D, the rids in the change logs of the
transactions still open or committed after its version
(:meth:`Database.written_since`): the live rids not in D, plus the rids
of D whose value in the snapshot's own view satisfies the probe.  Probe
and D are read under one mutate-lock hold — a write moves an index entry
before it appends its change-log entry, an abort restores entries before
it deregisters.  The database keeps each table's latest commits whether
anyone reads or not, up to :meth:`Database._history_bound` rows (64 and
a 32nd of the table); where that history does not reach back to a
snapshot (trimmed, or DDL since), or the open change logs are past the
bound, the probe asks an index of the snapshot's own, loaded from its
view on first use.  The database registers no reader: a snapshot is its
view and its version.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import CancellationToken, ReadOnlyTransactionError
from repro.storage.rdbms.engine import TransactionReads
from repro.storage.rdbms.index import HashIndex, Index
from repro.storage.rdbms.table import HeapTable
from repro.telemetry import metrics

#: What a read asks an index: the ascending rids it holds for a predicate.
Probe = Callable[[Index], list[int]]


class TableSnapshot:
    """One table's committed view at one version, and the indexes of its
    own loaded from it for the probes D cannot correct.

    The view is a :class:`HeapTable` that is never mutated, so every read
    method works unchanged.  Shared across all readers until something
    supersedes it; the database keeps no reference to it beyond that
    cache.
    """

    __slots__ = ("table", "version", "_lock", "_indexes")

    def __init__(self, table: HeapTable, version: int) -> None:
        self.table = table
        self.version = version
        self._lock = threading.Lock()
        self._indexes: dict[tuple[str, type], Index] = {}

    def index(self, column: str, kind: type[Index]) -> Index:
        """The snapshot's own ``kind`` index on ``column``, loaded from the
        view on first use (builds are locked: concurrent first lookups
        load once)."""
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
        self._db = db
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

    def _probe(self, table: str, column: str, probe: Probe,
               need_sorted: bool = False) -> list[int] | None:
        """``probe`` of the column's live index as of this snapshot; None
        when the catalog has no index there (the read scans, as the
        locked path does)."""
        db = self._db
        live = db.sorted_index(table, column) if need_sorted \
            else db._find_index(table, column)
        if live is None:
            return None
        return self._as_of(table, column, type(live), probe,
                           lambda: probe(live))

    def _pk_rid(self, table: str, key: Any) -> int | None:
        pk = self._heap(table).schema.primary_key
        if pk is None:
            return None

        def live() -> list[int]:
            rid = self._db._table(table)._pk_index.get(key)
            return [] if rid is None else [rid]

        rids = self._as_of(table, pk, HashIndex,
                           lambda index: index.lookup(key), live)
        return rids[0] if rids else None

    # ---------------------------------------------------------- internals

    def _as_of(self, table: str, column: str, kind: type[Index],
               probe: Probe, live: Callable[[], list[int]]) -> list[int]:
        """The rids ``probe`` finds in ``table``'s ``column`` at this
        snapshot: ``live()`` (the probe of the live structure) corrected
        by D, or, when the database has no D for this version, ``probe``
        of the snapshot's own ``kind`` index."""
        snap, db = self._snap(table), self._db
        with db._mutate_lock:
            written = db.written_since(table, snap.version)
            if written is not None:
                rids = live()
        if written is None:
            return probe(snap.index(column, kind))
        if not written:
            return rids
        then = kind(table, column)  # D as the snapshot's view holds it
        then.bulk_load(snap.table.column_items_of(column, sorted(written)))
        return sorted([rid for rid in rids if rid not in written]
                      + probe(then))

    def _snap(self, table: str) -> TableSnapshot:
        snap = self._snapshots.get(table)
        if snap is None:
            raise KeyError(f"no table {table!r}")
        return snap

    def _check_active(self) -> None:
        if self.guard is not None:
            self.guard.check()
