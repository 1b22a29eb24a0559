"""The relational engine facade: tables + transactions + recovery.

:class:`Database` owns the heap tables, secondary indexes, lock manager, and
(optionally) the write-ahead log.  :class:`Transaction` is the unit of work:
all reads and writes go through it, acquiring strict-2PL locks and keeping
one change log of before/after images that commit writes to the WAL as one
record.  Recovery loads the last checkpoint (every table's committed
image, its segments as encoded columns with their zone maps, and every
index's contents) and redoes the records after it, so a "crash" (simply
abandoning the in-memory object) loses no committed work — experiment
E11 exercises exactly this; a clean :meth:`Database.close` writes that
checkpoint, so the next open redoes and rebuilds nothing, and decodes
only each segment's rids: columns, indexes and pk maps wait for their
first use (DESIGN.md §12).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain, groupby
from math import copysign
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import CancellationToken, ShardedLogError
from repro.faults.retry import RetryPolicy
from repro.storage.rdbms.index import HashIndex, Index, SortedIndex
from repro.telemetry import metrics
from repro.telemetry.metrics import DEFAULT_SIZE_BUCKETS
from repro.telemetry.tracing import get_tracer
from repro.storage.rdbms.lockmgr import LockManager, LockMode
from repro.storage.rdbms.segments import SEGMENT_TARGET_ROWS
from repro.storage.rdbms.table import HeapTable, Row, ScanUnit, fetch_rows
from repro.storage.rdbms.types import SchemaError, TableSchema
from repro.storage.rdbms.wal import WriteAheadLog

#: Row-at-a-time reads poll the cancellation token once per this many rows.
GUARD_STRIDE = 256

#: Default transaction retry policy: deadlock/lock-timeout victims retry
#: with exponential backoff and full deterministic jitter (decorrelated
#: sleeps, so two victims of the same conflict don't re-collide in
#: lockstep).  Replaces the bespoke immediate-retry loop.
TXN_RETRY = RetryPolicy(max_attempts=25, base_delay=0.002, max_delay=0.05,
                        multiplier=2.0, jitter=1.0)


_INDEX_KINDS: dict[str, type[Index]] = {"hash": HashIndex,
                                        "sorted": SortedIndex}


def _reindex(indexes: Iterable[tuple[str, Index]], rid: int,
             old: dict[str, Any] | None, new: dict[str, Any] | None) -> None:
    """Move ``rid`` in one table's ``(column, index)`` pairs from its
    ``old`` values (None: the row was not there) to its ``new`` ones
    (None: the row is gone)."""
    if old is None:
        for column, index in indexes:
            index.insert(new[column], rid)
    elif new is None:
        for column, index in indexes:
            index.remove(old[column], rid)
    else:
        for column, index in indexes:
            index.update(old[column], new[column], rid)


def _changed(old: Any, new: Any) -> bool:
    """Whether storing ``new`` over ``old`` changes what a reader gets:
    ``!=``, or a float zero whose sign flips (-0.0 == 0.0)."""
    return old != new or (type(new) is float and new == 0.0
                          and copysign(1.0, old) != copysign(1.0, new))


def _table_image(table: HeapTable) -> dict[str, Any]:
    """What a ``checkpoint`` record holds of each table and an
    ``alter_schema`` record of its one: the schema (as a
    ``create_table`` record carries it) and the table's data — tail rows
    by rid, encoded segments with their dead positions
    (:meth:`HeapTable.image`)."""
    return {"schema": table.schema.to_dict(), **table.image()}


def _load_index(entry: dict[str, Any]) -> tuple[tuple[str, str], Index]:
    """The index of a checkpoint's entry (:meth:`Database._index_image`)
    under its ``(table, column)`` key (recovery).

    Raises:
        ValueError: the entry holds no contents, the layout before index
            images.
    """
    if not isinstance(entry, dict):
        raise ValueError(
            f"index {entry[0]}.{entry[1]}: its checkpoint entry holds no "
            "contents, an older layout which this version neither reads "
            "nor migrates")
    table, column = entry["table"], entry["column"]
    return (table, column), _INDEX_KINDS[entry["kind"]].from_image(
        table, column, entry)


def _load_table(image: dict[str, Any]) -> HeapTable:
    """The table :func:`_table_image` made ``image`` of, or an empty one
    from a ``create_table`` record (recovery).

    Raises:
        ShardedLogError: the image or record declares a shard key.
    """
    table = HeapTable(TableSchema.from_dict(image["schema"]))
    if image.get("shard_key") is not None:
        raise ShardedLogError(table.name)
    table.load_image(image)
    return table


class TransactionAborted(Exception):
    """Raised when operating on a finished (committed/aborted) transaction."""


@dataclass(frozen=True)
class TableDelta:
    """Row-level changes one committed transaction made to one table.

    Value dicts are the engine's own (an inserted row's is the stored
    dict itself, of which the write APIs hand back a copy); listeners
    must treat them as read-only.
    """

    inserted: tuple[dict[str, Any], ...] = ()
    #: ``(before, after)`` value pairs, in write order.
    updated: tuple[tuple[dict[str, Any], dict[str, Any]], ...] = ()
    deleted: tuple[dict[str, Any], ...] = ()

    def __len__(self) -> int:
        return len(self.inserted) + len(self.updated) + len(self.deleted)


@dataclass(frozen=True)
class CommitDelta:
    """What one commit (or DDL event) changed, for delta listeners.

    ``tables`` maps table name → :class:`TableDelta` for row-level
    changes.  ``ddl`` names tables whose contents changed *wholesale*
    (create/drop/alter): row-level deltas are not available for those,
    so delta consumers must resynchronize their per-table state.
    """

    tables: dict[str, TableDelta] = field(default_factory=dict)
    ddl: frozenset[str] = frozenset()


class TransactionReads:
    """Every read a transaction offers, once for the locked
    :class:`Transaction` and the lock-free snapshot transaction (the
    planner's physical operators consume either interchangeably).

    The scans hand out the table's own iterators and unit lists; the
    ``*_units`` methods are what the planner's access paths run: rids out
    of an index become scan units through :meth:`HeapTable.locate`, with
    no row decoded or copied.  ``lookup`` / ``range_lookup`` /
    ``get_by_pk`` wrap them into caller-owned :class:`Row` lists.  A
    subclass sets ``_db`` and ``guard`` and supplies, next to
    ``_check_active``:

    * ``_heap(table)`` — the table to read;
    * ``_probe(table, column, probe, need_sorted=False)`` — what
      ``probe(index)`` (ascending rids) finds in the column's index, or
      None: the column has none (of the needed kind) and the read falls
      back to a scan;
    * ``_pk_rid(table, key)`` — the rid holding a primary key, or None.

    What is defined here reads without locks; the 2PL transaction
    overrides the two places a lock is taken:

    * ``_enter(table, rid, mode)`` — called before ``table`` (``rid``
      None) or one of its rows is read in ``mode``;
    * ``_admit(table, rids)`` — ``rids`` once this transaction may read
      them, polling the guard every :data:`GUARD_STRIDE`.
    """

    _db: "Database"
    guard: CancellationToken | None

    def get(self, table: str, rid: int) -> Row:
        """Point read by rid (2PL: IS on the table, S on the row)."""
        self._check_active()
        self._enter(table, None, LockMode.INTENTION_SHARED)
        self._enter(table, rid, LockMode.SHARED)
        return self._heap(table).get(rid)

    def held_rows(self, table: str, rids: Iterable[int]) -> list[Row]:
        """The rows at those of ``rids`` the table holds for this reader,
        in rid order: a rid deleted, or not yet committed for a snapshot,
        is skipped (2PL: IS on the table, S on each row)."""
        self._check_active()
        self._enter(table, None, LockMode.INTENTION_SHARED)
        heap = self._heap(table)
        return fetch_rows(self._locate(
            table, [rid for rid in sorted(rids) if heap.holds(rid)]))

    def scan(self, table: str) -> list[Row]:
        """Full scan (2PL: S on the whole table)."""
        return list(self.scan_iter(table))

    def scan_iter(self, table: str) -> Iterator[Row]:
        """Streaming full scan (2PL: S on the whole table), polling the
        guard every :data:`GUARD_STRIDE` rows.

        The table lock is acquired eagerly, before any row is yielded;
        under strict 2PL it is held until commit/abort, so the iterator
        may be consumed lazily (the planner streams it through
        projection into top-k instead of materializing ``list[Row]``).
        """
        self._check_active()
        self._enter(table, None, LockMode.SHARED)
        rows = self._heap(table).scan()
        guard = self.guard
        if guard is None:
            return rows

        def guarded() -> Iterator[Row]:
            for i, row in enumerate(rows):
                if i % GUARD_STRIDE == 0:
                    guard.check()
                yield row

        return guarded()

    def scan_units(self, table: str) -> Iterator[ScanUnit]:
        """The table's vectorizable scan units (2PL: S on the whole
        table), in global rid order; see :meth:`HeapTable.scan_units`."""
        self._check_active()
        self._enter(table, None, LockMode.SHARED)
        return self._heap(table).scan_units()

    def has_table(self, table: str) -> bool:
        """Whether ``table`` is there for this reader."""
        try:
            self._heap(table)
        except KeyError:
            return False
        return True

    def scan_where(self, table: str,
                   predicate: Callable[[dict[str, Any]], bool]) -> list[Row]:
        """Filtered full scan (2PL: S on the whole table)."""
        return [r for r in self.scan_iter(table) if predicate(r.values)]

    def lookup_units(self, table: str, column: str,
                     value: Any) -> list[ScanUnit]:
        """Index-assisted equality lookup; falls back to a scan."""
        self._check_active()
        rids = self._probe(table, column, lambda index: index.lookup(value))
        if rids is None:
            return self._scan_fallback(
                table, lambda v: v.get(column) == value)
        return self._fetch(table, rids, "rdbms.index.lookups")

    def range_units(self, table: str, column: str, low: Any = None,
                    high: Any = None, include_low: bool = True,
                    include_high: bool = True) -> list[ScanUnit]:
        """Sorted-index range lookup, in rid order (the same order a
        filtered scan would produce); falls back to a scan when no sorted
        index exists on the column."""
        self._check_active()
        rids = self._probe(table, column, lambda index: sorted(
            index.range(low, high, include_low, include_high)),
            need_sorted=True)
        if rids is None:

            def in_range(values: dict[str, Any]) -> bool:
                value = values.get(column)
                if value is None:
                    return False
                if low is not None and (
                        value < low if include_low else value <= low):
                    return False
                if high is not None and (
                        value > high if include_high else value >= high):
                    return False
                return True

            return self._scan_fallback(table, in_range)
        return self._fetch(table, rids, "rdbms.index.range_scans")

    def pk_units(self, table: str, key: Any) -> list[ScanUnit]:
        """The row whose primary key is ``key`` (at most one unit)."""
        self._check_active()
        rid = self._pk_rid(table, key)
        if rid is None:
            return []
        return self._locate(table, [rid])

    def _fetch(self, table: str, rids: list[int],
               counter: str) -> list[ScanUnit]:
        units = self._locate(table, rids)
        registry = metrics.get_registry()
        registry.inc(counter)
        registry.inc("rdbms.index.rows_fetched", len(rids))
        return units

    def _scan_fallback(self, table: str,
                       keep: Callable[[dict[str, Any]], bool],
                       ) -> list[ScanUnit]:
        metrics.get_registry().inc("rdbms.index.scan_fallbacks")
        return [("rows", [(row.rid, row.values)
                          for row in self.scan_iter(table)
                          if keep(row.values)], None)]

    def lookup(self, table: str, column: str, value: Any) -> list[Row]:
        return fetch_rows(self.lookup_units(table, column, value))

    def range_lookup(self, table: str, column: str, low: Any = None,
                     high: Any = None, include_low: bool = True,
                     include_high: bool = True) -> list[Row]:
        return fetch_rows(self.range_units(table, column, low, high,
                                           include_low, include_high))

    def get_by_pk(self, table: str, key: Any) -> Row | None:
        """Point read by primary key, or None."""
        rows = fetch_rows(self.pk_units(table, key))
        return rows[0] if rows else None

    def _locate(self, table: str, rids: list[int]) -> list[ScanUnit]:
        """The rows at the ascending ``rids`` an index or primary-key
        probe found, as scan units, once this reader may read them."""
        return self._heap(table).locate(self._admit(table, rids))

    def _enter(self, table: str, rid: int | None, mode: LockMode) -> None:
        """Nothing to do for a reader that takes no locks."""

    def _admit(self, table: str, rids: list[int]) -> Iterable[int]:
        guard = self.guard
        if guard is None:
            return rids

        def strides() -> Iterator[list[int]]:
            for at in range(0, len(rids), GUARD_STRIDE):
                guard.check()
                yield rids[at:at + GUARD_STRIDE]

        return chain.from_iterable(strides())


class Transaction(TransactionReads):
    """A unit of work with strict-2PL isolation and all-or-nothing effects.

    Obtained from :meth:`Database.begin`.  Usable as a context manager:
    commits on clean exit, aborts on exception.
    """

    def __init__(self, db: "Database", txn_id: int) -> None:
        self._db = db
        self.txn_id = txn_id
        #: The change log: ``(kind, table, rid, before, after)`` per row
        #: written, in write order (``before`` is None for an insert,
        #: ``after`` for a delete).  Abort applies it in reverse, a
        #: snapshot rolls its view back with it and corrects its index
        #: reads by its rids, commit writes it to the WAL and folds it
        #: into the :class:`CommitDelta`.
        self._undo: list[tuple] = []
        self.finished = False
        #: Set at commit: each table it wrote -> the table's version
        #: before it and the version it gave the table.
        self.versions: dict[str, tuple[int, int]] = {}
        #: Optional cooperative-cancellation token checked at every
        #: operation boundary (and at commit, so a post-deadline
        #: transaction aborts instead of committing late).
        self.guard: CancellationToken | None = None

    # ----------------------------------------------------------- lifecycle

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.finished:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def commit(self) -> None:
        """Make all changes durable and visible, and release locks.

        A transaction that wrote rows appends ONE record to the WAL
        (:meth:`_logged_writes`), flushed — fsynced under ``sync_wal`` —
        before anything else happens: that is the durability point, and
        if it fails the transaction is still open and can be aborted.
        One that wrote nothing appends nothing.

        The append and the MVCC visibility flip (deregistering this
        transaction from the active-write set and bumping the committed
        version of every table it wrote) share one mutate-lock hold:
        records are on the log in the order their transactions became
        visible, and a snapshot built at any instant sees the full
        pre-commit state (change log rolled back) or the full
        post-commit state — never a mix.

        Listeners registered on the database fire after locks are
        released (so a listener's own queries cannot self-deadlock) and
        only when the transaction actually wrote rows.
        """
        self._check_finished()
        if self.guard is not None:
            self.guard.check()
        db = self._db
        tables = {entry[1] for entry in self._undo}
        with db._mutate_lock:
            if tables and db._wal is not None:  # no log: skip serializing
                db._log(self.txn_id, "commit", writes=self._logged_writes())
            db._active_txns.pop(self.txn_id, None)
            before = {t: db._table_versions.get(t, 0) for t in tables}
            db._bump_versions(tables, self._undo)
            self.versions = {t: (v, db._table_versions[t])
                             for t, v in before.items()}
        self.finished = True
        db._locks.release_all(self.txn_id)
        metrics.get_registry().inc("rdbms.txn.commits")
        if tables:
            if db._listeners:
                db._notify(self._build_delta())
            db._maybe_auto_compact(tables)

    def _logged_writes(self) -> list[list]:
        """The change log as the commit record carries it: a ``[table,
        ops]`` run per stretch of consecutive writes to one table, each
        op ``["insert", rid, values]``, ``["update", rid, changed
        columns]`` or ``["delete", rid]``, redone in order."""
        runs: list[list] = []
        for table, entries in groupby(self._undo, key=itemgetter(1)):
            ops: list[list] = []
            for kind, _, rid, before, after in entries:
                if kind == "insert":
                    ops.append([kind, rid, after])
                elif kind == "update":
                    ops.append([kind, rid, {
                        column: value for column, value in after.items()
                        if _changed(before[column], value)}])
                else:
                    ops.append([kind, rid])
            runs.append([table, ops])
        return runs

    def _build_delta(self) -> CommitDelta:
        """Fold the change log into a CommitDelta."""
        folded: dict[str, tuple[list, list, list]] = {}
        for kind, table, _, before, after in self._undo:
            inserted, updated, deleted = folded.setdefault(
                table, ([], [], []))
            if kind == "insert":
                inserted.append(after)
            elif kind == "update":
                updated.append((before, after))
            else:
                deleted.append(before)
        return CommitDelta(tables={
            table: TableDelta(*map(tuple, lists))
            for table, lists in folded.items()})

    def abort(self) -> None:
        """Undo all changes (in reverse order) and release locks.

        The whole rollback runs under one mutate-lock hold, together
        with the MVCC deregistration: a snapshot builder can never
        observe a half-undone transaction.  Nothing was logged for this
        transaction and nothing is now.  The guard is deliberately NOT
        checked here — abort is the cleanup path for an already-expired
        deadline and must always run.
        """
        self._check_finished()
        db = self._db
        with db._mutate_lock:
            for entry in reversed(self._undo):
                db._apply_undo(entry)
            self._undo.clear()
            db._active_txns.pop(self.txn_id, None)
        self.finished = True
        db._locks.release_all(self.txn_id)
        metrics.get_registry().inc("rdbms.txn.aborts")

    # ------------------------------------------------------------- writes

    def write_many(self, table: str,
                   ops: Sequence[tuple]) -> list[Row | None]:
        """Apply writes to one table, in order; X-locks each existing row
        it updates or deletes and claims the rids its inserts take.

        Each operation is ``("insert", values)``, ``("update", rid,
        changes)`` or ``("delete", rid)``.  The engine's one write
        routine (:meth:`insert`, :meth:`insert_many`, :meth:`update` and
        :meth:`delete` are forms of it): one intention-exclusive table
        lock, an X lock per existing row written, one mutate-lock
        critical section in which the inserts' fresh rids are claimed as
        one range (:meth:`LockManager.claim`: implicit X locks, no entry
        per row), the heap and the indexes change and each row written is
        appended to the change log; nothing reaches the WAL before
        :meth:`commit`.  An update that leaves every stored value as it
        is (compared against the heap row, under the locks the write
        holds anyway) is dropped: no change-log entry, so nothing logged,
        no version bumped, no listener told.  All-or-nothing — an
        operation that fails takes back the ones before it.  Operations
        that take a primary-key value another open transaction deleted
        or changed away wait for that transaction to end first.

        Returns, per operation, the inserted, updated or removed row, or
        None for a dropped update.

        Raises:
            SchemaError: schema violation in any operation.
            KeyError: unknown table, or unknown rid in any operation.
        """
        self._check_active()
        if not ops:
            return []
        db, changes = self._db, self._undo
        locks, txn_id = db._locks, self.txn_id
        rids = [op[1] for op in ops if op[0] != "insert"]
        self.lock_rows(table, rids)
        inserts = len(ops) - len(rids)
        results: list[Row | None] = []
        mark = len(changes)
        with db._mutate_lock:
            heap = db._table(table)
            freed_from = self._freed_by_others(heap, ops)
            if freed_from is None:
                indexes = db._indexes_of(table)
                if inserts:  # the rids the inserts take next, one claim
                    first = heap._next_rid
                    locks.claim(txn_id, table, first, first + inserts - 1)
                try:
                    for op in ops:
                        kind = op[0]
                        if kind == "insert":  # (the log keeps the
                            # stored dict, the caller gets a copy)
                            row = heap.insert(op[1])
                            before = None
                            after = heap.stored_values(row.rid)
                        elif kind == "update":
                            old, row = heap.update(op[1], op[2])
                            before, after = old.values, row.values
                            if before == after:
                                results.append(None)
                                continue
                        elif kind == "delete":
                            row = heap.delete(op[1])
                            before, after = row.values, None
                        else:
                            raise ValueError(f"unknown write {kind!r}")
                        rid = row.rid
                        _reindex(indexes, rid, before, after)
                        changes.append((kind, table, rid, before, after))
                        results.append(row)
                except BaseException:
                    for entry in reversed(changes[mark:]):
                        db._apply_undo(entry)
                    del changes[mark:]
                    if inserts:  # the claimed rids not taken: no one's
                        heap._next_rid = first + inserts
                    raise
        if freed_from is not None:
            # Wait for the transaction that freed the value (it X-locks
            # that rid to its end), then look again.
            self.lock_rows(table, (freed_from,))
            return self.write_many(table, ops)
        if inserts:
            metrics.get_registry().inc("rdbms.rows.inserted", inserts)
        return results

    def lock_rows(self, table: str, rids: Iterable[int]) -> None:
        """X-lock existing rows ahead of writing them (IX on the table):
        once this returns, every other commit to them is in the write
        history, and none comes before this transaction ends."""
        self._check_active()
        acquire, txn_id = self._db._locks.acquire, self.txn_id
        acquire(txn_id, (table, None), LockMode.INTENTION_EXCLUSIVE)
        for rid in rids:
            acquire(txn_id, (table, rid), LockMode.EXCLUSIVE)

    def _freed_by_others(self, heap: HeapTable,
                         ops: Sequence[tuple]) -> int | None:
        """The rid from which another open transaction freed (deleted, or
        changed away) a primary-key value that one of ``ops`` takes, or
        None; mutate lock held.  Until that transaction ends the value is
        still in use in committed state: its abort puts the row back, and
        recovery, which redoes transactions in commit order, would meet
        this insert before that delete.  Costs a pass over the change
        logs of the table's other open writers: nothing when it has none.
        """
        db, pk, table = self._db, heap.schema.primary_key, heap.name
        if pk is None or len(db._active_txns) == 1:
            return None
        freed: dict[Any, int] = {}
        for txn_id in db._locks.holders((table, None)):
            txn = db._active_txns.get(txn_id)  # None: ended, still releasing
            if txn is None or txn is self:
                continue
            for kind, name, rid, before, after in txn._undo:
                if name == table and kind != "insert" and (
                        after is None or after[pk] != before[pk]):
                    freed[before[pk]] = rid
        for op in ops if freed else ():
            if op[0] in ("insert", "update") and op[-1].get(pk) in freed:
                return freed[op[-1][pk]]
        return None

    def insert(self, table: str, values: dict[str, Any]) -> Row:
        """Insert a row; its rid is claimed (an implicit X lock).

        Raises:
            SchemaError: schema violation.
            KeyError: unknown table.
        """
        return self.write_many(table, (("insert", values),))[0]

    def insert_many(self, table: str, values_list: list[dict[str, Any]]) -> list[Row]:
        """Insert a batch of rows; their rids are claimed as one range
        (implicit X locks, no lock entry per row).

        All-or-nothing — a schema or primary-key violation on any row
        stores none of them.

        Raises:
            SchemaError: schema violation on any row.
            KeyError: unknown table.
        """
        rows = self.write_many(
            table, [("insert", values) for values in values_list])
        if rows:
            metrics.get_registry().observe(
                "rdbms.insert.batch_size", len(rows),
                buckets=DEFAULT_SIZE_BUCKETS)
        return rows

    def update(self, table: str, rid: int, changes: dict[str, Any]) -> Row:
        """Update a row by rid; X-locks it (one this transaction inserted
        is X-locked already, by its claim); returns the new row (the
        stored one when ``changes`` change nothing)."""
        row = self.write_many(table, (("update", rid, changes),))[0]
        return self.get(table, rid) if row is None else row

    def delete(self, table: str, rid: int) -> Row:
        """Delete a row by rid; X-locks it; returns the removed row."""
        return self.write_many(table, (("delete", rid),))[0]

    # -------------------------------------- TransactionReads hooks (2PL)

    def _heap(self, table: str) -> HeapTable:
        return self._db._table(table)

    def _probe(self, table: str, column: str,
               probe: Callable[[Index], list[int]],
               need_sorted: bool = False) -> list[int] | None:
        db = self._db
        index = db.sorted_index(table, column) if need_sorted \
            else db._find_index(table, column)
        if index is None:
            return None
        self._enter(table, None, LockMode.INTENTION_SHARED)
        return probe(index)

    def _pk_rid(self, table: str, key: Any) -> int | None:
        self._enter(table, None, LockMode.INTENTION_SHARED)
        return self._db._table(table)._pk_index.get(key)

    def _enter(self, table: str, rid: int | None, mode: LockMode) -> None:
        self._db._locks.acquire(self.txn_id, (table, rid), mode)

    def _locate(self, table: str, rids: list[int]) -> list[ScanUnit]:
        """A probe may find the rid of another transaction's uncommitted
        insert and wait here for its lock; when that transaction aborts,
        the row is gone and is left out (``get`` and ``update`` of a
        missing rid still raise)."""
        heap, rids = self._heap(table), self._admit(table, rids)
        try:
            return heap.locate(rids)
        except KeyError:
            return heap.locate([rid for rid in rids if heap.holds(rid)])

    def _admit(self, table: str, rids: list[int]) -> list[int]:
        """S-lock every rid (held to commit, like any 2PL read)."""
        acquire, guard = self._db._locks.acquire, self.guard
        for n, rid in enumerate(rids):
            if guard is not None and not n % GUARD_STRIDE:
                guard.check()
            acquire(self.txn_id, (table, rid), LockMode.SHARED)
        return rids

    # ---------------------------------------------------------- internals

    def _check_active(self) -> None:
        self._check_finished()
        if self.guard is not None:
            self.guard.check()

    def _check_finished(self) -> None:
        if self.finished:
            raise TransactionAborted(f"txn {self.txn_id} already finished")


class Database:
    """Top-level engine object.

    Args:
        directory: where the WAL lives; ``None`` for a purely
            in-memory database (no durability, no recovery).
        sync_wal: fsync at each commit (durable but slow).

    Opening a database over an existing directory runs recovery
    automatically.
    """

    def __init__(self, directory: str | None = None, sync_wal: bool = False) -> None:
        self._tables: dict[str, HeapTable] = {}
        self._indexes: dict[tuple[str, str], Index] = {}
        self._locks = LockManager()
        self._mutate_lock = threading.RLock()
        self._txn_counter = 0
        self._txn_lock = threading.Lock()
        self._listeners: list[Callable[[CommitDelta], None]] = []
        self._stats_manager = None
        # --- MVCC state (all guarded by _mutate_lock) ---
        #: Active write transactions whose change logs roll snapshots
        #: back to committed state.
        self._active_txns: dict[int, Transaction] = {}
        #: Per-table committed version: bumped at every commit/DDL that
        #: touches the table.  Monotonic across the whole database (one
        #: shared sequence), so a dropped-and-recreated table can never
        #: reuse a version number.
        self._table_versions: dict[str, int] = {}
        self._version_seq = 0
        #: Bumped by every change of what a plan is chosen from besides
        #: the data: tables, schemas, indexes.  A prepared
        #: SELECT (:meth:`~repro.storage.rdbms.planner.Planner.prepare`)
        #: is re-prepared when it moved.
        self.catalog_version = 0
        #: Per-table snapshot cache: only the first reader after a commit
        #: (or a change of layout) pays the O(tail) copy.
        self._snapshot_cache: dict[str, Any] = {}
        #: Per table: ``(version, rids written)`` of its latest commits,
        #: at most :meth:`_history_bound` rows, with their row count, and
        #: its floor — the version of the newest commit trimmed off or of
        #: its last DDL: what corrects a snapshot's index reads
        #: (:meth:`written_since`).
        self._history: dict[str, deque[tuple[int, list[int]]]] = {}
        self._history_rows: dict[str, int] = {}
        self._floor: dict[str, int] = {}
        #: Retry policy for :meth:`run` (deadlock / lock-timeout victims).
        self.txn_retry: RetryPolicy = TXN_RETRY
        #: When set, any commit that leaves a table's row-store tail at or
        #: above this many rows triggers :meth:`compact` on that table.
        self.auto_compact_rows: int | None = None
        self._wal: WriteAheadLog | None = None
        if directory is not None:
            self._wal = WriteAheadLog(directory, sync=sync_wal)
            self._recover()

    # ------------------------------------------------------------ listeners

    def add_delta_listener(
            self, listener: Callable[[CommitDelta], None]) -> None:
        """Call ``listener(delta)`` with the row-level changes of every
        committed transaction that wrote rows, in commit order.

        Any committed transaction that touched rows notifies, whatever
        API produced the writes (``insert_many``, ``run_batch``, SQL):
        this is how standing queries follow the data, in O(delta).  The
        delta is folded from the change log at commit, and only when some
        listener is registered.  A reader that can wait for its next read
        asks :meth:`written_since` instead, and runs no code at commit.
        Schema changes arrive as a :class:`CommitDelta` whose ``ddl`` set names
        the affected tables (treat that as a wholesale resync signal).
        Listeners run in registration order, outside all engine locks,
        and must not raise.
        """
        self._listeners.append(listener)

    def _notify(self, delta: CommitDelta) -> None:
        for listener in self._listeners:
            listener(delta)

    # -------------------------------------------------------------- schema

    def create_table(self, schema: TableSchema) -> None:
        """Create a table.

        Raises:
            SchemaError: if the table already exists.
        """
        with self._mutate_lock:
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            self._tables[schema.name] = HeapTable(schema)
            self._bump_versions({schema.name})
            self.catalog_version += 1
            self._log(0, "create_table", schema=schema.to_dict())
        self._notify(CommitDelta(ddl=frozenset({schema.name})))

    def drop_table(self, name: str) -> None:
        """Drop a table and its indexes (under the EXCLUSIVE table lock:
        it waits for every open writer of the table to finish)."""
        with self._table_exclusive(name), self._mutate_lock:
            if name not in self._tables:
                raise SchemaError(f"no table {name!r}")
            del self._tables[name]
            self._bump_versions({name})
            self._table_versions.pop(name, None)
            self._drop_indexes(name)
            self.catalog_version += 1
            self._log(0, "drop_table", table=name)
        self._notify(CommitDelta(ddl=frozenset({name})))

    def alter_table(self, name: str, new_schema: TableSchema,
                    migrate: Callable[[dict[str, Any]], dict[str, Any]]) -> None:
        """Replace a table's schema, migrating each row through ``migrate``.

        Used by the schema-evolution subsystem; logged as an
        ``alter_schema`` record holding the migrated table's image, as a
        checkpoint holds it, so recovery loads what the migration made.
        Runs under the EXCLUSIVE table lock, like :meth:`compact`: it
        waits for the table's open writers, so the record carries
        committed rows only and no commit record straddles it.
        """
        with self._table_exclusive(name), self._mutate_lock:
            table = self._table(name)
            table.replace_schema(new_schema, migrate)
            self._log(0, "alter_schema", **_table_image(table))
            self._drop_indexes(name, new_schema)
            for key in [k for k in self._indexes if k[0] == name]:
                self._rebuild_index(*key)
            self._bump_versions({name})
            self.catalog_version += 1
        self._notify(CommitDelta(ddl=frozenset({name})))

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def schema(self, table: str) -> TableSchema:
        return self._table(table).schema

    def table_size(self, table: str) -> int:
        return len(self._table(table))

    # ------------------------------------------------------------- indexes

    def create_index(self, table: str, column: str, kind: str = "hash") -> None:
        """Create a secondary index (``kind`` is ``hash`` or ``sorted``).

        Logged as a txn-0 DDL record, so the index is there again after a
        reopen (recovery loads it from the recovered rows).
        """
        with self._mutate_lock:
            schema = self._table(table).schema
            if not schema.has_column(column):
                raise SchemaError(f"no column {column!r} in {table!r}")
            if (table, column) in self._indexes:
                raise SchemaError(f"index on {table}.{column} already exists")
            if kind not in _INDEX_KINDS:
                raise ValueError(f"unknown index kind {kind!r}")
            index = self._indexes[(table, column)] = \
                _INDEX_KINDS[kind](table, column)
            index.bulk_load(self._table(table).column_items(column))
            self.catalog_version += 1
            self._log(0, "create_index", table=table, column=column,
                      kind=kind)

    def sorted_index(self, table: str, column: str) -> SortedIndex | None:
        """The sorted index on (table, column) if one exists."""
        index = self._indexes.get((table, column))
        return index if isinstance(index, SortedIndex) else None

    # ---------------------------------------------------------- statistics

    def statistics(self):
        """The database's :class:`~repro.storage.rdbms.stats.StatisticsManager`
        (created lazily; one per database, reading committed snapshots)."""
        if self._stats_manager is None:
            from repro.storage.rdbms.stats import StatisticsManager

            self._stats_manager = StatisticsManager(self)
        return self._stats_manager

    # ----------------------------------------------------------- compaction

    def compact(self, table: str,
                target_rows: int = SEGMENT_TARGET_ROWS) -> dict[str, Any]:
        """Freeze the table's committed tail rows into columnar segments,
        rewriting the segments written to since they froze (their dead
        positions go, the new versions of those rows come in) and leaving
        every other segment as it is.

        Runs under the EXCLUSIVE table lock (:meth:`_table_exclusive`),
        so no concurrent writer can have uncommitted rows in the tail
        while it runs — everything frozen is committed data.  The freeze
        (or, freezing nothing, the drop of a segment whose positions are
        all dead) is logged as a ``compact`` WAL record (txn 0,
        DDL-style: replay applies it unconditionally at its log position,
        where the committed row set provably matches the live one), so a
        crash at any point recovers to a consistent state: either the
        record made it and replay re-freezes the identical layout, or it
        did not and the rows are simply still in the tail.

        Compaction changes layout, not data: delta listeners are NOT
        told and the table's version stays, so cached query results and
        statistics stay valid; only the cached view goes.  A segment it
        rewrites is spliced where it can be — its kept rows copied, only
        the new ones encoded, a built imprint carried over — and is byte
        for byte what a fresh encode of its rows makes
        (:meth:`HeapTable.compact`).

        Returns a summary dict (segments created, rows frozen, totals).
        """
        with self._table_exclusive(table), \
                get_tracer().span("rdbms.compact") as span:
            with self._mutate_lock:
                heap = self._table(table)
                before = heap.segment_count()
                created, frozen, max_rid = heap.compact(
                    target_rows=target_rows)
                segment_count = heap.segment_count()
                # (nothing frozen: the layout changed only if a segment
                # with every position dead went)
                if frozen or segment_count != before:
                    self._log(0, "compact", table=table, max_rid=max_rid,
                              target_rows=target_rows)
                    self._snapshot_cache.pop(table, None)
            span.set_attribute("table", table)
            span.set_attribute("segments_created", created)
            span.set_attribute("rows_frozen", frozen)
        return {
            "table": table,
            "segments_created": created,
            "rows_frozen": frozen,
            "segment_count": segment_count,
        }

    def _maybe_auto_compact(self, tables: set[str]) -> None:
        threshold = self.auto_compact_rows
        if not threshold:
            return
        for table in tables:
            try:
                heap = self._table(table)
            except KeyError:
                continue
            if heap.tail_size + heap.dead_rows >= threshold:
                # Dead positions wait for compaction like tail rows do.
                # The compaction transaction writes no rows, so its own
                # commit cannot re-trigger this hook.
                self.compact(table)

    def segment_counts(self) -> dict[str, int]:
        """Table name -> live segment count (``repro stats`` reporting)."""
        with self._mutate_lock:
            return {name: t.segment_count()
                    for name, t in self._tables.items() if t.segment_count()}

    def dead_row_counts(self) -> dict[str, int]:
        """Table name -> frozen rows deleted or superseded since they
        froze and not yet compacted away (tables with none left out)."""
        with self._mutate_lock:
            return {name: t.dead_rows
                    for name, t in self._tables.items() if t.dead_rows}

    # --------------------------------------------------------- transactions

    def begin(self) -> Transaction:
        """Start a new transaction."""
        with self._txn_lock:
            self._txn_counter += 1
            txn_id = self._txn_counter
        txn = Transaction(self, txn_id)
        # Registration is guarded by the mutate lock so a snapshot
        # builder iterating the active set never races a dict resize.
        with self._mutate_lock:
            self._active_txns[txn_id] = txn
        return txn

    def begin_snapshot(self, guard: CancellationToken | None = None):
        """Start a lock-free read-only transaction at the current commit
        point (DESIGN.md §15).

        All tables are resolved under one mutate-lock hold, so the
        returned :class:`~repro.storage.rdbms.mvcc.SnapshotTransaction`
        is cross-table consistent: it sees every transaction that
        committed before this call and none that commit after (or are
        still in flight).  Readers on this handle take no locks, cannot
        deadlock, and never enter the waits-for graph.
        """
        from repro.storage.rdbms.mvcc import SnapshotTransaction, TableSnapshot

        registry = metrics.get_registry()
        with self._mutate_lock:
            # collected only once some table has to be rebuilt
            undo: dict[str, list[tuple]] | None = None
            snapshots: dict[str, Any] = {}
            for name, heap in self._tables.items():
                cached = self._snapshot_cache.get(name)
                if cached is None:
                    if undo is None:
                        undo = self._uncommitted()
                    cached = self._snapshot_cache[name] = TableSnapshot(
                        heap.committed_view(undo.get(name, ())),
                        self._table_versions.get(name, 0))
                    registry.inc("rdbms.mvcc.snapshot_builds")
                else:
                    registry.inc("rdbms.mvcc.snapshot_reuses")
                snapshots[name] = cached
        registry.inc("rdbms.mvcc.read_txns")
        return SnapshotTransaction(self, snapshots, guard=guard)

    def run(self, work: Callable[[Transaction], Any],
            retries: int | None = None,
            guard: CancellationToken | None = None) -> Any:
        """Run ``work`` in a transaction, retrying deadlocks and lock
        timeouts under :attr:`txn_retry` (a
        :class:`~repro.faults.retry.RetryPolicy`: exponential backoff,
        deterministic decorrelated jitter, optional deadline).

        Args:
            work: callable receiving the transaction.
            retries: override the policy's ``max_attempts`` for this call.
            guard: optional cancellation token installed on each attempt's
                transaction (checked at every operation and at commit).

        Returns whatever ``work`` returns; commits on success.
        """
        from repro.storage.rdbms.lockmgr import DeadlockError, LockTimeoutError

        policy = self.txn_retry
        if retries is not None and retries != policy.max_attempts:
            policy = replace(policy, max_attempts=retries)
        registry = metrics.get_registry()
        attempts = 0

        def attempt() -> tuple[Any, int]:
            nonlocal attempts
            attempts += 1
            if attempts > 1:
                registry.inc("rdbms.txn.retries")
            txn = self.begin()
            txn.guard = guard
            try:
                result = work(txn)
                txn.commit()
                return result, txn.txn_id
            except BaseException:
                if not txn.finished:
                    txn.abort()
                raise

        with get_tracer().span("rdbms.txn") as span:
            result, txn_id = policy.run(
                attempt, salt=f"txn-{threading.get_ident()}",
                retry_on=(DeadlockError, LockTimeoutError))
            span.set_attribute("txn_id", txn_id)
            span.set_attribute("attempts", attempts)
            return result

    def run_batch(self, works: "list[Callable[[Transaction], Any]]",
                  retries: int | None = None) -> list[Any]:
        """Run several work items inside ONE transaction (one lock scope,
        one WAL record), retrying the whole batch on deadlock or lock
        timeout under the same :class:`RetryPolicy` as :meth:`run`.

        Returns the per-item results in order.
        """
        return self.run(lambda txn: [work(txn) for work in works],
                        retries=retries)

    # ----------------------------------------------------------- durability

    def checkpoint(self) -> None:
        """Append one ``checkpoint`` record — the committed image of every
        table (:func:`_table_image`), the table, column, kind and
        contents (:meth:`Index.image`) of every index and the
        transaction counter — as the first record of a new WAL segment,
        and delete the segments before it.

        The images are read through :meth:`begin_snapshot`: the index of
        a table an open writer wrote to is the snapshot's own, loaded from
        its view, any other the live one, so open writers' rows are out of
        them (they arrive with their commit records, after this one); the
        mutate lock is held through the append, so no commit lands between
        the images and the record.
        If the append fails, nothing of it stays in the log and nothing
        is deleted; if the fsync or a deletion after it fails, the record
        stays and the next open deletes the segments before it
        (:meth:`WriteAheadLog.records`).
        """
        if self._wal is None:
            return
        with self._mutate_lock:
            snapshot, undo = self.begin_snapshot(), self._uncommitted()
            indexes = [(table, column, snapshot._snap(table).index(
                column, type(index)) if table in undo else index)
                for (table, column), index in self._indexes.items()]
            self._wal.checkpoint(
                tables={name: _table_image(snapshot._heap(name))
                        for name in self._tables},
                indexes=[self._index_image(*entry) for entry in indexes],
                txn_counter=self._txn_counter)

    @staticmethod
    def _index_image(table: str, column: str,
                     index: Index) -> dict[str, Any]:
        """A checkpoint's entry of one index: its table, column and kind,
        and its contents."""
        return {"table": table, "column": column,
                "kind": "sorted" if isinstance(index, SortedIndex)
                else "hash", **index.image()}

    def close(self) -> None:
        """Release the log, after a shutdown checkpoint when it holds a
        record after its last checkpoint: the next open loads the images
        instead of redoing the log.  A checkpoint that fails is raised
        once the log is released; what it leaves, the next open recovers
        from (:meth:`checkpoint`)."""
        if self._wal is None:
            return
        try:
            if self._wal.needs_checkpoint:
                self.checkpoint()
        finally:
            self._wal.close()

    def wal_size_bytes(self) -> int:
        return self._wal.size_bytes() if self._wal else 0

    # ------------------------------------------------------------ internals

    def _table(self, name: str) -> HeapTable:
        if name not in self._tables:
            raise KeyError(f"no table {name!r}")
        return self._tables[name]

    def _find_index(self, table: str, column: str) -> Index | None:
        return self._indexes.get((table, column))

    def _drop_indexes(self, table: str,
                      schema: TableSchema | None = None) -> None:
        """Forget ``table``'s indexes — given its new ``schema``, only
        those on a column it no longer has."""
        for key in [k for k in self._indexes if k[0] == table
                    and (schema is None or not schema.has_column(k[1]))]:
            del self._indexes[key]

    def _rebuild_index(self, table: str, column: str) -> None:
        new = type(self._indexes[(table, column)])(table, column)
        new.bulk_load(self._table(table).column_items(column))
        self._indexes[(table, column)] = new

    def _indexes_of(self, table: str) -> list[tuple[str, Index]]:
        return [(column, index)
                for (t, column), index in self._indexes.items() if t == table]

    def _log(self, txn_id: int, rec_type: str, **payload: Any) -> None:
        if self._wal is not None:
            self._wal.append(txn_id, rec_type, **payload)

    @contextmanager
    def _table_exclusive(self, table: str) -> Iterator[None]:
        """Hold the EXCLUSIVE lock on ``table`` for a layout or schema
        change, in a transaction of its own that writes (and so logs)
        nothing: the change waits for the table's open writers, and none
        starts until it is done."""
        txn = self.begin()
        try:
            self._locks.acquire(txn.txn_id, (table, None), LockMode.EXCLUSIVE)
            yield
            txn.commit()
        except BaseException:
            if not txn.finished:
                txn.abort()
            raise

    # --------------------------------------------------------------- MVCC

    def _uncommitted(self) -> dict[str, list[tuple]]:
        """Table -> the change-log entries of every open transaction, in
        append order (mutate lock held): what rolls a table back to its
        committed state through :meth:`HeapTable.committed_view`."""
        undo: dict[str, list[tuple]] = {}
        for txn in self._active_txns.values():
            for entry in txn._undo:
                undo.setdefault(entry[1], []).append(entry)
        return undo

    def _bump_versions(self, tables: "set[str] | frozenset[str]",
                       log: Sequence[tuple] | None = None) -> None:
        """Advance the committed version of each table and drop its
        cached view (mutate lock held).

        Versions come from one database-wide monotonic sequence, so no
        two distinct committed states of any table — even across a
        drop/recreate — ever share a version number.  The rids a commit's
        change ``log`` wrote to a table join its history, which keeps the
        latest commits up to :meth:`_history_bound` rows, trimmed from the
        front: the floor moves to the newest version trimmed off.  DDL (no
        ``log``) empties the history and moves the floor to its own
        version.
        """
        for table in tables:
            self._version_seq += 1
            version = self._table_versions[table] = self._version_seq
            self._snapshot_cache.pop(table, None)
            if log is None:
                self._history.pop(table, None)
                self._history_rows.pop(table, None)
                self._floor[table] = version
                continue
            history = self._history.setdefault(table, deque())
            rids = [rid for _, name, rid, _, _ in log if name == table]
            history.append((version, rids))
            rows = self._history_rows.get(table, 0) + len(rids)
            bound = self._history_bound(table)
            while rows > bound:
                self._floor[table], trimmed = history.popleft()
                rows -= len(trimmed)
            self._history_rows[table] = rows
        metrics.get_registry().set_gauge(
            "rdbms.mvcc.history_rows", sum(self._history_rows.values()))

    def _history_bound(self, table: str) -> int:
        """The most rows of D (the history, and apart from it the open
        change logs) a snapshot of ``table`` is corrected by.
        Correcting costs a probe ~1 µs per row of D, loading an index of
        its own ~0.2–0.6 µs per row of the table, once: a 32nd of the
        table keeps a probe under a fifth of a load."""
        return 64 + len(self._tables[table]) // 32

    def written_since(self, table: str, version: int,
                      uncommitted: bool = True) -> set[int] | None:
        """D: the rids of ``table`` in the change logs of the open
        transactions and of those committed after ``version`` — where
        what was read of it at ``version`` may be stale.  None when the
        history does not reach back to ``version`` (it is below the
        table's floor: trimmed, or DDL — a drop included — came since),
        or when the open change logs (all their tables counted) hold more
        than :meth:`_history_bound` rows: read it anew.

        ``uncommitted=False`` leaves the open change logs (and their
        bound) out: the committed writes only, for a reader that takes
        an open transaction's rows in once it commits."""
        with self._mutate_lock:
            if version < self._floor.get(table, 0):
                return None
            logs = [txn._undo for txn in self._active_txns.values()
                    if txn._undo] if uncommitted else []
            if logs and sum(map(len, logs)) > self._history_bound(table):
                return None
            written = {rid for log in logs
                       for _, name, rid, _, _ in log if name == table}
            for at, rids in reversed(self._history.get(table, ())):
                if at <= version:
                    break
                written.update(rids)
            return written

    def _apply_undo(self, entry: tuple) -> None:
        """Take back one change-log entry of an open transaction."""
        kind, table, rid, before, after = entry
        with self._mutate_lock:
            heap = self._table(table)
            if kind == "insert":
                heap.delete(rid)
            elif kind == "update":
                heap.update(rid, before)
            else:
                heap.insert(before, rid=rid)
            _reindex(self._indexes_of(table), rid, after, before)

    def _recover(self) -> None:
        """Rebuild state: redo every record on the log from the last
        checkpoint on (:meth:`WriteAheadLog.records`), in LSN order; a
        ``checkpoint`` record replaces the tables, the indexes and the
        transaction counter so far.  Once the log is read, the indexes of
        the tables a record after the checkpoint wrote, created or
        replaced are rebuilt from their rows; every other index is the
        checkpoint's, as it was loaded."""
        assert self._wal is not None
        max_txn = 0
        stale: set[str] = set()  # tables whose indexes are rebuilt
        for rec in self._wal.records():
            max_txn = max(max_txn, rec.txn_id)
            if rec.rec_type in ("create_table", "alter_schema"):
                table = _load_table(rec.payload)
                self._tables[table.name] = table
                self._drop_indexes(table.name, table.schema)
                stale.add(table.name)
            elif rec.rec_type == "drop_table":
                self._tables.pop(rec.payload["table"], None)
                self._drop_indexes(rec.payload["table"])
            elif rec.rec_type == "checkpoint":
                self._tables = {name: _load_table(image) for name, image
                                in rec.payload["tables"].items()}
                self._indexes = dict(map(_load_index,
                                         rec.payload["indexes"]))
                stale.clear()
                max_txn = max(max_txn, rec.payload.get("txn_counter", 0))
            elif rec.rec_type == "create_index":
                # DDL-style like compact: skipped when its table or column
                # is not there at this log position.
                key = (rec.payload["table"], rec.payload["column"])
                table = self._tables.get(key[0])
                if table is not None and table.schema.has_column(key[1]):
                    self._indexes.setdefault(
                        key, _INDEX_KINDS[rec.payload["kind"]](*key))
                    stale.add(key[0])
            elif rec.rec_type == "commit":
                # A whole transaction, redone at the position it became
                # durable.
                for table, ops in rec.payload["writes"]:
                    self._redo(table, ops)
                    stale.add(table)
            elif rec.rec_type == "compact":
                # DDL-style (txn 0): applied unconditionally at its log
                # position, where the replayed committed row set matches
                # the live tail the original compaction saw (it held an
                # exclusive table lock, so no writer straddled it).
                table = self._tables.get(rec.payload["table"])
                if table is not None:
                    table.compact(max_rid=rec.payload["max_rid"],
                                  target_rows=rec.payload["target_rows"])
            elif rec.rec_type == "reshard":
                # Written by versions that hash-partitioned tables; one
                # without a key only melted the table's segments.
                if rec.payload.get("shard_key") is not None:
                    raise ShardedLogError(rec.payload["table"])
                table = self._tables.get(rec.payload["table"])
                if table is not None:
                    table.melt_all()
        self._txn_counter = max_txn
        for key in [key for key in self._indexes if key[0] in stale]:
            self._rebuild_index(*key)

    def _redo(self, table: str, ops: Iterable[Sequence]) -> None:
        """Replay logged writes to one table, in order, each run of
        inserts as one bulk load (recovery: no locks, and the indexes are
        loaded once the log has been read)."""
        heap = self._tables[table]
        for kind, run in groupby(ops, key=itemgetter(0)):
            if kind == "insert":
                heap.load([(rid, values) for _, rid, values in run])
            elif kind == "update":
                for _, rid, changes in run:
                    heap.update(rid, changes)
            else:
                for _, rid in run:
                    heap.delete(rid)


class WriteCursor:
    """A writer's place in one table's write history, for state it keeps
    from rows it writes itself (their rids, a key counter): the state
    holds every commit up to version ``at``.  :meth:`others` asks
    :meth:`Database.written_since` what other transactions wrote since;
    :meth:`wrote` moves ``at`` past the writer's own commit when no other
    came between."""

    def __init__(self, db: Database, table: str,
                 at: int | None = None) -> None:
        self.db, self.table, self.at = db, table, at

    def others(self) -> tuple[Any, set[int] | None] | None:
        """None when no other transaction wrote the table since ``at`` (no
        snapshot is taken).  Otherwise a snapshot to take their writes in
        from and the rids written — None for every row: the history does
        not reach back, or ``at`` is not set — after which the state holds
        up to the snapshot."""
        if self.at is not None:
            written = self.db.written_since(self.table, self.at,
                                            uncommitted=False)
            if written is not None and not written:
                return None
        snap = self.db.begin_snapshot()
        written = None if self.at is None else \
            self.db.written_since(self.table, self.at, uncommitted=False)
        self.at = snap.version_of(self.table)
        return snap, written

    def wrote(self, txn: Transaction) -> None:
        """Note the writer's committed ``txn``: the state holds through it
        when the table was at ``at`` just before it."""
        before, after = txn.versions.get(self.table, (None, None))
        if self.at is not None and before == self.at:
            self.at = after
