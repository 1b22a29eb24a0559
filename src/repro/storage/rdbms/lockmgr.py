"""Hierarchical strict two-phase locking with deadlock detection.

Lock granularity is (table, rid) for rows and (table, None) for the table
itself.  Four modes with the classic multi-granularity compatibility matrix:

* ``IS`` (intention shared)  — about to S-lock some rows,
* ``IX`` (intention exclusive) — about to X-lock some rows,
* ``S``  (shared)            — reading the whole object,
* ``X``  (exclusive)         — writing the whole object.

Writers take IX on the table plus X on each existing row they update or
delete; point readers take IS on the table plus S on the row; full scans
take S on the table.  All locks are held to transaction end (strict 2PL):
the engine releases via :meth:`LockManager.release_all` only at
commit/abort.

A writer's lock on the rows it inserts is *implicit*, as with InnoDB's
implicit record locks: before the inserts take their rids (which only
grow) it registers the range as one *claim* (:meth:`LockManager.claim`),
and no per-row entry exists.  A request for a claimed rid is granted
outright to the claim's owner; anyone else's first turns the claim on
that rid into an explicit X entry held by the owner, then waits for it
as for any lock.  So the lock table grows with contention, not with the
size of a write.

Deadlocks are detected by cycle search in the waits-for graph whenever a
request would block; the requesting transaction is the victim.
"""

from __future__ import annotations

import enum
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Hashable

from repro.errors import ReproError
from repro.telemetry import metrics


class DeadlockError(ReproError):
    """Raised to the victim transaction when a deadlock is detected."""


class LockTimeoutError(ReproError, TimeoutError):
    """A lock wait exceeded the manager's timeout.

    Subclasses builtin :class:`TimeoutError` for backward compatibility
    (callers that caught ``TimeoutError`` keep working) while joining the
    typed :class:`~repro.errors.ReproError` hierarchy so the retry policy
    and the serving layer can target it precisely.
    """


class LockMode(enum.Enum):
    INTENTION_SHARED = "IS"
    INTENTION_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"


_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {}


def _fill_matrix() -> None:
    is_, ix, s, x = (
        LockMode.INTENTION_SHARED,
        LockMode.INTENTION_EXCLUSIVE,
        LockMode.SHARED,
        LockMode.EXCLUSIVE,
    )
    rows = {
        is_: {is_: True, ix: True, s: True, x: False},
        ix: {is_: True, ix: True, s: False, x: False},
        s: {is_: True, ix: False, s: True, x: False},
        x: {is_: False, ix: False, s: False, x: False},
    }
    for a, row in rows.items():
        for b, ok in row.items():
            _COMPATIBLE[(a, b)] = ok


_fill_matrix()

LockKey = tuple[str, Hashable]  # (table, rid) or (table, None)
_first = itemgetter(0)  # a claim's first rid


@dataclass
class _LockState:
    """Holders and waiter count for one lockable object."""

    holders: dict[int, set[LockMode]] = field(default_factory=dict)
    waiting: int = 0


class LockManager:
    """Thread-safe multi-granularity lock table for strict 2PL."""

    def __init__(self, timeout: float = 10.0) -> None:
        self._cond = threading.Condition()
        self._locks: dict[LockKey, _LockState] = {}
        self._held_by_txn: dict[int, set[LockKey]] = {}
        self._waits_for: dict[int, set[int]] = {}
        #: table -> its claims as ``[first, last, txn]``, sorted by first
        #: rid (they never overlap)
        self._claims: dict[str, list[list[int]]] = {}
        self._timeout = timeout

    # ------------------------------------------------------------------ API

    def acquire(self, txn_id: int, key: LockKey, mode: LockMode) -> None:
        """Acquire ``mode`` on ``key`` for ``txn_id``; blocks until granted.

        A transaction may hold several modes on one key (e.g. IX then S on a
        table); compatibility is only checked against *other* transactions.

        Raises:
            DeadlockError: this transaction was chosen as deadlock victim.
            LockTimeoutError: the wait exceeded the configured timeout.
        """
        with self._cond:
            state = self._locks.get(key)
            owner = self._claim_owner(key) if self._claims else None
            if state is None and owner is None:
                # Nobody holds, waits for or claims the key: granted
                # outright.
                self._locks[key] = _LockState({txn_id: {mode}})
                self._held_by_txn.setdefault(txn_id, set()).add(key)
                return
            if owner == txn_id:  # a row it inserted: X already, implicitly
                return
            if state is None:
                state = self._locks[key] = _LockState()
            elif self._already_holds(state, txn_id, mode):
                return
            if owner is not None and owner not in state.holders:
                # Another's uncommitted insert: make its X explicit, then
                # wait for it like any held lock.
                state.holders[owner] = {LockMode.EXCLUSIVE}
                self._held_by_txn.setdefault(owner, set()).add(key)
            # Wait metrics are recorded only when the request actually
            # blocks, so the granted-immediately fast path stays
            # metric-free.
            wait_started: float | None = None
            while not self._grantable(state, txn_id, mode):
                if wait_started is None:
                    wait_started = time.perf_counter()
                blockers = self._blockers(state, txn_id, mode)
                self._waits_for[txn_id] = blockers
                if self._creates_cycle(txn_id):
                    del self._waits_for[txn_id]
                    metrics.get_registry().inc("rdbms.lock.deadlocks")
                    raise DeadlockError(
                        f"txn {txn_id} deadlocked requesting {mode.value} on {key}"
                    )
                state.waiting += 1
                granted = self._cond.wait(timeout=self._timeout)
                state.waiting -= 1
                self._waits_for.pop(txn_id, None)
                if not granted:
                    metrics.get_registry().inc("rdbms.lock.timeouts")
                    raise LockTimeoutError(
                        f"txn {txn_id} timed out waiting for {mode.value} on {key}"
                    )
            if wait_started is not None:
                waited = time.perf_counter() - wait_started
                registry = metrics.get_registry()
                registry.inc("rdbms.lock.waits")
                registry.inc("rdbms.lock.wait_seconds", waited)
                registry.observe("rdbms.lock.wait_seconds.hist", waited)
            state.holders.setdefault(txn_id, set()).add(mode)
            self._held_by_txn.setdefault(txn_id, set()).add(key)

    def claim(self, txn_id: int, table: str, first: int, last: int) -> None:
        """Hold rids ``first``..``last`` of ``table`` for ``txn_id`` as
        implicit X locks until :meth:`release_all`.

        The caller claims rids no one else can hold: fresh ones, above
        every rid the table has handed out, taken under the lock that
        hands them out.  A claim that continues the transaction's claim
        just below it extends that one.
        """
        with self._cond:
            spans = self._claims.setdefault(table, [])
            at = bisect_right(spans, first, key=_first)
            if at and spans[at - 1][2] == txn_id \
                    and spans[at - 1][1] + 1 == first:
                spans[at - 1][1] = last
            else:
                spans.insert(at, [first, last, txn_id])

    def release_all(self, txn_id: int) -> None:
        """Release every lock the transaction holds, its claims included
        (commit/abort time): under one hold of the condition, so no
        request can turn a claim into an entry for an ended transaction."""
        with self._cond:
            for table, spans in list(self._claims.items()):
                spans[:] = [span for span in spans if span[2] != txn_id]
                if not spans:
                    del self._claims[table]
            for key in self._held_by_txn.pop(txn_id, set()):
                state = self._locks.get(key)
                if state is None:
                    continue
                state.holders.pop(txn_id, None)
                if not state.holders and state.waiting == 0:
                    del self._locks[key]
            self._waits_for.pop(txn_id, None)
            self._cond.notify_all()

    def held(self, txn_id: int) -> set[LockKey]:
        """Keys the transaction holds explicit entries for (test
        introspection); its claims show through :meth:`holders`."""
        with self._cond:
            return set(self._held_by_txn.get(txn_id, set()))

    def holders(self, key: LockKey) -> set[int]:
        """The transactions holding ``key`` in any mode, a claim's owner
        included."""
        with self._cond:
            state = self._locks.get(key)
            found = set(state.holders) if state is not None else set()
            owner = self._claim_owner(key)
            if owner is not None:
                found.add(owner)
            return found

    def lock_count(self) -> int:
        """Explicit lock-table entries (claims are not entries)."""
        with self._cond:
            return len(self._locks)

    # ------------------------------------------------------------ internals

    def _claim_owner(self, key: LockKey) -> int | None:
        """The transaction whose claim covers row ``key``, or None."""
        table, rid = key
        spans = self._claims.get(table) if rid is not None else None
        if spans:
            at = bisect_right(spans, rid, key=_first)
            if at and spans[at - 1][1] >= rid:
                return spans[at - 1][2]
        return None

    @staticmethod
    def _already_holds(state: _LockState, txn_id: int, mode: LockMode) -> bool:
        modes = state.holders.get(txn_id, set())
        if mode in modes or LockMode.EXCLUSIVE in modes:
            return True
        if mode is LockMode.INTENTION_SHARED and modes & {
            LockMode.INTENTION_EXCLUSIVE, LockMode.SHARED
        }:
            return True
        return False

    @staticmethod
    def _grantable(state: _LockState, txn_id: int, mode: LockMode) -> bool:
        for other, modes in state.holders.items():
            if other == txn_id:
                continue
            if any(not _COMPATIBLE[(held, mode)] for held in modes):
                return False
        return True

    @staticmethod
    def _blockers(state: _LockState, txn_id: int, mode: LockMode) -> set[int]:
        blockers: set[int] = set()
        for other, modes in state.holders.items():
            if other == txn_id:
                continue
            if any(not _COMPATIBLE[(held, mode)] for held in modes):
                blockers.add(other)
        return blockers

    def _creates_cycle(self, start: int) -> bool:
        """DFS through the waits-for graph looking for a cycle back to start."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))
        return False
