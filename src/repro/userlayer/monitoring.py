"""Continuous queries: the *monitoring* exploitation mode.

The DGE model lists monitoring among the exploitation modes, and the essay
names "blog analysis and monitoring" among the applications.  A
:class:`ContinuousQuery` is a standing SQL query plus a row predicate; the
:class:`ContinuousQueryManager` subscribes to the database's row-level
commit delta stream (:meth:`Database.add_delta_listener`) and evaluates
each standing query against *changed rows only* — O(delta) per commit, not
O(corpus).  Queries the delta path cannot handle (joins, aggregates,
GROUP BY, ORDER BY/LIMIT, unparseable SQL) fall back to a full re-run.

A row notifies when it *becomes present* in the query's result: matching
rows are refcounted, a notification fires on the 0 -> 1 transition, and
the count is released when the row leaves the result — so per-query memory
is bounded by the query's current result cardinality rather than growing
with all-time match history, and a row that disappears and later reappears
notifies again.  Row identity uses a canonical value encoding
(:func:`canonical_key_bytes`), so ``1`` and ``1.0`` are one row and NaN
compares equal to itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.storage.rdbms.engine import CommitDelta, Database, TableDelta
from repro.storage.rdbms.sql import (
    Aggregate,
    SelectStatement,
    SqlError,
    eval_predicate,
    execute_sql,
    parse_sql,
    _resolve,
)
from repro.telemetry import metrics

Callback = Callable[[str, dict[str, Any]], None]


def canonical_key_bytes(value: Any) -> bytes:
    """Bytes whose equality matches SQL ``=`` on the underlying values:
    numbers that compare equal encode alike (bools as 0/1, integral
    floats as their int, so ``-0.0`` is ``0``), strings apart from
    numbers (``1`` is not ``'1'``), and every NaN alike."""
    if value is None:
        return b"\x00null"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        if value != value:
            return b"f:nan"
        if value.is_integer():
            value = int(value)
        else:
            return b"f:" + repr(value).encode("ascii")
    if isinstance(value, int):
        return b"i:" + str(value).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    return b"r:" + repr(value).encode("utf-8", "backslashreplace")


@dataclass
class Notification:
    """One delivered match."""

    query_id: str
    row: dict[str, Any]


@dataclass
class ContinuousQuery:
    """A standing query.

    Attributes:
        query_id: unique identifier.
        sql: the standing SELECT.
        condition: optional extra row predicate (Python callable), applied
            to the projected result row.
        callback: invoked as ``callback(query_id, row)`` per new match;
            when None, matches accumulate in the manager's inbox.
    """

    query_id: str
    sql: str
    condition: Callable[[dict[str, Any]], bool] | None = None
    callback: Callback | None = None


def _row_key(row: dict[str, Any]) -> bytes:
    """Canonical identity for a result row.

    Built from ``canonical_key_bytes`` per value so numerically-equal
    values (``1`` vs ``1.0``) key identically and NaN keys stably —
    ``repr``-based keys delivered duplicate/missed notifications for both.
    """
    parts = []
    for column in sorted(row):
        parts.append(column.encode("utf-8"))
        parts.append(canonical_key_bytes(row[column]))
    return b"\x1f".join(parts)


@dataclass
class _QueryPlan:
    """What the manager precomputed about one standing query."""

    query: ContinuousQuery
    #: Parsed statement when the query is delta-eligible, else None.
    stmt: SelectStatement | None
    #: Tables the query reads (None = unknown -> re-run on every commit).
    tables: frozenset[str] | None


def _plan(query: ContinuousQuery) -> _QueryPlan:
    try:
        stmt = parse_sql(query.sql)
    except SqlError:
        return _QueryPlan(query, None, None)
    if not isinstance(stmt, SelectStatement):
        return _QueryPlan(query, None, None)
    tables = frozenset(
        t for t in (stmt.table, stmt.join_table) if t is not None)
    eligible = (
        stmt.join_table is None
        and not stmt.group_by
        and stmt.having is None
        and stmt.order_by is None
        and stmt.limit is None
        and not any(isinstance(item.expr, Aggregate) for item in stmt.items)
    )
    return _QueryPlan(query, stmt if eligible else None, tables)


def _project(stmt: SelectStatement, row: dict[str, Any]) -> dict[str, Any]:
    """Replicate the executor's projection for one delta row."""
    if stmt.star:
        return {k: v for k, v in row.items() if k != "__rid__"}
    return {item.key(): _resolve(row, item.expr) for item in stmt.items}


class ContinuousQueryManager:
    """Registry and delta-driven evaluator for continuous queries.

    Attaches itself to the database's commit delta stream on first
    registration; delta-eligible queries are then evaluated against
    changed rows only, at commit time.  :meth:`poke` remains as a manual
    full re-evaluation (and the only path when no commits flow).
    """

    def __init__(self, db: Database, seen_limit: int = 1_000_000) -> None:
        self.db = db
        self.inbox: list[Notification] = []
        #: Safety valve: a query whose refcounted seen-set outgrows this is
        #: reset wholesale (re-absorbed silently on its next evaluation).
        self.seen_limit = seen_limit
        self._plans: dict[str, _QueryPlan] = {}
        #: Per query: result-row key -> live multiplicity.
        self._seen: dict[str, dict[bytes, int]] = {}
        self._lock = threading.RLock()
        self._attached = False

    # ------------------------------------------------------------- registry

    def register(self, query: ContinuousQuery,
                 fire_on_existing: bool = False) -> int:
        """Add a standing query.

        Args:
            query: the continuous query.
            fire_on_existing: when False (default), rows already matching
                at registration time are absorbed silently; when True they
                are delivered immediately.

        Returns:
            Number of notifications delivered at registration.

        Raises:
            ValueError: duplicate query_id.
        """
        with self._lock:
            if query.query_id in self._plans:
                raise ValueError(f"query {query.query_id!r} already registered")
            self._plans[query.query_id] = _plan(query)
            self._seen[query.query_id] = {}
            if not self._attached:
                self.db.add_delta_listener(self._on_delta)
                self._attached = True
            return self._evaluate(query.query_id, notify=fire_on_existing)

    def unregister(self, query_id: str) -> None:
        with self._lock:
            self._plans.pop(query_id, None)
            self._seen.pop(query_id, None)

    def poke(self) -> int:
        """Fully re-evaluate every query; returns notifications delivered.

        With the delta listener attached this is normally a no-op (matches
        were already delivered at commit time); it remains the recovery
        path after an evaluation error evicted a query's state.
        """
        with self._lock:
            return sum(self._evaluate(query_id, notify=True)
                       for query_id in list(self._plans))

    def pending(self, query_id: str | None = None) -> list[Notification]:
        """Accumulated inbox notifications (optionally for one query)."""
        with self._lock:
            if query_id is None:
                return list(self.inbox)
            return [n for n in self.inbox if n.query_id == query_id]

    # ------------------------------------------------------------ delivery

    def _deliver(self, query: ContinuousQuery, row: dict[str, Any]) -> None:
        metrics.get_registry().inc("dge.rows_pushed")
        if query.callback is not None:
            query.callback(query.query_id, row)
        else:
            self.inbox.append(Notification(query.query_id, row))

    # ------------------------------------------------------- delta evaluation

    def _on_delta(self, delta: CommitDelta) -> None:
        """Commit-delta listener: must not raise (engine contract)."""
        with self._lock:
            for plan in list(self._plans.values()):
                try:
                    self._apply_delta(plan, delta)
                except Exception:
                    # Poison delta for this query: evict its state; the
                    # next evaluation (or poke) re-absorbs from a full run.
                    metrics.get_registry().inc("cq.eval_errors")
                    self._seen[plan.query.query_id] = {}

    def _apply_delta(self, plan: _QueryPlan, delta: CommitDelta) -> None:
        query_id = plan.query.query_id
        if delta.ddl:
            # Schema change on a read table: wholesale resync, silently —
            # migrated rows are not "new" matches.
            if plan.tables is None or (plan.tables & delta.ddl):
                self._seen[query_id] = {}
                self._evaluate(query_id, notify=False)
            return
        if plan.tables is not None and not (plan.tables & delta.tables.keys()):
            return  # commit touched none of this query's tables
        if plan.stmt is None:
            self._evaluate(query_id, notify=True)
            return
        table_delta = delta.tables.get(plan.stmt.table)
        if table_delta is not None:
            self._apply_table_delta(plan, table_delta)

    def _apply_table_delta(self, plan: _QueryPlan, td: TableDelta) -> None:
        """O(changed rows) evaluation for one delta-eligible query.

        Net row-presence change is computed over the whole commit first,
        so an insert+delete (or a no-op update) inside one transaction
        never produces a transient notification — deliveries match the
        per-commit "new matches vs previous result set" oracle.
        """
        stmt = plan.stmt
        assert stmt is not None
        query = plan.query
        registry = metrics.get_registry()
        net: dict[bytes, int] = {}
        reps: dict[bytes, dict[str, Any]] = {}

        def match(raw: dict[str, Any]) -> tuple[bytes, dict[str, Any]] | None:
            registry.inc("cq.delta_rows_checked")
            if not eval_predicate(stmt.where, raw):
                return None
            projected = _project(stmt, raw)
            if query.condition is not None and not query.condition(projected):
                return None
            return _row_key(projected), projected

        for raw in td.inserted:
            hit = match(raw)
            if hit is not None:
                net[hit[0]] = net.get(hit[0], 0) + 1
                reps.setdefault(hit[0], hit[1])
        for before, after in td.updated:
            hit = match(before)
            if hit is not None:
                net[hit[0]] = net.get(hit[0], 0) - 1
            hit = match(after)
            if hit is not None:
                net[hit[0]] = net.get(hit[0], 0) + 1
                reps.setdefault(hit[0], hit[1])
        for raw in td.deleted:
            hit = match(raw)
            if hit is not None:
                net[hit[0]] = net.get(hit[0], 0) - 1

        seen = self._seen[query.query_id]
        for key, change in net.items():
            if not change:
                continue
            old = seen.get(key, 0)
            new = max(0, old + change)
            if new:
                seen[key] = new
            else:
                seen.pop(key, None)
            if old == 0 and new > 0:
                self._deliver(query, reps[key])
        if len(seen) > self.seen_limit:
            self._seen[query.query_id] = {}

    # ------------------------------------------------------- full evaluation

    def _evaluate(self, query_id: str, notify: bool) -> int:
        """Full re-run fallback: rebuild the refcounted seen-set from the
        current result, delivering rows absent from the previous one."""
        plan = self._plans[query_id]
        query = plan.query
        try:
            rows = execute_sql(self.db, query.sql)
        except Exception:
            # Read table dropped (or query no longer valid): nothing can
            # match, so release the query's memory.
            self._seen[query_id] = {}
            return 0
        if query.condition is not None:
            rows = [r for r in rows if query.condition(r)]
        old = self._seen[query_id]
        fresh: dict[bytes, int] = {}
        delivered = 0
        for row in rows:
            key = _row_key(row)
            first = key not in fresh
            fresh[key] = fresh.get(key, 0) + 1
            if notify and first and key not in old:
                self._deliver(query, row)
                delivered += 1
        if len(fresh) > self.seen_limit:
            fresh = {}
        self._seen[query_id] = fresh
        return delivered
