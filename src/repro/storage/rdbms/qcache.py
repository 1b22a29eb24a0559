"""Snapshot-coherent query-result cache for the SQL serving path.

Serving traffic (form submissions, the query translator, dashboards)
re-runs a small set of SELECT statements far more often than the facts
table changes.  :class:`QueryResultCache` memoizes SELECT results keyed
by the *normalized* statement text plus the MVCC snapshot version of
every table the statement reads (DESIGN.md §15).

Coherence does not depend on eviction timing: a lookup first pins a
commit-point snapshot, then accepts a cached entry only when the entry's
recorded versions are *equal* to that snapshot's versions.  Because a
miss executes against the very snapshot whose versions it stores, a
cached entry always describes exactly the committed state named by its
key — a commit racing an in-flight lookup can therefore never produce a
stale hit; at worst it turns a would-be hit into an extra miss.  Nothing
is evicted on commit: an entry a commit made stale misses until the same
statement replaces it or the LRU pushes it out, and ``capacity`` bounds
the entries either way.

Only SELECTs are cached; every other statement (DML, DDL, EXPLAIN)
passes straight through to the executor.  Rows are defensively copied in
both directions, so callers may mutate what they get back.  A repeated
SELECT text is neither lexed nor parsed again (DESIGN.md §11).

This is also the observability funnel: every ``system.query`` and
exploration-session statement flows through :meth:`execute`, so when a
:class:`~repro.telemetry.slowlog.SlowQueryLog` is attached, one
``perf_counter`` pair around the statement decides slow-query capture —
cache hits included (a slow *hit* is an operator signal too).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any

from repro.errors import CancellationToken
from repro.storage.rdbms import sql as sqlmod
from repro.storage.rdbms.engine import Database
from repro.telemetry import metrics


class QueryResultCache:
    """An LRU of SELECT results, keyed by snapshot version.

    Args:
        db: the database whose snapshots version the entries.
        capacity: maximum number of cached statements (LRU eviction).
        slowlog: optional slow-query log observing every statement's
            wall time; None keeps the pre-observability fast path.
    """

    def __init__(self, db: Database, capacity: int = 128,
                 slowlog: Any = None) -> None:
        self._db = db
        self._capacity = capacity
        self.slowlog = slowlog
        self._lock = threading.Lock()
        # normalized sql -> ({table: snapshot version}, rows)
        self._entries: OrderedDict[
            str, tuple[dict[str, int], list[dict[str, Any]]]] = OrderedDict()
        # raw SELECT text -> (parsed statement, normalized sql)
        self._statements: OrderedDict[str, tuple[Any, str]] = OrderedDict()

    # ------------------------------------------------------------- serving

    def execute(self, sql: str,
                guard: CancellationToken | None = None,
                ) -> list[dict[str, Any]]:
        """Run one statement, serving SELECTs from cache when fresh.

        ``guard`` is an optional cooperative-cancellation token checked
        throughout execution (query deadlines, shutdown).

        Raises:
            SqlError: on parse or execution errors.
            QueryError: as :func:`~repro.storage.rdbms.sql.execute_sql`.
        """
        with sqlmod.query_errors(sql):
            if self.slowlog is None:
                return self._execute(sql, guard)
            t0 = perf_counter()
            rows = self._execute(sql, guard)
        self.slowlog.observe(self._db, sql, perf_counter() - t0, len(rows))
        return rows

    def _execute(self, sql: str,
                 guard: CancellationToken | None = None,
                 ) -> list[dict[str, Any]]:
        # A SELECT's statement and key are memoized by its text (LRU,
        # ``capacity`` texts; executing never changes a statement); a
        # new text is lexed once, for both.
        with self._lock:
            parsed = self._statements.get(sql)
            if parsed is not None:
                self._statements.move_to_end(sql)
        if parsed is None:
            tokens = sqlmod._lex(sql)
            stmt = sqlmod.parse_sql(tokens)
            if not isinstance(stmt, sqlmod.SelectStatement):
                return sqlmod.execute_statement(self._db, stmt, guard=guard)
            parsed = stmt, sqlmod.normalize_sql(tokens)
            with self._lock:
                self._statements[sql] = parsed
                if len(self._statements) > self._capacity:
                    self._statements.popitem(last=False)
        stmt, key = parsed
        registry = metrics.get_registry()
        tables = tuple(
            t for t in (stmt.table, stmt.join_table) if t is not None)

        def read(snap: Any) -> list[dict[str, Any]]:
            versions = {t: snap.version_of(t) for t in tables}
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry[0] == versions:
                    self._entries.move_to_end(key)
                    registry.inc("planner.cache.hits")
                    return [dict(r) for r in entry[1]]
            registry.inc("planner.cache.misses")
            # Executing against the pinned snapshot makes the stored
            # rows correspond exactly to the stored versions; a
            # commit racing this statement bumps versions and simply
            # makes the entry miss for post-commit readers.
            rows = sqlmod.execute_statement(self._db, stmt, txn=snap)
            with self._lock:
                self._entries[key] = (versions, [dict(r) for r in rows])
                self._entries.move_to_end(key)
                while len(self._entries) > self._capacity:
                    self._entries.popitem(last=False)
            return [dict(r) for r in rows]

        return sqlmod._run_snapshot_read(self._db, guard, read)

    # ------------------------------------------------------------ plumbing

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Current hit/miss counters plus entry count."""
        registry = metrics.get_registry()
        return {
            "entries": len(self),
            "hits": int(registry.get("planner.cache.hits")),
            "misses": int(registry.get("planner.cache.misses")),
        }
