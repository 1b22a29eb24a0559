"""Snapshot-coherent query-result cache for the SQL serving path.

Serving traffic (form submissions, the query translator, dashboards)
re-runs a small set of SELECT statements far more often than the facts
table changes.  :class:`QueryResultCache` memoizes SELECT results keyed
by the statement's canonical shape and literals plus the MVCC snapshot
version of every table the statement reads (DESIGN.md §15).

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
both directions, so callers may mutate what they get back.  A SELECT
text of a shape seen before runs only the lexer's first stage, no
tokenizing, parsing or planning: its literals bind into the shape's
prepared statement (DESIGN.md §11).

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
from repro.storage.rdbms import planner as _planner
from repro.storage.rdbms import sql as sqlmod
from repro.storage.rdbms.engine import Database
from repro.telemetry import metrics


class _Shape:
    """One SELECT shape: its statement as first parsed (literals are
    bound into it), its canonical shape (the result cache's key, with the
    literals), the tables it reads and its prepared plan."""

    __slots__ = ("stmt", "key", "tables", "prepared")

    def __init__(self, stmt: sqlmod.SelectStatement, key: str) -> None:
        self.stmt = stmt
        self.key = key
        self.tables = tuple(
            t for t in (stmt.table, stmt.join_table) if t is not None)
        #: replaced, never changed: a bind reads it once
        self.prepared: _planner.PreparedSelect | None = None


class QueryResultCache:
    """An LRU of SELECT results, keyed by snapshot version, over a table
    of prepared SELECT shapes.

    Args:
        db: the database whose snapshots version the entries.
        capacity: maximum number of cached results, and of prepared
            shapes (LRU eviction).
        slowlog: optional slow-query log observing every statement's
            wall time; None keeps the pre-observability fast path.
    """

    def __init__(self, db: Database, capacity: int = 128,
                 slowlog: Any = None) -> None:
        self._db = db
        self._capacity = capacity
        self.slowlog = slowlog
        self._lock = threading.Lock()
        # (canonical shape, literals) -> ({table: snapshot version}, rows)
        self._entries: OrderedDict[
            tuple[str, tuple[Any, ...]],
            tuple[dict[str, int], list[dict[str, Any]]]] = OrderedDict()
        # a SELECT text's shape (split_literals) -> its prepared shape
        self._shapes: OrderedDict[str, _Shape] = OrderedDict()

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
        # The lexer's first stage splits the text into its shape and
        # literals.  A text of a known shape goes no further: its literals
        # bind into the shape's statement.  A new text is tokenized and
        # parsed from that split; a SELECT's shape is kept (LRU,
        # ``capacity`` shapes).
        registry = metrics.get_registry()
        split = sqlmod.split_literals(sql)
        with self._lock:
            shape = self._shapes.get(split[0])
            if shape is not None:
                self._shapes.move_to_end(split[0])
        if shape is not None:
            registry.inc("planner.prepared.hits")
            stmt = None  # bound on a result-cache miss only
        else:
            tokens = sqlmod._lex(sql, split)
            stmt = sqlmod.parse_sql(tokens)
            if not isinstance(stmt, sqlmod.SelectStatement):
                return sqlmod.execute_statement(self._db, stmt, guard=guard)
            registry.inc("planner.prepared.misses")
            shape = _Shape(stmt, sqlmod._render_tokens(tokens, True))
            with self._lock:
                self._shapes[split[0]] = shape
                if len(self._shapes) > self._capacity:
                    self._shapes.popitem(last=False)
        literals = split[1]
        key = shape.key, literals

        def read(snap: Any) -> list[dict[str, Any]]:
            versions = {t: snap.version_of(t) for t in shape.tables}
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry[0] == versions:
                    self._entries.move_to_end(key)
                    registry.inc("planner.cache.hits")
                    return [dict(r) for r in entry[1]]
            registry.inc("planner.cache.misses")
            # A table it names that is not there (now) has version 0 and
            # no entry: every such read misses and lands here.
            sqlmod.require_tables(self._db, shape.tables, snap)
            nonlocal stmt
            if stmt is None:
                stmt = sqlmod.bind_literals(shape.stmt, literals)
            # DDL and create_index move the catalog version: the
            # shape is prepared again.  A commit only re-binds.
            prepared = shape.prepared
            if prepared is None \
                    or prepared.catalog != self._db.catalog_version:
                prepared = shape.prepared = \
                    _planner.Planner(self._db).prepare(stmt)
            # Executing against the pinned snapshot makes the stored
            # rows correspond exactly to the stored versions; a
            # commit racing this statement bumps versions and simply
            # makes the entry miss for post-commit readers.
            rows = sqlmod.execute_statement(self._db, stmt, txn=snap,
                                            prepared=prepared)
            with self._lock:
                self._entries[key] = (versions, [dict(r) for r in rows])
                self._entries.move_to_end(key)
                while len(self._entries) > self._capacity:
                    self._entries.popitem(last=False)
            return [dict(r) for r in rows]

        return sqlmod._run_snapshot_read(self._db, guard, read)

    # ------------------------------------------------------------ plumbing

    def clear(self) -> None:
        """Drop every cached result (the prepared shapes stay)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Current hit/miss counters plus entry count, and the prepared
        statement shapes' hits and misses."""
        registry = metrics.get_registry()
        return {
            "entries": len(self),
            "hits": int(registry.get("planner.cache.hits")),
            "misses": int(registry.get("planner.cache.misses")),
            "prepared_hits": int(registry.get("planner.prepared.hits")),
            "prepared_misses": int(registry.get("planner.prepared.misses")),
        }
