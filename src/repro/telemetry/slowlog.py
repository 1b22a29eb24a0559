"""Persistent slow-query log.

``SlowQueryLog`` sits behind ``QueryResultCache.execute`` — the single
funnel both ``system.query`` and exploration sessions go through — and
captures every statement whose wall time meets ``threshold_seconds``.
The capture decision is a single float comparison, so the check adds
one ``perf_counter`` pair per query and nothing else; when no log is
attached the cache skips even that.

Each captured entry is one JSON object:

    {"ts": ..., "sql": <normalized>, "seconds": ..., "rows": ...,
     "threshold": ..., "stats_versions": {table: version},
     "plan": [...ANALYZE-annotated lines...],
     "metrics_delta": {counter: delta-over-the-analyze-rerun}}

For SELECTs the plan is obtained by re-running the statement under
``EXPLAIN ANALYZE`` at capture time — slow queries are rare and SELECTs
side-effect free, so the re-run buys exact per-operator actuals and a
per-query telemetry counter delta without taxing the fast path.  DML
statements are logged without a plan.

Entries append to one tolerant
:class:`~repro.storage.filestore.RecordFileStore` log, in a directory
(``<workspace>/slowlog/``, surviving reopen) or, given none, in memory.
"""

from __future__ import annotations

import threading
import time

from repro.storage.filestore import RecordFileStore, refuse_older_log
from repro.telemetry import metrics

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Threshold-gated persistent log of slow statements."""

    def __init__(self, path: str | None = None,
                 threshold_seconds: float = 1.0,
                 annotate: bool = True) -> None:
        """Create or reopen a log.

        Args:
            path: directory of the log; ``None`` keeps the log in memory.
            threshold_seconds: the capture threshold.
            annotate: re-run a captured SELECT under ``EXPLAIN ANALYZE``.

        Raises:
            ValueError: ``<path>.jsonl`` exists, the one-file log of an
                older layout.
        """
        if path is not None:
            refuse_older_log(path + ".jsonl")
        self.threshold_seconds = float(threshold_seconds)
        self.annotate = annotate
        self._lock = threading.Lock()
        self._log = RecordFileStore(path, tolerant=True)

    # ------------------------------------------------------------------
    # capture path

    def observe(self, db, sql: str, seconds: float, rows: int) -> bool:
        """Called for every statement; captures iff over threshold."""
        if seconds < self.threshold_seconds:
            return False
        self.capture(db, sql, seconds, rows)
        return True

    def capture(self, db, sql: str, seconds: float, rows: int) -> dict:
        """Build and append an entry for one known-slow statement."""
        from repro.storage.rdbms import sql as _sql

        registry = metrics.get_registry()
        normalized = stmt = None
        try:
            tokens = _sql._lex(sql)  # once: the entry's text and the parse
            normalized = _sql.normalize_sql(tokens)
            stmt = _sql.parse_sql(tokens)
        except Exception:
            pass
        entry = {
            "ts": time.time(),
            "sql": normalized or " ".join(sql.split()),
            "seconds": seconds,
            "rows": rows,
            "threshold": self.threshold_seconds,
        }
        if stmt is not None:
            entry["stats_versions"] = self._stats_versions(db, stmt)
            if self.annotate and isinstance(stmt, _sql.SelectStatement):
                plan, delta = self._annotated_plan(db, stmt, registry)
                if plan is not None:
                    entry["plan"] = plan
                    entry["metrics_delta"] = delta
        with self._lock:
            self._log.append(entry)
        registry.inc("slowlog.captured")
        return entry

    @staticmethod
    def _stats_versions(db, stmt) -> dict:
        tables = []
        table = getattr(stmt, "table", None)
        if table:
            tables.append(table)
        join = getattr(stmt, "join_table", None)
        if join:
            tables.append(join)
        versions = {}
        for name in tables:
            try:
                versions[name] = db.statistics().version(name)
            except Exception:
                versions[name] = None
        return versions

    @staticmethod
    def _annotated_plan(db, stmt, registry):
        """Re-run the SELECT under EXPLAIN ANALYZE; return (lines, delta)."""
        from repro.storage.rdbms import sql as _sql

        before = registry.snapshot()["counters"]
        try:
            rows = _sql.execute_statement(
                db, _sql.ExplainStatement(select=stmt, analyze=True))
        except Exception:
            return None, None
        after = registry.snapshot()["counters"]
        delta = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        return [r["plan"] for r in rows], delta

    # ------------------------------------------------------------------
    # storage

    def entries(self, limit: int | None = None) -> list[dict]:
        """All captured entries, oldest first (tail ``limit`` if given)."""
        with self._lock:
            out = [record.payload for record in self._log.scan()]
        if limit is not None:
            out = out[-limit:]
        return out

    def tail(self, limit: int = 5) -> list[dict]:
        """Most recent ``limit`` entries, slowest-last order preserved."""
        return self.entries(limit=limit)

    def clear(self) -> int:
        """Drop all entries; returns how many were removed."""
        removed = len(self.entries())
        with self._lock:
            self._log.clear()
        return removed

    def close(self) -> None:
        with self._lock:
            self._log.close()
