"""Cardinality feedback: the optimizer healing itself from its own telemetry.

After a planned execution we know two numbers for an access path: the
planner's estimated row count and the rows the operator actually
produced.  When the two disagree by more than ``ratio_threshold`` (a
q-error, ``max(est, actual) / min(est, actual)`` with both floored at
one row), the misestimate is recorded against a ``(table, column,
predicate shape)`` key.  ``StatisticsManager`` consults the pending set
on its next ``stats()`` call and runs a *targeted* re-ANALYZE of just
the offending columns instead of waiting for drift-based refresh.

Entries carry the table's commit version at which they were last
resolved (the version of the snapshot the re-ANALYZE read): a
misestimate that survives its own re-ANALYZE — e.g. a correlated
predicate a per-column histogram cannot capture — does not re-trigger
until new commits change the table, so the feedback loop converges
instead of re-analyzing on every query.

This module is deliberately dependency-free (no planner/stats imports):
it is a pure data structure so either side can own one without cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["FeedbackEntry", "CardinalityFeedback"]

#: predicate shapes a feedback key may carry
SHAPES = ("eq", "neq", "range", "like", "in", "null")


@dataclass
class FeedbackEntry:
    """Last observed estimate/actual pair for one (table, column, shape)."""

    table: str
    column: str
    shape: str
    est_rows: float = 0.0
    actual_rows: int = 0
    ratio: float = 1.0
    occurrences: int = 0
    misestimates: int = 0
    version: int = 0
    pending: bool = False
    resolved_version: int | None = None

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "column": self.column,
            "shape": self.shape,
            "est_rows": self.est_rows,
            "actual_rows": self.actual_rows,
            "ratio": self.ratio,
            "occurrences": self.occurrences,
            "misestimates": self.misestimates,
            "pending": self.pending,
        }


def q_error(est_rows: float, actual_rows: float) -> float:
    """Symmetric misestimation ratio, floored at one row on both sides."""
    est = max(float(est_rows), 1.0)
    actual = max(float(actual_rows), 1.0)
    return est / actual if est >= actual else actual / est


@dataclass
class CardinalityFeedback:
    """Thread-safe store of cardinality misestimates awaiting re-ANALYZE."""

    ratio_threshold: float = 4.0
    _entries: dict[tuple[str, str, str], FeedbackEntry] = field(
        default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, table: str, column: str, shape: str,
               est_rows: float, actual_rows: int, version: int) -> bool:
        """Record one estimate/actual observation.

        Returns True when the observation crossed ``ratio_threshold``
        and newly marks the column pending for targeted re-ANALYZE.
        """
        ratio = q_error(est_rows, actual_rows)
        with self._lock:
            key = (table, column, shape)
            entry = self._entries.get(key)
            if entry is None:
                entry = FeedbackEntry(table=table, column=column, shape=shape)
                self._entries[key] = entry
            entry.occurrences += 1
            entry.est_rows = float(est_rows)
            entry.actual_rows = int(actual_rows)
            entry.ratio = ratio
            entry.version = version
            if ratio <= self.ratio_threshold:
                return False
            entry.misestimates += 1
            if entry.pending or entry.resolved_version == version:
                return False  # already queued / already healed at this version
            entry.pending = True
            return True

    def pending(self, table: str) -> tuple[str, ...]:
        """Columns of ``table`` awaiting targeted re-ANALYZE (sorted)."""
        with self._lock:
            return tuple(sorted({
                e.column for e in self._entries.values()
                if e.table == table and e.pending
            }))

    def resolve(self, table: str, columns, version: int) -> None:
        """Mark ``columns`` of ``table`` re-analyzed at ``version``."""
        wanted = set(columns)
        with self._lock:
            for entry in self._entries.values():
                if entry.table == table and entry.column in wanted:
                    entry.pending = False
                    entry.resolved_version = version

    def entries(self) -> list[FeedbackEntry]:
        with self._lock:
            return sorted(self._entries.values(),
                          key=lambda e: (e.table, e.column, e.shape))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
