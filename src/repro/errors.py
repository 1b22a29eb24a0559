"""Typed, repro-level exception hierarchy for the serving path.

The engine's low-level failures (``DeadlockError``, lock-wait timeouts)
historically leaked out of ``system.query`` as builtin exceptions with no
context.  Serving callers need to distinguish three outcomes:

* the query **failed** (bad SQL, execution error) — :class:`QueryError`;
* the query **ran out of time** (its deadline passed, a lock wait timed
  out, or the system is shutting down) — :class:`QueryTimeoutError`;
* the query was **never admitted** (the server is saturated or
  draining) — :class:`AdmissionRejected`.

Every query-scoped error carries the offending SQL text.  The CLI maps
the classes to distinct exit codes (timeout = 4, execution failure = 3).

:class:`CancellationToken` is the cooperative-cancellation handle threaded
from the serving layer down into the streaming operators: readers check it
every few hundred rows, writers at every operation boundary.
"""

from __future__ import annotations

import threading
import time
from typing import Optional


class ReproError(Exception):
    """Base class for all repro-level errors."""


class QueryError(ReproError):
    """A query-scoped failure; carries the SQL text that caused it."""

    def __init__(self, message: str, *, sql: str | None = None) -> None:
        super().__init__(message)
        self.sql = sql

    def __str__(self) -> str:
        base = super().__str__()
        if self.sql:
            return f"{base} (sql: {self.sql!r})"
        return base


class QueryTimeoutError(QueryError):
    """The query exceeded its deadline or was cancelled by shutdown."""


class QueryLockTimeoutError(QueryTimeoutError):
    """A writer's lock wait timed out (after retries, if any).

    Subclasses :class:`QueryTimeoutError`: a lock-wait timeout is a
    timeout to the caller (CLI exit code 4), just one diagnosed inside
    the lock manager rather than at the query deadline.
    """


class QueryDeadlockError(QueryError):
    """The statement was repeatedly chosen as a deadlock victim.

    Raised only after the transaction retry policy is exhausted, so it
    reports a persistent conflict (execution failure), not a transient
    one.
    """


class ReadOnlyTransactionError(ReproError):
    """A write was attempted through a read-only snapshot transaction."""


class ShardedLogError(ReproError, ValueError):
    """A workspace's log declares a hash-shard layout for a table.

    Versions before this one could partition a table's rows by a key
    (``SHARD BY`` / ``RESHARD``), freezing each shard into segments whose
    rid ranges interleave; this version assumes they never do, so it
    refuses such a log at open rather than mis-scan it.
    """

    def __init__(self, table: str) -> None:
        super().__init__(
            f"table {table!r}: the log declares a hash-shard layout, which "
            "this version no longer reads; unshard the table with an older "
            f"version (repro reshard {table} --none) and close it cleanly")
        self.table = table


class AdmissionRejected(ReproError):
    """The serving layer refused to start the query.

    Attributes:
        reason: ``"saturated"`` (queue full), ``"queue-timeout"`` (waited
            too long for a slot), or ``"draining"`` (shutdown underway).
    """

    def __init__(self, message: str, *, reason: str, sql: str | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.sql = sql


class CancellationToken:
    """Cooperative cancellation: a deadline and/or a shutdown event.

    Cheap to check (two attribute loads on the happy path), so streaming
    scan iterators consult it every few hundred rows and transactional
    operations at every call boundary.  ``deadline`` is an absolute
    :func:`time.monotonic` instant.
    """

    __slots__ = ("deadline", "event", "sql")

    def __init__(self, deadline: float | None = None,
                 event: Optional[threading.Event] = None,
                 sql: str = "") -> None:
        self.deadline = deadline
        self.event = event
        self.sql = sql

    @classmethod
    def after(cls, seconds: float | None,
              event: Optional[threading.Event] = None,
              sql: str = "") -> "CancellationToken":
        """A token expiring ``seconds`` from now (None = no deadline)."""
        deadline = time.monotonic() + seconds if seconds is not None else None
        return cls(deadline=deadline, event=event, sql=sql)

    def check(self) -> None:
        """Raise :class:`QueryTimeoutError` if cancelled or expired."""
        if self.event is not None and self.event.is_set():
            raise QueryTimeoutError("query cancelled by shutdown",
                                    sql=self.sql or None)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError("query exceeded its deadline",
                                    sql=self.sql or None)

    def remaining(self) -> float | None:
        """Seconds until the deadline (None when there is no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())
