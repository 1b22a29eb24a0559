"""Persistent dead-letter store for poison documents.

A document whose extraction still fails after the retry budget is
*quarantined* rather than allowed to fail the whole ``generate()`` run:
the executor emits a poison marker, the system appends a
:class:`DeadLetterEntry` here, and the run completes for every other
document.  The store is a tolerant
:class:`~repro.storage.filestore.RecordFileStore` log under the workspace
(``<workspace>/deadletter/``), fsynced at every write, so quarantined
documents survive process restarts and can be inspected / re-driven later
via ``repro deadletter list|retry|clear``.  The store holds one entry per
(document, extractor): quarantining a pair again replaces its entry.  A
removal is a tombstone; a torn last append is cut by the next write,
never glued to it.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Iterable

from repro.storage.filestore import RecordFileStore, refuse_older_log
from repro.telemetry import metrics


@dataclass
class DeadLetterEntry:
    """One quarantined document."""

    doc_id: str
    extractor: str
    error: str
    error_type: str = ""
    attempts: int = 1


class DeadLetterStore:
    """Quarantine log: one record log, persistent when given a directory.

    Args:
        root: directory of the log; ``None`` keeps the log in memory
            (workspace-less systems still get quarantine, just not across
            restarts).

    Raises:
        ValueError: ``root`` holds an ``entries.jsonl``, the one-file log
            of an older layout.
    """

    def __init__(self, root: str | None = None) -> None:
        if root is not None:
            refuse_older_log(os.path.join(root, "entries.jsonl"))
        self._log = RecordFileStore(root, tolerant=True, sync=True)
        # live entries behind the deadletter.size gauge, once counted
        self._size: int | None = None

    # --------------------------------------------------------------- writes

    def add(self, entry: DeadLetterEntry) -> None:
        self.add_many([entry])

    def add_many(self, entries: Iterable[DeadLetterEntry]) -> None:
        """Quarantine ``entries``: one entry per (document, extractor), so
        a pair already here is replaced — the latest error and attempts
        win.  The new entries are appended before the old ones are
        deleted: a crash between the two leaves both, never neither."""
        entries = list(entries)
        if not entries:
            return
        latest = {(e.doc_id, e.extractor): e for e in entries}
        stale = [r.record_id for r in self._log.scan()
                 if (r.payload.get("doc_id"), r.payload.get("extractor"))
                 in latest]
        self._log.append_many([asdict(entry) for entry in latest.values()])
        if stale:
            self._log.delete(*stale)
        metrics.get_registry().inc("deadletter.quarantined", len(entries))
        self._resize(len(latest) - len(stale))

    def clear(self) -> int:
        """Drop all entries; returns how many were dropped."""
        count = len(self)
        self._log.clear()
        self._resize(-count)
        return count

    def remove(self, doc_ids: Iterable[str]) -> int:
        """Drop entries for ``doc_ids`` (used after a successful retry)."""
        drop = set(doc_ids)
        ids = [r.record_id for r in self._log.scan()
               if r.payload.get("doc_id") in drop]
        self._log.delete(*ids)
        if ids:
            self._resize(-len(ids))
        return len(ids)

    def close(self) -> None:
        self._log.close()

    # ---------------------------------------------------------------- reads

    def entries(self) -> list[DeadLetterEntry]:
        out: list[DeadLetterEntry] = []
        for record in self._log.scan():
            try:
                out.append(DeadLetterEntry(**record.payload))
            except TypeError:  # a record of another shape
                continue
        return out

    def doc_ids(self) -> list[str]:
        return [entry.doc_id for entry in self.entries()]

    def __len__(self) -> int:
        return len(self.entries())

    def _resize(self, change: int) -> None:
        """Move the ``deadletter.size`` gauge by ``change`` entries (a
        handle reads the log for it once, the first time)."""
        self._size = len(self) if self._size is None else self._size + change
        metrics.get_registry().set_gauge("deadletter.size", float(self._size))
