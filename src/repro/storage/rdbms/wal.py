"""Write-ahead logging: every durable byte of the engine.

The log is a :class:`~repro.storage.filestore.RecordFileStore` under
``<directory>/wal/``: a record's id is its log sequence number (LSN), its
payload ``{"txn": id, "type": kind, ...}``.  Written:

* ``commit`` — one committed transaction, whole: its id and ``writes``,
  everything it wrote as runs of ``[table, ops]`` in write order, each op
  ``["insert", rid, values]``, ``["update", rid, changed columns]`` or
  ``["delete", rid]``.  The only record a transaction appends (nothing at
  begin, at a write or at abort; nothing at all if it wrote no row),
  flushed — fsynced under ``sync`` — before the transaction becomes
  visible or releases a lock: one line, one durability point,
* ``create_table`` / ``drop_table`` / ``alter_schema`` / ``create_index``
  — DDL (txn 0); ``alter_schema`` carries the migrated table's image,
* ``compact`` — a columnar freeze of a table's committed tail rows
  (txn 0, DDL-style: replay re-runs the deterministic freeze at the same
  log position, reproducing the segment layout),
* ``checkpoint`` — the committed image of every table (schema, tail
  rows by rid, each segment's encoded columns with its dead positions),
  the index list and the transaction counter.

Older versions also wrote ``reshard`` records and shard keys on tables
and segments; recovery refuses a log that declares one
(:class:`~repro.errors.ShardedLogError`).

A checkpoint (:meth:`WriteAheadLog.checkpoint`) is the first record of a
new segment; once it is written the segments before it are deleted.
:meth:`Database.close <repro.storage.rdbms.engine.Database.close>`
writes one when the log holds a record after its last.  Recovery
(:meth:`repro.storage.rdbms.engine.Database._recover`) starts at the
last whole checkpoint record — segments a crash left before it are
deleted unread — and redoes the records in LSN order over an empty
database (it never trusts the crashed in-memory image); the
``checkpoint`` record replaces every table and index with its image.  A
record torn at any byte is the log's torn suffix, which the store drops
— so a transaction, or a checkpoint, is recovered whole or not at all by
construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.storage.filestore import RecordFileStore, refuse_older_log
from repro.telemetry import metrics

LOG_DIR = "wal"
#: Records per WAL segment.
SEGMENT_RECORDS = 10_000


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    txn_id: int
    rec_type: str
    payload: dict[str, Any] = field(default_factory=dict)


class WriteAheadLog:
    """Segmented write-ahead log; a checkpoint is one of its records."""

    def __init__(self, directory: str, sync: bool = False) -> None:
        """Create or reopen a WAL in ``directory``.

        Args:
            directory: where ``wal/`` lives.
            sync: fsync after every append, i.e. at each commit and DDL
                statement (slow but durable); benchmarks toggle this to
                show the durability/throughput trade-off.

        Raises:
            ValueError: ``directory`` holds a ``wal.jsonl`` or a
                ``checkpoint.json``, the one-file log or checkpoint of an
                older layout.
        """
        for older in ("wal.jsonl", "checkpoint.json"):
            refuse_older_log(os.path.join(directory, older))
        self._log = RecordFileStore(os.path.join(directory, LOG_DIR),
                                    segment_max_records=SEGMENT_RECORDS,
                                    sync=sync)
        #: Whether the log holds a record after its last checkpoint
        #: (what :meth:`Database.close` checkpoints).
        self.needs_checkpoint = False

    # ------------------------------------------------------------------ API

    def append(self, txn_id: int, rec_type: str, **payload: Any) -> LogRecord:
        """Append one record and return it (LSN assigned here)."""
        log = self._log
        before = log.appended_bytes
        [lsn] = log.append_many([{"txn": txn_id, "type": rec_type, **payload}])
        registry = metrics.get_registry()
        registry.inc("rdbms.wal.records")
        registry.inc(f"rdbms.wal.records.{rec_type}")
        registry.inc("rdbms.wal.bytes", log.appended_bytes - before)
        self.needs_checkpoint = rec_type != "checkpoint"
        return LogRecord(lsn, txn_id, rec_type, payload)

    def records(self) -> Iterator[LogRecord]:
        """The records on disk from the last whole checkpoint record on
        (the first, without one), in LSN order, each parsed once: the
        segments before that record are deleted unread.  Once read, the
        torn suffix is cut from the file (and counted in
        ``recovery.truncated_records``).

        Raises:
            ValueError: a damaged record with records after it.
        """
        self._log.drop_before(txn=0, type="checkpoint")
        for record in self._log.replay():
            payload = record.payload
            rec = LogRecord(record.record_id, payload.pop("txn"),
                            payload.pop("type"), payload)
            self.needs_checkpoint = rec.rec_type != "checkpoint"
            yield rec
        self._log.catch_up()

    def checkpoint(self, **image: Any) -> None:
        """Append ``image`` as a ``checkpoint`` record, the first of a new
        segment, then delete the segments before it: the record is
        durable once its newline is, and until then the log reopens to
        the state before it."""
        self._log.rotate()
        self.append(0, "checkpoint", **image)
        self._log.drop_sealed_segments()

    def close(self) -> None:
        self._log.close()

    def size_bytes(self) -> int:
        """Current on-disk log size."""
        return self._log.total_bytes()
