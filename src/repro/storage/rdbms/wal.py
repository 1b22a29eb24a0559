"""Write-ahead logging and checkpointing.

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
  — DDL (txn 0); ``alter_schema`` carries the migrated rows,
* ``compact`` — a columnar freeze of a table's committed tail rows
  (txn 0, DDL-style: replay re-runs the deterministic freeze at the same
  log position, reproducing the segment layout),
* ``reshard`` — a shard-layout change (txn 0, DDL-style like ``compact``:
  routing is seed-stable, so replaying the spec at the same log position
  reproduces the identical shard membership),
* ``checkpoint`` — the first record of the segment a checkpoint starts.

A checkpoint (:meth:`WriteAheadLog.write_checkpoint`) writes a consistent
snapshot of all tables and the LSN it covers to ``checkpoint.json`` (tmp,
fsync, rename), starts a new segment with a ``checkpoint`` record, then
deletes the segments before it.  Recovery
(:meth:`repro.storage.rdbms.engine.Database._recover`) loads the snapshot,
then redoes the records past its LSN in LSN order over that rebuilt state
(it never trusts the crashed in-memory image) — so a crash anywhere in a
checkpoint reopens: covered segments left behind are skipped.  A record
torn at any byte is the log's torn suffix, which the store drops — so a
transaction is recovered whole or not at all by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.storage.filestore import RecordFileStore, refuse_older_log
from repro.telemetry import metrics

LOG_DIR = "wal"
CHECKPOINT_FILE = "checkpoint.json"
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
    """Segmented write-ahead log with checkpoint support."""

    def __init__(self, directory: str, sync: bool = False) -> None:
        """Create or reopen a WAL in ``directory``.

        Args:
            directory: where ``wal/`` and ``checkpoint.json`` live.
            sync: fsync after every append, i.e. at each commit and DDL
                statement (slow but durable); benchmarks toggle this to
                show the durability/throughput trade-off.

        Raises:
            ValueError: ``directory`` holds a ``wal.jsonl``, the one-file
                log of an older layout.
        """
        refuse_older_log(os.path.join(directory, "wal.jsonl"))
        self._dir = directory
        self._log = RecordFileStore(os.path.join(directory, LOG_DIR),
                                    segment_max_records=SEGMENT_RECORDS,
                                    sync=sync)

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
        return LogRecord(lsn, txn_id, rec_type, payload)

    def records(self) -> Iterator[LogRecord]:
        """All records on disk, in LSN order; once read, the torn suffix is
        cut from the file (and counted in ``recovery.truncated_records``).

        Raises:
            ValueError: a damaged record with records after it.
        """
        for record in self._log.scan():
            payload = record.payload
            yield LogRecord(record.record_id, payload.pop("txn"),
                            payload.pop("type"), payload)
        self._log.catch_up()

    def write_checkpoint(self, state: dict[str, Any]) -> None:
        """Dump a consistent snapshot covering every record so far, then
        start a new segment and delete the ones it covers.

        The snapshot is written atomically (tmp + fsync + rename) before
        anything else, so a crash at any step leaves either the old
        snapshot and the whole log or the new snapshot beside records it
        covers, which replay skips by LSN.
        """
        covered = self._log.rotate()
        tmp = os.path.join(self._dir, CHECKPOINT_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump({"lsn": covered, **state}, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(self._dir, CHECKPOINT_FILE))
        self.append(0, "checkpoint")
        self._log.drop_sealed_segments()

    def read_checkpoint(self) -> dict[str, Any] | None:
        """Latest checkpoint snapshot (its ``lsn`` the last record it
        covers), or None."""
        path = os.path.join(self._dir, CHECKPOINT_FILE)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)

    def close(self) -> None:
        self._log.close()

    def size_bytes(self) -> int:
        """Current on-disk log size."""
        return self._log.total_bytes()
