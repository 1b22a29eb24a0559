"""Write-ahead logging and checkpointing.

The log is a JSONL file of records, each with a log sequence number (LSN),
a transaction id, and a type.  Written:

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
* ``checkpoint`` — marker written after a consistent snapshot of all tables
  has been dumped to the checkpoint file.

Only read, in logs written before commit records carried the writes:
``begin`` / ``abort`` framing, a ``commit`` without ``writes``, and the row
records ``insert`` / ``insert_many`` / ``update`` / ``delete`` /
``write_many``, each redone at its own position if its transaction's
``commit`` is on the log and no ``abort`` is.  A log may start in that
format and continue in this one.

Recovery (:meth:`repro.storage.rdbms.engine.Database._recover`) loads the
latest checkpoint, then redoes the records in LSN order over that rebuilt
state (it never trusts the crashed in-memory image).  A record torn at any
byte is an unparseable suffix, which :meth:`WriteAheadLog.records` drops —
so a transaction is recovered whole or not at all by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.telemetry import metrics

LOG_FILE = "wal.jsonl"
CHECKPOINT_FILE = "checkpoint.json"


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    txn_id: int
    rec_type: str
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        # payloads are trees of validated scalars: no cycle to look for
        return json.dumps(
            {"lsn": self.lsn, "txn": self.txn_id, "type": self.rec_type,
             **self.payload}, check_circular=False)

    @staticmethod
    def from_json(line: str) -> "LogRecord":
        data = json.loads(line)
        lsn = data.pop("lsn")
        txn = data.pop("txn")
        rec_type = data.pop("type")
        return LogRecord(lsn=lsn, txn_id=txn, rec_type=rec_type, payload=data)


class WriteAheadLog:
    """Append-only JSONL write-ahead log with checkpoint support."""

    def __init__(self, directory: str, sync: bool = False) -> None:
        """Create or reopen a WAL in ``directory``.

        Args:
            directory: where ``wal.jsonl`` and ``checkpoint.json`` live.
            sync: fsync after every append, i.e. at each commit and DDL
                statement (slow but durable); benchmarks toggle this to
                show the durability/throughput trade-off.
        """
        self._dir = directory
        self._sync = sync
        os.makedirs(directory, exist_ok=True)
        self._path = os.path.join(directory, LOG_FILE)
        self._next_lsn = self._recover_next_lsn()
        self._file = open(self._path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ API

    def append(self, txn_id: int, rec_type: str, **payload: Any) -> LogRecord:
        """Append one record and return it (LSN assigned here)."""
        record = LogRecord(self._next_lsn, txn_id, rec_type, payload)
        self._next_lsn += 1
        line = record.to_json()
        self._file.write(line + "\n")
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())
        registry = metrics.get_registry()
        registry.inc("rdbms.wal.records")
        registry.inc(f"rdbms.wal.records.{rec_type}")
        registry.inc("rdbms.wal.bytes", len(line) + 1)
        return record

    def records(self) -> Iterator[LogRecord]:
        """Replay all records currently on disk, in LSN order.

        A corrupt *suffix* — one or more unparseable trailing records, as
        a crash mid-append or a partially synced page leaves behind — is
        tolerated: the bad tail is dropped (it cannot contain a committed
        transaction's commit record followed by valid data) and counted
        in the ``recovery.truncated_records`` telemetry counter.  (Reopen
        already truncates such a tail from the file — see
        :meth:`_recover_next_lsn` — so this is for logs read without
        reopening.)  Corruption *followed by* valid records indicates
        real damage and raises.

        Raises:
            ValueError: corrupted record in the middle of the log.
        """
        parsed, _, bad, midlog = self._scan()
        if midlog:
            raise ValueError(
                f"corrupted WAL record at position {len(parsed)}")
        if bad:
            metrics.get_registry().inc("recovery.truncated_records", bad)
        yield from parsed

    def write_checkpoint(self, state: dict[str, Any]) -> None:
        """Dump a consistent snapshot and truncate the log.

        The snapshot is written atomically (tmp + rename) *before* the log
        is truncated, so a crash between the two steps leaves a recoverable
        state (old log + new checkpoint replays to the same result because
        replay is idempotent over the snapshot).
        """
        tmp = os.path.join(self._dir, CHECKPOINT_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(state, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(self._dir, CHECKPOINT_FILE))
        self._file.close()
        self._file = open(self._path, "w", encoding="utf-8")
        self.append(0, "checkpoint")

    def read_checkpoint(self) -> dict[str, Any] | None:
        """Latest checkpoint snapshot, or None."""
        path = os.path.join(self._dir, CHECKPOINT_FILE)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def size_bytes(self) -> int:
        """Current on-disk log size."""
        return os.path.getsize(self._path) if os.path.exists(self._path) else 0

    # ------------------------------------------------------------ internals

    def _recover_next_lsn(self) -> int:
        """Next LSN — and truncate a torn/corrupt *suffix* on reopen.

        A crash mid-append leaves unparseable trailing lines.  They must
        be physically removed before this handle appends again: leaving
        them in place would strand the new (valid) records *behind*
        corruption, which the next recovery correctly treats as mid-log
        damage and refuses to replay.  A bad line with valid records
        after it really is mid-log damage, so the file is left untouched
        for :meth:`records` to report.
        """
        parsed, good_end, bad, midlog = self._scan()
        if bad and not midlog:
            with open(self._path, "r+b") as f:
                f.truncate(good_end)
            metrics.get_registry().inc("recovery.truncated_records", bad)
        return parsed[-1].lsn + 1 if parsed else 0

    def _scan(self) -> tuple[list[LogRecord], int, int, bool]:
        """Parse the file: the records before the first unparseable line,
        the byte offset just past the last of them, how many unparseable
        lines follow, and whether a valid record follows those (mid-log
        damage, where the scan stops, rather than a torn suffix)."""
        if not os.path.exists(self._path):
            return [], 0, 0, False
        with open(self._path, "rb") as f:
            data = f.read()
        parsed: list[LogRecord] = []
        good_end = offset = bad = 0
        for raw in data.splitlines(keepends=True):
            offset += len(raw)
            line = raw.decode("utf-8", "replace").strip()
            try:
                record = LogRecord.from_json(line) if line else None
            except (ValueError, KeyError, TypeError, AttributeError):
                bad += 1
                continue
            if bad:
                if record is not None:
                    return parsed, good_end, bad, True
                continue
            if record is not None:
                parsed.append(record)
            good_end = offset
        return parsed, good_end, bad, False
