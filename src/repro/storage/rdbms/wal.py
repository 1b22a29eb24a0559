"""Write-ahead logging and checkpointing.

The log is a JSONL file of records, each with a log sequence number (LSN),
a transaction id, and a type:

* ``begin`` / ``commit`` / ``abort`` — transaction lifecycle,
* ``insert`` / ``delete`` / ``update`` — logical row operations carrying
  before/after images,
* ``insert_many`` — one record for a whole batch of inserted rows (the
  bulk-load fast path: rids + values for every row in the batch),
* ``write_many`` — one record for a batch of mixed writes to one table
  (a streaming delta's upserts and deletes), replayed in order:
  ``ops`` is a list of ``["insert", rid, values]``, ``["update", rid,
  changed columns]`` and ``["delete", rid]``; like every row record it
  takes effect only if its transaction's ``commit`` made it to the log,
  so a batch is recovered whole or not at all,
* ``create_table`` / ``alter_schema`` — DDL,
* ``compact`` — a columnar freeze of a table's committed tail rows
  (txn 0, DDL-style: replay re-runs the deterministic freeze at the same
  log position, reproducing the segment layout),
* ``reshard`` — a shard-layout change (txn 0, DDL-style like ``compact``:
  routing is seed-stable, so replaying the spec at the same log position
  reproduces the identical shard membership),
* ``checkpoint`` — marker written after a consistent snapshot of all tables
  has been dumped to the checkpoint file.

Recovery (see :meth:`repro.storage.rdbms.engine.Database.recover`) loads the
latest checkpoint, then replays logical operations of *committed*
transactions in LSN order; operations of transactions without a commit
record are discarded (redo-only recovery over a rebuilt state, which is
correct because recovery always reconstructs from the checkpoint rather
than trusting the crashed in-memory image).
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
        return json.dumps(
            {"lsn": self.lsn, "txn": self.txn_id, "type": self.rec_type, **self.payload}
        )

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
            sync: fsync after every append (slow but durable); benchmarks
                toggle this to show the durability/throughput trade-off.
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
        :meth:`_recover_next_lsn` — so this path is a second line of
        defense for logs read without reopening.)  Corruption *followed
        by* valid records indicates real damage and raises.

        Raises:
            ValueError: corrupted record in the middle of the log.
        """
        if not os.path.exists(self._path):
            return
        with open(self._path, "r", encoding="utf-8") as f:
            lines = [l.strip() for l in f]
        non_empty = [l for l in lines if l]
        parsed: list[LogRecord] = []
        bad_from: int | None = None  # start of the (candidate) corrupt suffix
        for index, line in enumerate(non_empty):
            try:
                record = LogRecord.from_json(line)
            except (json.JSONDecodeError, KeyError) as exc:
                if bad_from is None:
                    bad_from = index
                last_error = exc
            else:
                if bad_from is not None:
                    raise ValueError(
                        f"corrupted WAL record at position {bad_from}"
                    ) from last_error
                parsed.append(record)
        if bad_from is not None:
            truncated = len(non_empty) - bad_from
            metrics.get_registry().inc("recovery.truncated_records",
                                       truncated)
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
        last = -1
        if not os.path.exists(self._path):
            return 0
        with open(self._path, "rb") as f:
            data = f.read()
        good_end = 0  # byte offset just past the last parseable record
        offset = 0
        bad = 0
        midlog = False
        for raw in data.splitlines(keepends=True):
            offset += len(raw)
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                if not bad:
                    good_end = offset
                continue
            try:
                lsn = json.loads(line)["lsn"]
            except (json.JSONDecodeError, KeyError, TypeError):
                bad += 1
                continue
            if bad:
                midlog = True  # valid data after corruption: real damage
                break
            last = lsn
            good_end = offset
        if bad and not midlog and good_end < len(data):
            with open(self._path, "r+b") as f:
                f.truncate(good_end)
            metrics.get_registry().inc("recovery.truncated_records", bad)
        return last + 1
