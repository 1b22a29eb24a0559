"""Append-only record file store for intermediate structured data.

The paper: *"the system often executes only sequential reads and writes over
intermediate structured data, in which case such data can best be kept in
the file systems."*

:class:`RecordFileStore` is a log-structured store: records (JSON-encodable
dicts) are appended to segment files; reads are full sequential scans.  It
supports segment rotation, tombstone deletes, and compaction.  It is the
device of choice for extraction intermediates (experiment E13 quantifies the
paper's device-choice argument by comparing it to the RDBMS for scan-heavy
workloads).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

_TOMBSTONE_KEY = "__deleted__"


@dataclass(frozen=True)
class Record:
    """One stored record: an auto-assigned ID plus a JSON-able payload."""

    record_id: int
    payload: dict[str, Any]


class RecordFileStore:
    """Log-structured append-only record store.

    Layout: ``<root>/seg-<NNNN>.jsonl``; each line is
    ``{"id": int, ...payload}`` or a tombstone ``{"id": int, "__deleted__": true}``.
    Record IDs are monotonically increasing across segments.
    """

    def __init__(self, root: str, segment_max_records: int = 10_000,
                 tolerant: bool = False) -> None:
        """Create or reopen a store at ``root``.

        Args:
            root: segment directory.
            segment_max_records: records per segment before rotation.
            tolerant: skip unparseable or id-less segment lines during
                scans instead of raising (invalid UTF-8 bytes are
                decoded with replacement characters first, so flipped
                bytes surface as JSON errors rather than aborting the
                read), counting them in :attr:`corrupt_lines` — the
                count from the most recent complete scan.  Crash-safe
                readers — the extraction cache — opt in; the strict
                default keeps silent data loss impossible elsewhere.
        """
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self._root = root
        self._segment_max = segment_max_records
        self._tolerant = tolerant
        self.corrupt_lines = 0
        os.makedirs(root, exist_ok=True)
        self._next_id: int | None = None  # recovered by the first write

    # ------------------------------------------------------------------ API

    def append(self, payload: dict[str, Any]) -> int:
        """Append one record; returns its assigned ID.

        Raises:
            ValueError: if the payload uses the reserved tombstone key.
        """
        return self.append_many([payload])[0]

    def append_many(self, payloads: list[dict[str, Any]]) -> list[int]:
        """Append a batch (one ``open()`` per segment touched); returns
        assigned IDs in order.

        Raises:
            ValueError: a payload uses the reserved tombstone key
                (nothing of the batch is written).
        """
        if any(_TOMBSTONE_KEY in p for p in payloads):
            raise ValueError(f"{_TOMBSTONE_KEY!r} is reserved")
        self._recover()
        ids = list(range(self._next_id, self._next_id + len(payloads)))
        self._write_lines([{"id": i, **p} for i, p in zip(ids, payloads)])
        self._next_id += len(payloads)
        return ids

    def delete(self, record_id: int) -> None:
        """Mark a record deleted (tombstone; reclaimed by :meth:`compact`)."""
        self._recover()
        self._write_lines([{"id": record_id, _TOMBSTONE_KEY: True}])

    def scan(self) -> Iterator[Record]:
        """Sequentially yield all live records, oldest first."""
        deleted: set[int] = set()
        records: dict[int, dict[str, Any]] = {}
        for line in self._scan_lines():
            rid = line.pop("id")
            if line.get(_TOMBSTONE_KEY):
                deleted.add(rid)
                records.pop(rid, None)
            else:
                records[rid] = line
        for rid in sorted(records):
            if rid not in deleted:
                yield Record(record_id=rid, payload=records[rid])

    def scan_where(self, predicate: Callable[[dict[str, Any]], bool]) -> Iterator[Record]:
        """Sequential scan with a payload filter."""
        for record in self.scan():
            if predicate(record.payload):
                yield record

    def count(self) -> int:
        """Number of live records (requires a scan)."""
        return sum(1 for _ in self.scan())

    def compact(self) -> int:
        """Rewrite all segments dropping tombstones; returns live count."""
        self._recover()
        live = list(self.scan())
        for name in self._segment_names():
            os.remove(os.path.join(self._root, name))
        self._active_segment = 0
        self._active_count = 0
        self._write_lines([{"id": r.record_id, **r.payload} for r in live])
        return len(live)

    def clear(self) -> int:
        """Delete every segment and reset to an empty store.

        Unlike :meth:`compact` this drops live records too (the extraction
        cache's ``clear`` uses it).  Record IDs restart at 0.  Returns the
        number of segment files removed.
        """
        names = self._segment_names()
        for name in names:
            os.remove(os.path.join(self._root, name))
        self._next_id = 0
        self._active_segment = 0
        self._active_count = 0
        return len(names)

    def total_bytes(self) -> int:
        """Total on-disk size of all segments."""
        return sum(
            os.path.getsize(os.path.join(self._root, name))
            for name in self._segment_names()
        )

    def segment_count(self) -> int:
        return len(self._segment_names())

    # ------------------------------------------------------------ internals

    def _segment_names(self) -> list[str]:
        return sorted(
            name for name in os.listdir(self._root)
            if name.startswith("seg-") and name.endswith(".jsonl")
        )

    def _segment_path(self, index: int) -> str:
        return os.path.join(self._root, f"seg-{index:04d}.jsonl")

    def _scan_lines(self) -> Iterator[dict[str, Any]]:
        errors = "replace" if self._tolerant else "strict"
        corrupt = 0
        for name in self._segment_names():
            with open(os.path.join(self._root, name), "r", encoding="utf-8",
                      errors=errors) as f:
                for raw in f:
                    raw = raw.strip()
                    if not raw:
                        continue
                    if not self._tolerant:
                        yield json.loads(raw)
                        continue
                    try:
                        line = json.loads(raw)
                    except json.JSONDecodeError:
                        corrupt += 1
                        continue
                    if not isinstance(line, dict) or "id" not in line:
                        corrupt += 1
                        continue
                    yield line
        self.corrupt_lines = corrupt

    def _write_lines(self, objs: list[dict[str, Any]]) -> None:
        lines = [json.dumps(obj) + "\n" for obj in objs]
        while lines:
            if self._active_count >= self._segment_max:
                self._active_segment += 1
                self._active_count = 0
            chunk = lines[:self._segment_max - self._active_count]
            path = self._segment_path(self._active_segment)
            with open(path, "a", encoding="utf-8") as f:
                f.writelines(chunk)
            self._active_count += len(chunk)
            del lines[:len(chunk)]

    def _recover(self) -> None:
        """Rebuild next-ID and active-segment state from the segments
        (once, before the first write: opening a store reads nothing)."""
        if self._next_id is not None:
            return
        self._next_id = self._active_segment = self._active_count = 0
        names = self._segment_names()
        if not names:
            return
        self._next_id = 1 + max(
            (line["id"] for line in self._scan_lines()), default=-1)
        self._active_segment = int(names[-1][4:-6])
        errors = "replace" if self._tolerant else "strict"
        with open(os.path.join(self._root, names[-1]), "r", encoding="utf-8",
                  errors=errors) as f:
            self._active_count = sum(1 for raw in f if raw.strip())
