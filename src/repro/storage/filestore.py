"""Append-only record file store for intermediate structured data.

The paper: *"the system often executes only sequential reads and writes over
intermediate structured data, in which case such data can best be kept in
the file systems."*

:class:`RecordFileStore` is a log-structured store: records (JSON-encodable
dicts) are appended to segment files; reads are sequential scans, or seeks
by record id.  It supports segment rotation, tombstone deletes, and
compaction.  It is the device of choice for extraction intermediates
(experiment E13 quantifies the paper's device-choice argument by comparing
it to the RDBMS for scan-heavy workloads) and the log under the raw page
store (:class:`~repro.storage.snapshots.SnapshotStore`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.telemetry import metrics

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
    Record IDs are monotonically increasing across segments.  A line is a
    record once its newline is written: reads skip a torn last line (only a
    ``tolerant`` scan counts it, in ``corrupt_lines``) and a handle's first
    write cuts it (``recovery.truncated_records``).
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
        # Live id -> (segment, offset), once follow() or get() has run; the
        # highest id read or written, and (segment, offset, lines) past it.
        self._where: dict[int, tuple[int, int]] | None = None
        self._top = -1
        self._end = (0, 0, 0)
        self._recovered = False

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
        ids = list(range(self._top + 1, self._top + 1 + len(payloads)))
        self._write_lines([{"id": i, **p} for i, p in zip(ids, payloads)])
        self._top += len(payloads)
        return ids

    def delete(self, record_id: int) -> None:
        """Mark a record deleted (tombstone; reclaimed by :meth:`compact`)."""
        self._recover()
        self._write_lines([{"id": record_id, _TOMBSTONE_KEY: True}])

    def get(self, ids: list[int]) -> list[Record]:
        """The live records with these IDs, one seek each.  A handle that
        lacks the position of one (it has not followed the log, or another
        handle wrote the record) first reads every position in one pass.

        Raises:
            KeyError: an ID that is not a live record.
        """
        if self._where is None or not all(rid in self._where for rid in ids):
            self._where = {}
            for index, start, _, line in self._read():
                if line is not None:
                    self._place(index, start, line)
        records = []
        for rid in ids:
            segment, offset = self._where[rid]
            with open(self._segment_path(segment), "rb") as f:
                f.seek(offset)
                line = json.loads(f.readline())
            del line["id"]
            records.append(Record(record_id=rid, payload=line))
        return records

    def follow(self) -> Iterator[Record]:
        """Live records appended by other handles since this one last read
        (the whole log on the first call), oldest first.  From its first
        call on, the handle keeps the records' positions for :meth:`get`."""
        if self._where is None:
            self._where = {}
        for index, start, line in self._advance():
            self._place(index, start, line)
            rid = line.pop("id")
            if not line.get(_TOMBSTONE_KEY):
                yield Record(record_id=rid, payload=line)

    def scan(self) -> Iterator[Record]:
        """Sequentially yield all live records, oldest first."""
        records: dict[int, dict[str, Any]] = {}
        corrupt = 0
        for _, _, _, line in self._read():
            if line is None:  # in a strict store, only a torn last line
                corrupt += self._tolerant
                continue
            rid = line.pop("id")
            if line.get(_TOMBSTONE_KEY):
                records.pop(rid, None)
            else:
                records[rid] = line
        self.corrupt_lines = corrupt
        for rid in sorted(records):
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
        for index in self._segments():
            os.remove(self._segment_path(index))
        self._where, self._end = None, (0, 0, 0)
        self._write_lines([{"id": r.record_id, **r.payload} for r in live])
        return len(live)

    def clear(self) -> int:
        """Delete every segment and reset to an empty store.

        Unlike :meth:`compact` this drops live records too (the extraction
        cache's ``clear`` uses it).  Record IDs restart at 0.  Returns the
        number of segment files removed.
        """
        indexes = self._segments()
        for index in indexes:
            os.remove(self._segment_path(index))
        self._where, self._top, self._end = None, -1, (0, 0, 0)
        return len(indexes)

    def total_bytes(self) -> int:
        """Total on-disk size of all segments."""
        return sum(os.path.getsize(self._segment_path(index))
                   for index in self._segments())

    def segment_count(self) -> int:
        return len(self._segments())

    # ------------------------------------------------------------ internals

    def _segments(self) -> list[int]:
        return sorted(
            int(name[4:-6]) for name in os.listdir(self._root)
            if name.startswith("seg-") and name.endswith(".jsonl")
        )

    def _segment_path(self, index: int) -> str:
        return os.path.join(self._root, f"seg-{index:04d}.jsonl")

    def _read(self, segment: int = 0, offset: int = 0,
              ) -> Iterator[tuple[int, int, int | None, Any]]:
        """(segment, offset, next offset, parsed line) per non-blank line
        from ``offset`` in ``segment`` on; the line is None where a tolerant
        store cannot use it, and a torn last line ends it as (…, None, None)."""
        indexes = self._segments()
        for index in (i for i in indexes if i >= segment):
            with open(self._segment_path(index), "rb") as f:
                start = offset if index == segment else 0
                f.seek(start)
                for raw in f:
                    if not raw.endswith(b"\n") and index == indexes[-1]:
                        yield index, start, None, None
                        return
                    if raw.strip():
                        yield index, start, start + len(raw), self._parse(raw)
                    start += len(raw)

    def _parse(self, raw: bytes) -> dict[str, Any] | None:
        if not self._tolerant:
            return json.loads(raw)
        try:
            line = json.loads(raw.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            return None
        return line if isinstance(line, dict) and "id" in line else None

    def _advance(self) -> Iterator[tuple[int, int, dict[str, Any]]]:
        """(segment, offset, line) per usable line past this handle's end,
        moving the end and the highest id over each."""
        for index, start, stop, line in self._read(*self._end[:2]):
            if stop is None:
                return
            count = self._end[2] + 1 if index == self._end[0] else 1
            self._end = (index, stop, count)
            if line is not None:
                self._top = max(self._top, line["id"])
                yield index, start, line

    def _place(self, segment: int, offset: int, line: dict[str, Any]) -> None:
        if line.get(_TOMBSTONE_KEY):
            self._where.pop(line["id"], None)
        else:
            self._where[line["id"]] = (segment, offset)

    def _write_lines(self, objs: list[dict[str, Any]]) -> None:
        # json.dumps escapes non-ASCII, so these are the lines' bytes
        lines = [(json.dumps(obj) + "\n").encode("ascii") for obj in objs]
        done = 0
        while done < len(lines):
            segment, offset, count = self._end
            if count >= self._segment_max:
                segment, offset, count = segment + 1, 0, 0
            chunk = lines[done:done + self._segment_max - count]
            with open(self._segment_path(segment), "ab") as f:
                f.writelines(chunk)
            for obj, line in zip(objs[done:], chunk):
                if self._where is not None:
                    self._place(segment, offset, obj)
                offset += len(line)
            done += len(chunk)
            self._end = (segment, offset, count + len(chunk))

    def _recover(self) -> None:
        """Before this handle's first write: read the rest of the log and
        cut a torn last line, so the next append starts a line of its own."""
        if self._recovered:
            return
        for _ in self._advance():
            pass
        indexes = self._segments()
        if indexes:
            if self._end[0] != indexes[-1]:  # no whole line in the last one
                self._end = (indexes[-1], 0, 0)
            path = self._segment_path(indexes[-1])
            if os.path.getsize(path) > self._end[1]:
                os.truncate(path, self._end[1])
                metrics.get_registry().inc("recovery.truncated_records")
        self._recovered = True
