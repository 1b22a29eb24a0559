"""Append-only record file store for intermediate structured data.

The paper: *"the system often executes only sequential reads and writes over
intermediate structured data, in which case such data can best be kept in
the file systems."*

:class:`RecordFileStore` is a log-structured store: records (JSON-encodable
dicts) are appended to segment files; reads are sequential scans, or seeks
by record id.  It supports segment rotation, tombstone deletes, and
compaction.  It is the device of choice for extraction intermediates
(experiment E13 quantifies the paper's device-choice argument by comparing
it to the RDBMS for scan-heavy workloads) and the one format of every
durable log a workspace keeps: the raw page store
(:class:`~repro.storage.snapshots.SnapshotStore`), the lineage records, the
WAL, the dead-letter store, the slow-query log and the extraction cache.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable, Iterable, Iterator

from repro.telemetry import metrics

_TOMBSTONE_KEY = "__deleted__"
#: ``json.dumps`` without the cycle check: payloads are trees of JSON values
_encode = json.JSONEncoder(check_circular=False).encode
#: About the most characters of a line held at once while it is written:
#: a part of a record estimated to be longer is walked, a longer string
#: escaped a slice of this size at a time.
_PIECE = 1 << 14


def _over(obj: Any, budget: int) -> int:
    """What is left of ``budget`` once ``obj``'s JSON text is paid from
    it (estimated: a string costs its length, a dict entry 24, a list
    item or anything else 8), or a negative number once it runs out."""
    kind = type(obj)
    if kind is dict:
        budget -= 24 * len(obj)
        obj = obj.values()
    elif kind is list:
        budget -= 8 * len(obj)
    elif kind is str:
        return budget - len(obj)
    else:
        return budget - 8
    for value in obj:
        kind = type(value)
        if kind is str:
            budget -= len(value)
        elif kind is dict or kind is list:
            budget = _over(value, budget)
            if budget < 0:
                break
    return budget


def _pieces(obj: Any) -> Iterator[str]:
    """``obj``'s JSON text, the same as :data:`_encode`'s, in pieces of
    about :data:`_PIECE` characters or less: a record is never held whole
    as text.  What is estimated to fit in a piece is encoded at once
    (consecutive items of a dict or list together), a string is escaped
    on its own, and any other dict or list is walked."""
    kind = type(obj)
    if kind is str:   # (escaping is per character: slices escape alike)
        yield '"'
        for at in range(0, len(obj), _PIECE):
            yield _escape(obj[at:at + _PIECE])[1:-1]
        yield '"'
        return
    if (kind is not dict and kind is not list) or _over(obj, _PIECE) >= 0:
        yield _encode(obj)
        return
    opening, closing = "{}" if kind is dict else "[]"
    yield opening
    items = obj.items() if kind is dict else obj
    batch: list = []
    room = _PIECE
    sep = ""
    for item in items:
        value = item[1] if kind is dict else item
        left = _over(value, room)
        if left < 0 and batch:   # the batch is full
            yield sep + _encode(dict(batch) if kind is dict else batch)[1:-1]
            batch, room, sep = [], _PIECE, ", "
            left = _over(value, room)
        if left >= 0:            # the value joins the batch
            batch.append(item)
            room = left
            continue
        if kind is dict:
            key = item[0]
            yield f"{sep}{_escape(key if type(key) is str else _encode(key))}: "
        else:
            yield sep
        yield from _pieces(value)
        sep = ", "
    if batch:
        yield sep + _encode(dict(batch) if kind is dict else batch)[1:-1]
    yield closing


def _lines(objs: list[dict[str, Any]], sizes: list[int]) -> Iterator[bytes]:
    """The lines of ``objs`` (each one's JSON text and a newline) as
    ASCII bytes (the encoder escapes non-ASCII), in chunks of about
    :data:`_PIECE` characters; appends each line's length to ``sizes``
    once it is all given."""
    held: list[str] = []
    held_size = 0
    for obj in objs:
        if _over(obj, _PIECE) >= 0:   # a line of one piece
            line = _encode(obj) + "\n"
            held.append(line)
            held_size += len(line)
            sizes.append(len(line))
        else:
            size = 0
            for piece in chain(_pieces(obj), "\n"):
                held.append(piece)
                held_size += len(piece)
                size += len(piece)
                if held_size >= _PIECE:
                    yield "".join(held).encode("ascii")
                    held, held_size = [], 0
            sizes.append(size)
        if held_size >= _PIECE:
            yield "".join(held).encode("ascii")
            held, held_size = [], 0
    yield "".join(held).encode("ascii")


def refuse_older_log(path: str) -> None:
    """Raise if ``path`` — a one-file log of an older workspace layout —
    exists: this version reads segment logs only, and does not migrate.

    Raises:
        ValueError: naming the file.
    """
    if os.path.exists(path):
        raise ValueError(f"{path} is a log of an older layout, which this "
                         "version neither reads nor migrates")


class UncutWriteError(OSError):
    """A write that raised could not be cut back out of the log: the
    handle that made it writes no more."""

    def __init__(self, root: str | None) -> None:
        super().__init__(f"{root or 'a memory store'}: a failed write could "
                         "not be taken back; this handle writes no more")


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
    record once its newline is written.  The lines of the last segment
    that are not records (torn, not JSON, no id) and no record follows are
    the *torn suffix*: reads skip it (only a ``tolerant`` scan counts it,
    in ``corrupt_lines``) and the next write cuts it, counting its lines in
    ``recovery.truncated_records``.  A line that is not a record but has
    one after it is damage: a strict store raises, a tolerant one skips it.
    A write that raises leaves none of its lines: the handle cuts them
    back out, or else refuses to write again (:class:`UncutWriteError`).

    A handle keeps the segment it appends to open.  Handles on one root
    may write in turn, not at the same instant: a write first takes in
    what other handles appended.  The device pair at the end of this
    module is the only code that knows where segments live.
    """

    def __init__(self, root: str | None, segment_max_records: int = 10_000,
                 tolerant: bool = False, sync: bool = False) -> None:
        """Create or reopen a store at ``root``.

        Args:
            root: segment directory; ``None`` keeps the segments in memory.
            segment_max_records: records per segment before rotation.
            tolerant: skip damaged segment lines during scans instead of
                raising (invalid UTF-8 bytes are decoded with replacement
                characters first, so flipped bytes surface as JSON errors
                rather than aborting the read), counting them in
                :attr:`corrupt_lines` — the count from the most recent
                complete scan or :meth:`follow`.  Crash-safe readers — the
                extraction cache, the dead-letter store, the slow-query
                log — opt in; the strict default keeps silent data loss
                impossible elsewhere.
            sync: fsync after every write (durable but slow).
        """
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self._root = root
        self._device = _Memory() if root is None else _Directory(root)
        self._segment_max = segment_max_records
        self._tolerant = tolerant
        self._sync = sync
        self.corrupt_lines = 0
        #: bytes this handle has appended
        self.appended_bytes = 0
        # Live id -> (segment, offset), once follow() or get() has run; the
        # highest id read or written, and (segment, offset, lines) past it;
        # the lines of the torn suffix past it and of the damage before it
        # (as the last read past the end counted them); the segment this
        # handle appends to (-1: none since it opened or closed).
        self._where: dict[int, tuple[int, int]] | None = None
        self._top = -1
        self._end = (0, 0, 0)
        self._torn = self._skipped = 0
        self._appending = -1
        # why a failed write could not be cut back out (None: none did)
        self._uncut: OSError | None = None

    # ------------------------------------------------------------------ API

    def append(self, payload: dict[str, Any]) -> int:
        """Append one record; returns its assigned ID.

        Raises:
            ValueError: if the payload uses the reserved tombstone key.
        """
        return self.append_many([payload])[0]

    def append_many(self, payloads: list[dict[str, Any]]) -> list[int]:
        """Append a batch (one write per segment touched); returns
        assigned IDs in order.

        Raises:
            ValueError: a payload uses the reserved tombstone key
                (nothing of the batch is written).
        """
        if any(_TOMBSTONE_KEY in p for p in payloads):
            raise ValueError(f"{_TOMBSTONE_KEY!r} is reserved")
        self.catch_up()
        ids = list(range(self._top + 1, self._top + 1 + len(payloads)))
        self._write_lines([{"id": i, **p} for i, p in zip(ids, payloads)])
        self._top += len(payloads)
        return ids

    def delete(self, *record_ids: int) -> None:
        """Mark records deleted (tombstones; reclaimed by :meth:`compact`)."""
        self.catch_up()
        self._write_lines([{"id": rid, _TOMBSTONE_KEY: True}
                           for rid in record_ids])

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
            line = json.loads(self._device.line(*self._where[rid]))
            del line["id"]
            records.append(Record(record_id=rid, payload=line))
        return records

    def follow(self) -> Iterator[Record]:
        """Live records appended by other handles since this one last read
        (the whole log on the first call), oldest first.  From its first
        call on, the handle keeps the records' positions for :meth:`get`.
        A tolerant store counts the damaged lines it read past and those
        of the torn suffix in :attr:`corrupt_lines`."""
        if self._where is None:
            self._where = {}
        for index, start, line in self._advance():
            self._place(index, start, line)
            rid = line.pop("id")
            if not line.get(_TOMBSTONE_KEY):
                yield Record(record_id=rid, payload=line)
        if self._tolerant:
            self.corrupt_lines = self._skipped + self._torn

    def replay(self) -> Iterator[Record]:
        """Every record from the first, oldest first, each line parsed
        once: the handle starts over (:meth:`rewind`) and reads through
        its own end, so once the last record is read the next write has
        only the torn suffix left to cut.  Keeps no positions and applies
        no tombstone: for a log nothing is deleted from, the WAL."""
        self.rewind()
        for _, _, line in self._advance():
            yield Record(record_id=line.pop("id"), payload=line)

    def scan(self) -> Iterator[Record]:
        """Sequentially yield all live records, oldest first."""
        records: dict[int, dict[str, Any]] = {}
        corrupt = 0
        for _, _, _, line in self._read():
            if line is None:  # in a strict store, only the torn suffix
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
        self.catch_up()
        live = list(self.scan())
        self._drop(self._device.segments())
        self._end = (0, 0, 0)
        self._write_lines([{"id": r.record_id, **r.payload} for r in live])
        return len(live)

    def clear(self) -> int:
        """Delete every segment and reset to an empty store.

        Unlike :meth:`compact` this drops live records too (the extraction
        cache's ``clear`` uses it).  Record IDs restart at 0.  Returns the
        number of segments removed.
        """
        indexes = self._device.segments()
        self._drop(indexes)
        self.rewind()
        return len(indexes)

    def rewind(self) -> None:
        """Forget what this handle has read (:meth:`follow` starts over)."""
        self.close()
        self._where, self._top, self._end = None, -1, (0, 0, 0)

    def rotate(self) -> None:
        """Start a new segment with the next append."""
        self.catch_up()
        if self._end[2]:
            self._end = (self._end[0] + 1, 0, 0)

    def drop_sealed_segments(self) -> None:
        """Delete every segment before the one this handle appends to —
        after :meth:`rotate` and an append, every record before that one.
        That segment is fsynced first: the deletion must not reach the
        disk before the record that supersedes it.  The newest go first,
        so a crash part-way leaves a prefix of the log before it."""
        self._device.sync()
        self._drop([i for i in reversed(self._device.segments())
                    if i < self._end[0]])

    def drop_before(self, **leading: Any) -> None:
        """Delete the segments before the newest one whose first record
        is whole and its payload begins with the ``leading`` items, in
        order, parsing none of them: a log whose records of that kind
        supersede everything before them (the WAL's checkpoint) is read
        from there.  A crash between such a record's append and
        :meth:`drop_sealed_segments` leaves what this deletes.  That
        segment is fsynced first, and the deletions go newest first, as
        there."""
        head = re.compile(rb'\{"id": \d+, '
                          + re.escape(_encode(leading)[1:-1].encode("ascii"))
                          + rb"[,}]").match
        indexes = self._device.segments()
        for index in reversed(indexes[1:]):
            first = self._device.line(index, 0) \
                if self._device.size(index) else b""
            if first.endswith(b"\n") and head(first):
                self._device.append(index, ())  # open, to be fsynced
                self._device.sync()
                self._drop([i for i in reversed(indexes) if i < index])
                return

    def total_bytes(self) -> int:
        """Total size of all segments."""
        return sum(map(self._device.size, self._device.segments()))

    def segment_count(self) -> int:
        return len(self._device.segments())

    def close(self) -> None:
        """Close the open segment (the next append reopens it)."""
        self._device.close()
        self._appending = -1

    def catch_up(self) -> None:
        """What every write does first: unless the open segment is where
        this handle last wrote, still the size it left it and not full,
        read the rest of the log (other handles' appends) and cut a torn
        suffix, so the next append starts a line of its own.

        Raises:
            UncutWriteError: a failed write of this handle is not cut.
        """
        if self._uncut is not None:
            raise UncutWriteError(self._root) from self._uncut
        segment, offset, count = self._end
        if self._appending == segment and count < self._segment_max \
                and self._device.size(segment) == offset:
            return
        for _ in self._advance():
            pass
        indexes = self._device.segments()
        if not indexes or self._end[0] > indexes[-1]:  # a rotation is due
            return
        if self._end[0] < indexes[-1]:  # no record in the last segment
            self._end = (indexes[-1], 0, 0)
        if self._device.size(indexes[-1]) > self._end[1]:
            self._device.truncate(indexes[-1], self._end[1])
            metrics.get_registry().inc("recovery.truncated_records",
                                       self._torn)

    # ------------------------------------------------------------ internals

    def _read(self, segment: int = 0, offset: int = 0,
              ) -> Iterator[tuple[int, int, int | None, Any]]:
        """(segment, offset, next offset, parsed line) per non-blank line
        from ``offset`` in ``segment`` on.  The line is None where it is not
        a record: damage a tolerant store skips, and the torn suffix, whose
        lines end the read with next offset None too.

        Raises:
            json.JSONDecodeError: damage in a strict store.
        """
        indexes = self._device.segments()
        for index in (i for i in indexes if i >= segment):
            last = index == indexes[-1]
            damage: list[tuple[int, int]] = []  # no record after them yet
            start = offset if index == segment else 0
            for raw in self._device.lines(index, start):
                stop = start + len(raw)
                whole = raw.endswith(b"\n") or not last
                line = self._parse(raw) if whole else None
                if line is not None:
                    yield from self._damaged(index, damage)
                    damage = []
                    yield index, start, stop, line
                elif raw.strip():
                    damage.append((start, stop))
                start = stop
            if last:
                for start, _ in damage:
                    yield index, start, None, None
            else:
                yield from self._damaged(index, damage)

    def _damaged(self, segment: int, damage: list[tuple[int, int]],
                 ) -> Iterator[tuple[int, int, int, None]]:
        """Damage a record follows: skipped in a tolerant store."""
        if damage and not self._tolerant:
            raise json.JSONDecodeError(
                f"segment {segment} of {self._root or 'a memory store'}: the "
                f"line at byte {damage[0][0]} is not a record, and records "
                "follow", "", 0)
        for start, stop in damage:
            yield segment, start, stop, None

    def _parse(self, raw: bytes) -> dict[str, Any] | None:
        try:
            line = json.loads(raw.decode("utf-8", errors="replace")
                              if self._tolerant else raw)
        except ValueError:
            return None
        return line if isinstance(line, dict) and "id" in line else None

    def _advance(self) -> Iterator[tuple[int, int, dict[str, Any]]]:
        """(segment, offset, line) per record past this handle's end,
        moving the end and the highest id over each; counts the damaged
        lines it moves past and those of the torn suffix, which the end
        stops before."""
        self._torn = self._skipped = 0
        for index, start, stop, line in self._read(*self._end[:2]):
            if stop is None:
                self._torn += 1
                continue
            count = self._end[2] + 1 if index == self._end[0] else 1
            self._end = (index, stop, count)
            if line is None:
                self._skipped += 1
            else:
                self._top = max(self._top, line["id"])
                yield index, start, line

    def _place(self, segment: int, offset: int, line: dict[str, Any]) -> None:
        if line.get(_TOMBSTONE_KEY):
            self._where.pop(line["id"], None)
        else:
            self._where[line["id"]] = (segment, offset)

    def _write_lines(self, objs: list[dict[str, Any]]) -> None:
        # Each line is encoded as it is written (:func:`_lines`):
        # no line is held whole as text and as bytes at once.
        end = self._end
        done = written = 0
        try:
            while done < len(objs):
                segment, offset, count = self._end
                if count >= self._segment_max:
                    segment, offset, count = segment + 1, 0, 0
                chunk = objs[done:done + self._segment_max - count]
                sizes: list[int] = []
                self._device.append(segment, _lines(chunk, sizes))
                self._appending = segment
                if self._sync:
                    self._device.sync()
                if self._where is not None:
                    start = offset
                    for obj, size in zip(chunk, sizes):
                        self._place(segment, start, obj)
                        start += size
                done += len(chunk)
                written += sum(sizes)
                self._end = (segment, offset + sum(sizes),
                             count + len(chunk))
        except BaseException:
            self._take_back(end)
            raise
        self.appended_bytes += written

    def _take_back(self, end: tuple[int, int, int]) -> None:
        """Cut the log back to ``end``, where a write that raised began.

        Raises:
            UncutWriteError: the cut failed too.
        """
        with suppress(OSError):  # its buffer may hold the rest of the write
            self.close()
        self._end, self._where = end, None
        try:
            for index in self._device.segments():
                if index >= end[0]:
                    self._device.truncate(index, end[1] if index == end[0]
                                          else 0)
        except OSError as error:
            self._uncut = error
            raise UncutWriteError(self._root) from error

    def _drop(self, indexes: list[int]) -> None:
        self.close()
        for index in indexes:
            self._device.remove(index)
        self._where = None


class _Directory:
    """Segments as files ``<root>/seg-NNNN.jsonl``; the appended one open."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self._root = root
        self._file, self._open = None, -1  # the open file, its segment

    def segments(self) -> list[int]:
        return sorted(int(name[4:-6]) for name in os.listdir(self._root)
                      if name.startswith("seg-") and name.endswith(".jsonl"))

    def lines(self, segment: int, offset: int) -> Iterator[bytes]:
        with open(self._path(segment), "rb") as f:
            f.seek(offset)
            yield from f

    def line(self, segment: int, offset: int) -> bytes:
        return next(self.lines(segment, offset))

    def size(self, segment: int) -> int:
        if segment == self._open:
            return os.fstat(self._file.fileno()).st_size
        return os.path.getsize(self._path(segment))

    def append(self, segment: int, data: Iterable[bytes]) -> None:
        if segment != self._open:
            self.close()
            self._file, self._open = open(self._path(segment), "ab"), segment
        self._file.writelines(data)
        self._file.flush()

    def truncate(self, segment: int, size: int) -> None:
        os.truncate(self._path(segment), size)

    def remove(self, segment: int) -> None:
        os.remove(self._path(segment))

    def sync(self) -> None:
        if self._file is not None:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        file, self._file, self._open = self._file, None, -1
        if file is not None:
            file.close()

    def _path(self, segment: int) -> str:
        return os.path.join(self._root, f"seg-{segment:04d}.jsonl")


class _Memory:
    """Segments as byte strings: nothing outlives the process."""

    def __init__(self) -> None:
        self._data: dict[int, bytearray] = {}

    def segments(self) -> list[int]:
        return sorted(self._data)

    def lines(self, segment: int, offset: int) -> Iterator[bytes]:
        data = self._data[segment]
        while offset < len(data):
            line = self.line(segment, offset)
            offset += len(line)
            yield line

    def line(self, segment: int, offset: int) -> bytes:
        data = self._data[segment]
        return bytes(data[offset:data.find(b"\n", offset) + 1 or len(data)])

    def size(self, segment: int) -> int:
        return len(self._data[segment])

    def append(self, segment: int, data: Iterable[bytes]) -> None:
        into = self._data.setdefault(segment, bytearray())
        for chunk in data:
            into += chunk

    def truncate(self, segment: int, size: int) -> None:
        del self._data[segment][size:]

    def remove(self, segment: int) -> None:
        del self._data[segment]

    def close(self) -> None:
        """Nothing to sync or close: the segments live in this process."""

    sync = close
