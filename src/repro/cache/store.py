"""The extraction cache: an LRU of rows, on a record log when given a root.

It maps ``(document key, extractor fingerprint)`` to the list
of extraction tuples (:func:`repro.extraction.base.extraction_to_tuple`
row dicts) that extractor produced
on that document — including the empty list, so unchanged documents that
yield nothing are not re-scanned either.

Telemetry: every lookup records ``cache.hits`` / ``cache.misses``, every
admission records ``cache.bytes`` (approximate payload bytes) and every
entry the cache forgets records ``cache.evictions``, all into the ambient
:class:`~repro.telemetry.metrics.MetricsRegistry` — so a cached
executor run reports hit rates next to its other counters.

The protocol has one caller: :func:`repro.extraction.stage.run_stage`,
under batch, streaming and on-demand generation alike.

Concurrency: lookups and write-backs happen on the coordinating side
only (the stage partitions documents *before* fanning misses out on a
thread/process backend and writes results back *after* the wave
returns), so the log needs no cross-process locking; a process
pool never touches the cache files.  Mutation is nevertheless
lock-guarded so a cache instance can be shared across runs and paths.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.storage.filestore import RecordFileStore
from repro.telemetry import metrics

if TYPE_CHECKING:  # hint only; the helper never touches Document internals
    from repro.docmodel.document import Document

Rows = list[dict[str, Any]]


def document_key(doc: "Document") -> str:
    """The cache key half identifying one document *state*.

    ``<content hash>:<doc id>`` — content-addressed (any text edit changes
    the hash, forcing a miss), but qualified by document identity because
    extraction rows embed ``doc_id`` (spans carry it, and extractors fall
    back to it for the entity name), so two identical texts under
    different IDs must not share an entry.  The hash is fixed-width hex,
    making the concatenation unambiguous for any ``doc_id``.
    """
    return f"{doc.content_hash()}:{doc.doc_id}"

# Values an extraction row may carry and survive a JSON round-trip
# unchanged (a cache on a log refuses rows with anything richer).
_JSON_SCALARS = (str, int, float, bool, type(None))


def _approx_bytes(rows: Rows) -> int:
    """Cheap payload-size proxy (for the ``cache.bytes`` counter)."""
    return sum(
        sum(len(k) + len(str(v)) for k, v in row.items()) for row in rows
    ) + 2 * len(rows)


class LRUExtractionCache:
    """Content-addressed store of per-document extraction results.

    In memory it holds at most ``max_entries`` row lists (one entry = one
    (document, extractor) result list), evicting the least recently used.
    Returned rows are shallow copies, so callers mutating result tuples
    downstream cannot corrupt cached state.

    With a ``root`` directory the cache is persistent: every put is also
    appended to a tolerant
    :class:`~repro.storage.filestore.RecordFileStore` log there, one
    record ``{"doc": <key>, "ext": <fingerprint>, "rows": [...]}`` per
    put (the last per key wins).  Opening reads the log once, keeping
    each entry's record id and the rows of the newest ``max_entries``; a
    lookup that misses memory reads its one record by id.  Rows must be
    JSON scalars — a put of anything richer (an extractor emitting, say,
    tuples) is *skipped*, not stored, so a JSON round-trip can never
    change result bytes.  Damaged lines (torn final append, flipped
    bytes) and well-formed records of the wrong shape are skipped at
    open — a damaged entry simply becomes a future miss and gets
    regenerated — counted in ``corrupt_entries`` and the
    ``cache.corrupt_entries`` telemetry counter.
    """

    def __init__(self, root: str | None = None,
                 max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.corrupt_entries = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[tuple[str, str], Rows] = OrderedDict()
        self._log: RecordFileStore | None = None
        # every entry of the log -> the id of its newest record
        self._ids: dict[tuple[str, str], int] = {}
        if root is None:
            return
        self._log = RecordFileStore(root, segment_max_records=5_000,
                                    tolerant=True)
        malformed = 0
        for record in self._log.follow():
            payload = record.payload
            doc, ext, rows = payload.get("doc"), payload.get("ext"), \
                payload.get("rows")
            if not isinstance(doc, str) or not isinstance(ext, str) \
                    or not isinstance(rows, list):
                malformed += 1
                continue
            key = (doc, sys.intern(ext))  # one fingerprint per extractor
            self._ids[key] = record.record_id
            self._admit(key, rows)
        self.corrupt_entries = self._log.corrupt_lines + malformed
        if self.corrupt_entries:
            metrics.get_registry().inc("cache.corrupt_entries",
                                       self.corrupt_entries)

    def get(self, doc_key: str, extractor_fp: str) -> Rows | None:
        """Cached rows for (document key, extractor), or None on a miss."""
        key = (doc_key, extractor_fp)
        with self._lock:
            rows = self._data.get(key)
            if rows is not None:
                self._data.move_to_end(key)
            elif key in self._ids:
                [record] = self._log.get([self._ids[key]])
                rows = record.payload["rows"]
                self._admit(key, rows)
        metrics.get_registry().inc("cache.hits" if rows is not None
                                   else "cache.misses")
        return None if rows is None else [dict(r) for r in rows]

    def put(self, doc_key: str, extractor_fp: str, rows: Rows) -> None:
        """Record the rows this extractor produced on this document."""
        if self._log is not None and not all(
            isinstance(v, _JSON_SCALARS) for row in rows for v in row.values()
        ):
            return  # not JSON-faithful; caching it would break determinism
        key = (doc_key, extractor_fp)
        with self._lock:
            if self._log is not None:
                self._ids[key] = self._log.append(
                    {"doc": doc_key, "ext": extractor_fp, "rows": rows})
            evicted = self._admit(key, [dict(r) for r in rows])
        registry = metrics.get_registry()
        registry.inc("cache.bytes", _approx_bytes(rows))
        if evicted and self._log is None:  # a logged entry is not forgotten
            registry.inc("cache.evictions", evicted)

    def stats(self) -> dict[str, Any]:
        """Current occupancy."""
        with self._lock:
            if self._log is not None:
                return {
                    "kind": "disk",
                    "root": self._log._root,
                    "entries": len(self._ids),
                    "segments": self._log.segment_count(),
                    "disk_bytes": self._log.total_bytes(),
                    "corrupt_entries": self.corrupt_entries,
                }
            approx = sum(_approx_bytes(rows) for rows in self._data.values())
            return {"kind": "memory", "entries": len(self._data),
                    "max_entries": self.max_entries, "approx_bytes": approx}

    def clear(self) -> None:
        """Drop every cached entry (the log's segments too)."""
        with self._lock:
            self._data.clear()
            self._ids.clear()
            if self._log is not None:
                self._log.clear()

    def close(self) -> None:
        """Close the log's open segment (idempotent; the next put reopens
        it)."""
        if self._log is not None:
            with self._lock:
                self._log.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids if self._log is not None else self._data)

    def _admit(self, key: tuple[str, str], rows: Rows) -> int:
        """Hold ``rows`` as the most recently used entry; returns how many
        entries that pushed out of memory.  Called under the lock."""
        self._data[key] = rows
        self._data.move_to_end(key)
        evicted = 0
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            evicted += 1
        return evicted


def make_cache(spec: "LRUExtractionCache | str | None",
               ) -> LRUExtractionCache | None:
    """Resolve a cache spec.

    Args:
        spec: ``None`` (no caching), an :class:`LRUExtractionCache`
            (returned as-is), the string ``"memory"`` (a default-sized
            in-memory cache), or any other string — taken as the
            directory of a persistent cache.
    """
    if spec is None:
        return None
    if isinstance(spec, LRUExtractionCache):
        return spec
    if isinstance(spec, str):
        return LRUExtractionCache(None if spec == "memory" else spec)
    raise TypeError(f"cannot build an extraction cache from {spec!r}")
