"""Extraction cache implementations: in-memory LRU and on-disk JSONL.

Both map ``(document key, extractor fingerprint)`` to the list
of extraction tuples (:func:`repro.extraction.base.extraction_to_tuple`
row dicts) that extractor produced
on that document — including the empty list, so unchanged documents that
yield nothing are not re-scanned either.

Telemetry: every lookup records ``cache.hits`` / ``cache.misses``, every
admission records ``cache.bytes`` (approximate payload bytes) and LRU
evictions record ``cache.evictions``, all into the ambient
:class:`~repro.telemetry.metrics.MetricsRegistry` — so a cached
executor run reports hit rates next to its other counters.

The protocol has one caller: :func:`repro.extraction.stage.run_stage`,
under batch, streaming and on-demand generation alike.

Concurrency: lookups and write-backs happen on the coordinating side
only (the stage partitions documents *before* fanning misses out on a
thread/process backend and writes results back *after* the wave
returns), so the disk format needs no cross-process locking; a process
pool never touches the cache files.  Mutation is nevertheless
lock-guarded so a cache instance can be shared across runs and paths.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
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
# unchanged (the on-disk cache refuses rows with anything richer, see
# DiskExtractionCache.put).
_JSON_SCALARS = (str, int, float, bool, type(None))


def _approx_bytes(rows: Rows) -> int:
    """Cheap payload-size proxy (for the ``cache.bytes`` counter)."""
    return sum(
        sum(len(k) + len(str(v)) for k, v in row.items()) for row in rows
    ) + 2 * len(rows)


class ExtractionCache(ABC):
    """Content-addressed store of per-document extraction results."""

    @abstractmethod
    def get(self, doc_key: str, extractor_fp: str) -> Rows | None:
        """Cached rows for (document key, extractor), or None on a miss."""

    @abstractmethod
    def put(self, doc_key: str, extractor_fp: str, rows: Rows) -> None:
        """Record the rows this extractor produced on this document."""

    @abstractmethod
    def stats(self) -> dict[str, Any]:
        """Current occupancy (entries, bytes, ...)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every cached entry."""

    def close(self) -> None:
        """Release any resources (idempotent; default no-op)."""

    # ------------------------------------------------------------ telemetry

    @staticmethod
    def _record_lookup(hit: bool) -> None:
        metrics.get_registry().inc("cache.hits" if hit else "cache.misses")

    @staticmethod
    def _record_put(rows: Rows) -> None:
        metrics.get_registry().inc("cache.bytes", _approx_bytes(rows))


class LRUExtractionCache(ExtractionCache):
    """In-memory cache with least-recently-used eviction.

    Sized in *entries* (one entry = one (document, extractor) result
    list); evictions bump the ``cache.evictions`` counter.  Returned rows
    are shallow copies, so callers mutating result tuples downstream
    cannot corrupt cached state.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._data: OrderedDict[tuple[str, str], Rows] = OrderedDict()

    def get(self, doc_key: str, extractor_fp: str) -> Rows | None:
        key = (doc_key, extractor_fp)
        with self._lock:
            rows = self._data.get(key)
            if rows is not None:
                self._data.move_to_end(key)
        self._record_lookup(rows is not None)
        return None if rows is None else [dict(r) for r in rows]

    def put(self, doc_key: str, extractor_fp: str, rows: Rows) -> None:
        key = (doc_key, extractor_fp)
        evicted = 0
        with self._lock:
            self._data[key] = [dict(r) for r in rows]
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                evicted += 1
        self._record_put(rows)
        if evicted:
            metrics.get_registry().inc("cache.evictions", evicted)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            entries = len(self._data)
            approx = sum(_approx_bytes(rows) for rows in self._data.values())
        return {"kind": "memory", "entries": entries,
                "max_entries": self.max_entries, "approx_bytes": approx}

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class DiskExtractionCache(ExtractionCache):
    """Persistent cache: JSONL segments under a directory.

    Built on the storage layer's append-only
    :class:`~repro.storage.filestore.RecordFileStore` (segment rotation
    included): each record is ``{"doc": <hash>, "ext": <fingerprint>,
    "rows": [...]}``; on open, all segments are scanned once into an
    in-memory index (last write per key wins), so steady-state lookups
    never touch the disk.  Rows must be JSON scalars — anything richer
    (an extractor emitting, say, tuples) is *skipped*, not stored, so a
    JSON round-trip can never change result bytes.

    The open-time scan is crash-safe: corrupt lines (torn final append,
    flipped bytes) and well-formed lines with the wrong shape are skipped
    — a damaged entry simply becomes a future miss and gets regenerated —
    counted in the ``cache.corrupt_entries`` telemetry counter and
    reported by :meth:`stats`.
    """

    def __init__(self, root: str, segment_max_records: int = 5_000) -> None:
        self._lock = threading.Lock()
        self._store = RecordFileStore(root,
                                      segment_max_records=segment_max_records,
                                      tolerant=True)
        self._index: dict[tuple[str, str], Rows] = {}
        malformed = 0
        for record in self._store.scan():
            payload = record.payload
            doc, ext, rows = payload.get("doc"), payload.get("ext"), \
                payload.get("rows")
            if not isinstance(doc, str) or not isinstance(ext, str) \
                    or not isinstance(rows, list):
                malformed += 1
                continue
            self._index[(doc, ext)] = rows
        self.corrupt_entries = self._store.corrupt_lines + malformed
        if self.corrupt_entries:
            metrics.get_registry().inc("cache.corrupt_entries",
                                       self.corrupt_entries)

    @property
    def root(self) -> str:
        return self._store._root

    def get(self, doc_key: str, extractor_fp: str) -> Rows | None:
        with self._lock:
            rows = self._index.get((doc_key, extractor_fp))
        self._record_lookup(rows is not None)
        return None if rows is None else [dict(r) for r in rows]

    def put(self, doc_key: str, extractor_fp: str, rows: Rows) -> None:
        if not all(
            isinstance(v, _JSON_SCALARS) for row in rows for v in row.values()
        ):
            return  # not JSON-faithful; caching it would break determinism
        with self._lock:
            self._store.append(
                {"doc": doc_key, "ext": extractor_fp, "rows": rows}
            )
            self._index[(doc_key, extractor_fp)] = [dict(r) for r in rows]
        self._record_put(rows)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "kind": "disk",
                "root": self._store._root,
                "entries": len(self._index),
                "segments": self._store.segment_count(),
                "disk_bytes": self._store.total_bytes(),
                "corrupt_entries": self.corrupt_entries,
            }

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._index.clear()

    def close(self) -> None:
        with self._lock:
            self._store.close()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)


def make_cache(spec: "ExtractionCache | str | None") -> ExtractionCache | None:
    """Resolve a cache spec.

    Args:
        spec: ``None`` (no caching), an :class:`ExtractionCache` instance
            (returned as-is), the string ``"memory"`` (a default-sized
            :class:`LRUExtractionCache`), or any other string — taken as
            a directory path for a :class:`DiskExtractionCache`.
    """
    if spec is None:
        return None
    if isinstance(spec, ExtractionCache):
        return spec
    if isinstance(spec, str):
        if spec == "memory":
            return LRUExtractionCache()
        return DiskExtractionCache(spec)
    raise TypeError(f"cannot build an extraction cache from {spec!r}")
