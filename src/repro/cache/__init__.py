"""Content-addressed extraction cache (the perf ladder's third rung).

The DGE model is incremental and best-effort: corpora churn while most
documents stay unchanged, so re-running every extractor over every
document on each ``generate()`` wastes almost all of its work.  This
package caches extraction output keyed by a *content fingerprint* —
``(document text hash, extractor fingerprint)`` — so a warm re-run after
a 1% corpus update only extracts the 1% of documents that changed.

* :mod:`repro.cache.fingerprint` — stable fingerprints of extractor
  *behaviour* (class, config, patterns, normalizers, cost params, and an
  explicit ``version`` developers bump to force invalidation).
* :mod:`repro.cache.store` — :class:`LRUExtractionCache`, one class: an
  in-memory LRU of row lists, bounded by ``max_entries``; given a
  directory, it also appends every entry to a record log there (the
  storage layer's record file store) and reads back from the log what
  memory no longer holds, so it persists across processes.

The executor consults the cache per extract operator: documents partition
into hits and misses, only the misses fan out on the execution backend,
and fresh results are written back.  Output is byte-identical cached vs
uncached and across all execution backends (the determinism contract).
"""

from repro.cache.fingerprint import extractor_fingerprint
from repro.cache.store import LRUExtractionCache, document_key, make_cache

__all__ = [
    "LRUExtractionCache",
    "document_key",
    "extractor_fingerprint",
    "make_cache",
]
