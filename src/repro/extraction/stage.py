"""The extraction stage: the one place a document meets an extractor.

Program-driven generation (``lang.executor.Executor`` — a whole pipeline
in one shot, or one program per demand over a shared cache) and the
streaming pipeline (``core.streaming.StreamingPipeline._extract``) both
call :func:`run_stage`; they differ only in the *backend* they hand it —
where the misses physically run (``ExecutionBackend.map_stream`` on a
serial, thread or process pool, or as a Map-Reduce job on the simulated
cluster; None is an inline loop) — the way MiniHive's LOCAL / HDFS / MOCK
are environments of one task graph, not three compilers.

What the stage owns, so no caller re-implements it:

* the cache protocol — one :func:`extractor_fingerprint` per call, one
  :func:`document_key` per document, hits partitioned from misses before
  anything runs, fresh rows written back afterwards (empty lists
  included: an unchanged document that yields nothing must also hit;
  quarantined documents excluded: a failure is retried, not remembered);
* the fault contract — :class:`ExtractPayload` retries *inside* whatever
  worker it landed on, a document still failing after the budget becomes
  a poison marker (picklable, travels through backends like a row) that
  the stage strips into ``failures``; ``fail_fast`` propagates the first
  error instead;
* the ``extraction.*`` counters, recorded wherever the payload runs
  (backends merge worker-local registries back).

Not imported by ``repro.extraction``'s ``__init__``: the cache package
imports ``extraction.base``, so this module is imported by path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.cache.fingerprint import extractor_fingerprint
from repro.cache.store import LRUExtractionCache, Rows, document_key
from repro.cluster.backends import ExecutionBackend
from repro.docmodel.document import Document
from repro.errors import CancellationToken
from repro.extraction.base import extraction_to_tuple, scan_cost
from repro.faults.retry import RetryPolicy
from repro.telemetry import metrics
from repro.telemetry.tracing import get_tracer

#: Per-document retry budget: extraction faults are usually transient
#: (resource hiccups, injected test faults), so three quick attempts with
#: tightly capped backoff resolve them without visible latency.
DEFAULT_DOC_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001,
                                max_delay=0.02)

_POISON_KEY = "__poison__"


@dataclass(frozen=True)
class ExtractPayload:
    """One document through one extractor: retry, quarantine, counters.

    A module-level dataclass (not a lambda) so process backends can ship
    it to workers — every bundled extractor pickles cleanly.  Retrying
    in-worker heals a transient fault without a round-trip through the
    pool, and fault-injector attempt counts work unchanged on process
    backends (the retries all see the same unpickled injector).
    """

    extractor: Any  # anything with .extract(doc); tests use duck types
    retry: RetryPolicy | None = None
    fail_fast: bool = False

    def __call__(self, doc: Document) -> Rows:
        extract = self.extractor.extract
        try:
            if self.retry is None:
                extractions = extract(doc)
            else:
                extractions = self.retry.run(lambda: extract(doc),
                                             salt=doc.doc_id)
        except Exception as exc:
            if self.fail_fast:
                raise
            return self.quarantine(doc, exc)
        rows = [extraction_to_tuple(e) for e in extractions]
        # ``high_confidence`` vs ``extractions`` is the precision proxy:
        # the share of output the debugger would trust without review.
        registry = metrics.get_registry()
        registry.inc("extraction.docs")
        registry.inc("extraction.extractions", len(rows))
        registry.inc("extraction.high_confidence",
                     sum(1 for r in rows if r["confidence"] >= 0.9))
        return rows

    def unit_cost(self, docs: Sequence[Document]) -> float:
        """Simulated work units per document over ``docs`` (their mean
        length scanned): what a simulated cluster charges a map task."""
        return scan_cost(self.extractor,
                         sum(len(d.text) for d in docs) / len(docs))

    def quarantine(self, doc: Document, exc: BaseException) -> Rows:
        """Poison marker in place of a failed document's rows.

        Also the backends' ``on_item_failure`` callback: it covers the
        failures ``__call__`` cannot catch in-process — a worker that
        died (``os._exit``, segfault) and kept dying on the rebuilt pool.
        """
        metrics.get_registry().inc("extraction.poison_docs")
        return [{
            _POISON_KEY: True,
            "doc_id": doc.doc_id,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "attempts": self.retry.max_attempts if self.retry is not None
            else 1,
        }]


@dataclass
class StageResult:
    """Outcome of one extractor over one document list.

    Attributes:
        rows: per input document, its rows in the extractor's emission
            order — or None where the document was quarantined.
        failures: one ``{doc_id, error, error_type, attempts}`` per
            quarantined document, in input order.
        misses: input positions that were actually extracted (everything
            when no cache is configured) — the work-accounting set.
    """

    rows: list[Rows | None]
    failures: list[dict[str, Any]]
    misses: list[int]


def run_stage(extractor: Any, docs: Sequence[Document],
              backend: ExecutionBackend | None = None,
              cache: LRUExtractionCache | None = None,
              retry: RetryPolicy | None = None,
              fail_fast: bool = False,
              token: CancellationToken | None = None) -> StageResult:
    """Extract ``docs`` with ``extractor``: cache hits, else the backend.

    Args:
        backend: runs the payload over the misses (a document it cannot
            extract is quarantined); None is an inline loop that checks
            ``token`` between documents.
        cache: content-addressed store consulted before and filled after.
        retry: per-document budget (None: one attempt).
        fail_fast: the first extraction error propagates, nothing is
            quarantined.
    """
    payload = ExtractPayload(extractor, retry, fail_fast)
    rows: list[Rows | None] = [None] * len(docs)
    misses = list(range(len(docs)))
    if cache is not None and docs:
        fingerprint = extractor_fingerprint(extractor)
        keys = [document_key(doc) for doc in docs]
        with get_tracer().span("cache.lookup") as span:
            for i, key in enumerate(keys):
                rows[i] = cache.get(key, fingerprint)
            misses = [i for i, hit in enumerate(rows) if hit is None]
            span.set_attribute("hits", len(docs) - len(misses))
            span.set_attribute("misses", len(misses))
    miss_docs = [docs[i] for i in misses]
    if backend is not None and miss_docs:
        fresh = backend.map(
            payload, miss_docs,
            on_item_failure=None if fail_fast else payload.quarantine)
    else:
        fresh = []
        for doc in miss_docs:
            if token is not None:
                token.check()
            fresh.append(payload(doc))
    failures: list[dict[str, Any]] = []
    for i, doc_rows in zip(misses, fresh):
        if doc_rows and doc_rows[0].get(_POISON_KEY):
            marker = dict(doc_rows[0])
            del marker[_POISON_KEY]
            failures.append(marker)
            continue
        rows[i] = doc_rows
        if cache is not None:
            cache.put(keys[i], fingerprint, doc_rows)
    return StageResult(rows, failures, misses)
