"""Incremental, best-effort extraction (DGE model, Section 3.2).

"Many applications may want to generate structured data *incrementally*,
in a best-effort fashion, as the user deems necessary (instead of
generating all of them in one shot)."

The manager maps attribute names to the extractors that can produce them.
When a user's information need grows (``demand`` is called with new
attributes), only the not-yet-run extractors execute; everything already
extracted is served from cache.  Work is accounted in characters scanned ×
extractor cost, so experiment E4 can compare incremental total cost against
one-shot extraction of everything.

Each extractor runs through the shared extraction stage
(:func:`repro.extraction.stage.run_stage`) — the same cache protocol,
retry budget and quarantine as batch and streaming generation — so a
document an xlog program already extracted into a shared
:class:`~repro.cache.store.ExtractionCache` is served without re-scanning
here (and vice versa); ``work_done`` counts only extraction actually
performed.  This module keeps the demand bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cache.store import ExtractionCache, make_cache
from repro.docmodel.document import Document
from repro.extraction.base import Extraction, Extractor, tuple_to_extraction
from repro.extraction.stage import DEFAULT_DOC_RETRY, run_stage


@dataclass
class _ExtractorEntry:
    extractor: Extractor
    attributes: frozenset[str]
    has_run: bool = False


@dataclass
class IncrementalExtractionManager:
    """On-demand attribute extraction with cost accounting.

    Args:
        corpus: documents to extract from.
        cache: optional content-addressed extraction cache (same specs as
            :func:`~repro.cache.store.make_cache`); hits skip the scan and
            do not count toward ``work_done``.

    A run is failure-atomic per extractor: a document that exhausts the
    stage's retry budget is skipped and reported in ``failures``
    (``{doc_id, extractor, error, error_type, attempts}``), never raised
    half-way — so a repeated ``demand()`` returns each extraction once.
    """

    corpus: Sequence[Document] = ()
    cache: ExtractionCache | str | None = None
    _entries: dict[str, _ExtractorEntry] = field(default_factory=dict)
    _cache: list[Extraction] = field(default_factory=list)
    work_done: float = 0.0  # cost-weighted characters scanned
    failures: list[dict[str, Any]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._extraction_cache = make_cache(self.cache)

    def register(self, name: str, extractor: Extractor,
                 attributes: Sequence[str]) -> None:
        """Declare that ``extractor`` produces the given attributes.

        Raises:
            ValueError: duplicate name or empty attribute list.
        """
        if name in self._entries:
            raise ValueError(f"extractor {name!r} already registered")
        if not attributes:
            raise ValueError("attributes must be non-empty")
        self._entries[name] = _ExtractorEntry(
            extractor=extractor, attributes=frozenset(attributes)
        )

    def demanded_attributes(self) -> set[str]:
        """Attributes whose extractors have already run."""
        out: set[str] = set()
        for entry in self._entries.values():
            if entry.has_run:
                out |= entry.attributes
        return out

    def demand(self, attributes: Sequence[str]) -> list[Extraction]:
        """Ensure the given attributes are extracted; return their facts.

        Runs only extractors that (a) cover at least one newly demanded
        attribute and (b) have not run yet.  Returns all cached extractions
        whose attribute is in the demanded set.

        Raises:
            KeyError: an attribute no registered extractor produces.
        """
        wanted = set(attributes)
        covered: set[str] = set()
        for entry in self._entries.values():
            covered |= entry.attributes
        missing = wanted - covered
        if missing:
            raise KeyError(
                f"no extractor produces attribute(s) {sorted(missing)}"
            )
        for name, entry in self._entries.items():
            if not entry.has_run and entry.attributes & wanted:
                self._run(name, entry)
        return [e for e in self._cache if e.attribute in wanted]

    def extract_all(self) -> list[Extraction]:
        """One-shot mode: run every registered extractor now."""
        for name, entry in self._entries.items():
            if not entry.has_run:
                self._run(name, entry)
        return list(self._cache)

    def cached(self) -> list[Extraction]:
        return list(self._cache)

    def _run(self, name: str, entry: _ExtractorEntry) -> None:
        docs = list(self.corpus)
        result = run_stage(entry.extractor, docs,
                           cache=self._extraction_cache,
                           retry=DEFAULT_DOC_RETRY)
        # The cache holds the *full* output (pre-filter), so one entry
        # serves any attribute subset; only this entry's attributes are
        # kept here.
        self._cache.extend(
            tuple_to_extraction(row)
            for rows in result.rows if rows is not None
            for row in rows if row["attribute"] in entry.attributes
        )
        for i in result.misses:
            if result.rows[i] is not None:  # a quarantined scan yielded nothing
                self.work_done += \
                    entry.extractor.cost_per_char * len(docs[i].text)
        self.failures.extend({**f, "extractor": name}
                             for f in result.failures)
        entry.has_run = True
