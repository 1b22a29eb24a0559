"""Keyword search over documents and structured facts.

:class:`KeywordSearchEngine` is the user layer's keyword service: BM25 over
the pages of the raw log, and over the stored facts.  The IR baseline the
paper argues against is :mod:`repro.baselines`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

from repro.storage.snapshots import SnapshotStore
from repro.userlayer.index import InvertedIndex, SearchHit


@dataclass(frozen=True)
class DocumentResult:
    """A ranked document with a contextual snippet."""

    doc_id: str
    score: float
    snippet: str


class KeywordSearchEngine:
    """BM25 search over the pages of a raw log, plus fact search.

    The page index follows ``pages`` (the raw log): a page search first
    indexes what its ``changes_since`` names; snippets are read from it.

    Facts (dicts with fact_id/entity/attribute/value) are indexed as
    pseudo-documents under IDs ``fact:<fact_id>`` so a keyword query can
    surface structured results alongside pages — the user layer's
    combined exploitation mode.
    """

    def __init__(self, pages: SnapshotStore) -> None:
        self._pages = pages
        self._cursor = 0  # the first record of ``pages`` not indexed
        self._lock = threading.RLock()  # the page index and its cursor
        self._doc_index = InvertedIndex()
        self._fact_index = InvertedIndex()
        self._facts: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------ indexing

    def index_corpus(self) -> None:
        """Bring the page index up to ``pages``: index the pages written
        since the cursor (the old postings of edited ones go in one
        removal)."""
        with self._lock:
            added, changed, self._cursor = self._pages.changes_since(
                self._cursor)
            self._doc_index.remove(*changed)
            for doc_id in added + changed:
                self._doc_index.add(doc_id, self._pages.checkout(doc_id).text)

    def index_facts(self, facts: Iterable[dict[str, Any]]) -> int:
        """Index structured facts as searchable pseudo-documents, each
        under its ``fact_id``; facts indexed under those ids before (they
        have been rewritten since) are replaced, in one removal."""
        batch = {f"fact:{fact['fact_id']}": dict(fact) for fact in facts}
        self._fact_index.remove(*batch.keys() & self._facts.keys())
        for fact_id, fact in batch.items():
            rendered = " ".join(
                str(fact.get(k, "")) for k in ("entity", "attribute", "value")
            )
            self._facts[fact_id] = fact
            self._fact_index.add(fact_id, rendered)
        return len(batch)

    def remove_facts(self, fact_ids: Iterable[Any]) -> None:
        """Drop the indexed ones of ``fact_ids``, in one removal."""
        gone = {f"fact:{fact_id}" for fact_id in fact_ids} & self._facts.keys()
        self._fact_index.remove(*gone)
        for fact_id in gone:
            del self._facts[fact_id]

    def clear_facts(self) -> None:
        self._fact_index, self._facts = InvertedIndex(), {}

    # ------------------------------------------------------------- queries

    def search(self, query: str, k: int = 10) -> list[DocumentResult]:
        """Top-k documents for a keyword query, with snippets."""
        with self._lock:
            self.index_corpus()
            hits = self._doc_index.search(query, k=k)
        return [
            DocumentResult(h.doc_id, h.score, self._snippet(h, query))
            for h in hits
        ]

    def search_facts(self, query: str, k: int = 10) -> list[dict[str, Any]]:
        """Top-k structured facts for a keyword query, as indexed (with
        their ``fact_id``)."""
        hits = self._fact_index.search(query, k=k)
        return [self._facts[h.doc_id] for h in hits]

    def corpus_size(self) -> int:
        with self._lock:
            self.index_corpus()
            return len(self._doc_index)

    def fact_count(self) -> int:
        return len(self._facts)

    # ------------------------------------------------------------ internals

    def _snippet(self, hit: SearchHit, query: str, width: int = 120) -> str:
        text = self._pages.checkout(hit.doc_id).text
        lowered = text.lower()
        best_pos = 0
        for term in query.lower().split():
            pos = lowered.find(term)
            if pos >= 0:
                best_pos = pos
                break
        start = max(0, best_pos - width // 4)
        end = min(len(text), start + width)
        prefix = "..." if start > 0 else ""
        suffix = "..." if end < len(text) else ""
        return prefix + text[start:end].replace("\n", " ") + suffix
