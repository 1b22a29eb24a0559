"""Keyword search over documents and structured facts.

:class:`KeywordSearchEngine` is the user layer's keyword service: BM25 over
the pages of the raw log, and over the stored facts.  The page index
catches up with the raw log at each page search; the fact index is
brought up to date by its caller, rows rewritten since in hand
(:meth:`~repro.core.system.StructureManagementSystem.keyword_facts`).
The IR baseline the paper argues against is :mod:`repro.baselines`.
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

    Facts (dicts with fact_id/entity/attribute/value), each read from a
    row of a facts table, are indexed as pseudo-documents under IDs
    ``fact:<fact_id>`` so a keyword query can surface structured results
    alongside pages — the user layer's combined exploitation mode.  The
    engine keeps which fact it indexed from which row, not the facts: a
    fact search answers fact ids, which the caller reads from the table.
    """

    def __init__(self, pages: SnapshotStore) -> None:
        self._pages = pages
        self._cursor = 0  # the first record of ``pages`` not indexed
        self._lock = threading.RLock()  # the page index and its cursor
        self._doc_index = InvertedIndex()
        self._fact_index = InvertedIndex()
        #: rid -> the id of the fact indexed from the row at that rid
        self._facts: dict[int, int] = {}

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

    def index_facts(self, facts: dict[int, dict[str, Any]],
                    rewritten: Iterable[int] = ()) -> int:
        """Index ``facts`` — the rid of a row -> the fact read from it —
        as searchable pseudo-documents.  What was indexed from the rows
        at ``rewritten`` (written since) goes first, in one removal."""
        self._fact_index.remove(*(
            f"fact:{self._facts.pop(rid)}" for rid in rewritten
            if rid in self._facts))
        for rid, fact in facts.items():
            rendered = " ".join(
                str(fact[k]) for k in ("entity", "attribute", "value"))
            self._facts[rid] = fact["fact_id"]
            self._fact_index.add(f"fact:{fact['fact_id']}", rendered)
        return len(facts)

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

    def search_facts(self, query: str, k: int = 10) -> list[int]:
        """The ids of the top-k facts for a keyword query."""
        return [int(hit.doc_id[len("fact:"):])
                for hit in self._fact_index.search(query, k=k)]

    def corpus_size(self) -> int:
        with self._lock:
            self.index_corpus()
            return len(self._doc_index)

    def fact_count(self) -> int:
        return len(self._fact_index)

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
