"""Inverted index with BM25 ranking.

Indexes arbitrary (doc_id, text) pairs — raw documents, or structured facts
rendered as pseudo-documents ("madison sep_temp 70") so keyword search can
reach into the derived structure too.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


def index_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric tokens for indexing and querying."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class Posting(NamedTuple):
    """One document's entry in a term's posting list."""

    doc_id: str
    term_frequency: int


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    doc_id: str
    score: float


@dataclass
class InvertedIndex:
    """Classic inverted index with Okapi BM25 scoring.

    Args:
        k1 / b: BM25 parameters (defaults are the standard 1.2 / 0.75).
    """

    k1: float = 1.2
    b: float = 0.75
    _postings: dict[str, list[Posting]] = field(default_factory=dict)
    _doc_lengths: dict[str, int] = field(default_factory=dict)
    #: doc id -> its distinct terms: what :meth:`remove` has to visit
    _doc_terms: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def add(self, doc_id: str, text: str) -> None:
        """Index one document (re-adding an ID raises).

        Raises:
            ValueError: duplicate doc_id.
        """
        if doc_id in self._doc_lengths:
            raise ValueError(f"document {doc_id!r} already indexed")
        tokens = index_tokens(text)
        self._doc_lengths[doc_id] = len(tokens)
        counts = Counter(map(sys.intern, tokens))  # one str per term, shared
        self._doc_terms[doc_id] = tuple(counts)
        for term, tf in counts.items():
            self._postings.setdefault(term, []).append(Posting(doc_id, tf))

    def remove(self, *doc_ids: str) -> None:
        """Drop documents from the index (a KeyError for one not indexed
        removes none): each posting list of their terms is filtered once,
        however many of them share it."""
        gone = set(doc_ids)
        terms = set().union(*[self._doc_terms[doc_id] for doc_id in gone])
        for doc_id in gone:
            del self._doc_lengths[doc_id], self._doc_terms[doc_id]
        for term in terms:
            remaining = [p for p in self._postings[term]
                         if p.doc_id not in gone]
            if remaining:
                self._postings[term] = remaining
            else:
                del self._postings[term]

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term.lower(), ()))

    def search(self, query: str, k: int = 10) -> list[SearchHit]:
        """Top-k BM25 results for a free-text query."""
        terms = index_tokens(query)
        if not terms or not self._doc_lengths:
            return []
        n_docs = len(self._doc_lengths)
        avg_len = sum(self._doc_lengths.values()) / n_docs
        scores: dict[str, float] = {}
        for term in terms:
            postings = self._postings.get(term)
            if not postings:
                continue
            df = len(postings)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for posting in postings:
                length = self._doc_lengths[posting.doc_id]
                tf = posting.term_frequency
                denom = tf + self.k1 * (
                    1 - self.b + self.b * length / avg_len
                )
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + (
                    idf * tf * (self.k1 + 1) / denom
                )
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [SearchHit(doc_id, score) for doc_id, score in ranked[:k]]

    def terms(self) -> list[str]:
        return sorted(self._postings)
