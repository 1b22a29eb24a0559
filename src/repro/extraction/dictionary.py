"""Dictionary (gazetteer) extraction.

Matches known multi-token phrases — city names, person names, organization
names — against documents using a token-level trie, so matching is linear in
document length regardless of dictionary size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.docmodel.document import Document, Span
from repro.docmodel.tokenize import scan
from repro.extraction.base import Extraction, Extractor


class _TrieNode:
    __slots__ = ("children", "terminal_value")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.terminal_value: str | None = None


@dataclass
class DictionaryExtractor(Extractor):
    """Extract occurrences of known phrases as (attribute, canonical value).

    Args:
        attribute: attribute name for every match (e.g. ``city``).
        phrases: phrase → canonical value; a bare iterable of phrases maps
            each phrase to itself.
        case_sensitive: match with original case (default: fold case).
        longest_match: prefer the longest phrase at each position.
        confidence: confidence of each produced extraction.
    """

    attribute: str = "mention"
    phrases: dict[str, str] | Iterable[str] = field(default_factory=dict)
    case_sensitive: bool = False
    longest_match: bool = True
    confidence: float = 0.85
    name: str = "dictionary"
    cost_per_char: float = 0.5

    # 1: phrases are tokenised as pages are ("St. Louis" is three tokens).
    version = 1

    def __post_init__(self) -> None:
        if not isinstance(self.phrases, dict):
            self.phrases = {p: p for p in self.phrases}
        self._root = _TrieNode()
        for phrase, canonical in self.phrases.items():
            words = self._words(scan(phrase))
            if not words:
                continue
            node = self._root
            for word in words:
                node = node.children.setdefault(word, _TrieNode())
            node.terminal_value = canonical

    def extract(self, doc: Document) -> list[Extraction]:
        text = doc.text
        tokens = list(scan(text))
        words = self._words(tokens)
        first, longest = self._root.children, self.longest_match
        out: list[Extraction] = []
        resume = 0  # tokens before it belong to the last longest match
        for i in [i for i, word in enumerate(words) if word in first]:
            if i < resume:
                continue
            node, last, canonical = self._root, i, None
            for j in range(i, len(words)):
                node = node.children.get(words[j])
                if node is None:
                    break
                if node.terminal_value is not None:
                    last, canonical = j, node.terminal_value
                    if not longest:
                        break
            if canonical is None:
                continue
            start, end = tokens[i].start(), tokens[last].end()
            out.append(
                Extraction(
                    entity=canonical,
                    attribute=self.attribute,
                    value=canonical,
                    span=Span(doc.doc_id, start, end, text[start:end]),
                    confidence=self.confidence,
                    extractor=self.name,
                )
            )
            if longest:
                resume = last + 1
        return out

    def _words(self, tokens: Iterable[re.Match[str]]) -> list[str]:
        """The matching form of each token: its text, case-folded unless
        ``case_sensitive``."""
        if self.case_sensitive:
            return [token.group() for token in tokens]
        return [token.group().lower() for token in tokens]
