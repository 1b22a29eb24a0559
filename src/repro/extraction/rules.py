"""Rule-cascade extraction over sentences.

A :class:`ContextRule` fires when a sentence contains given *trigger*
keywords and a value matching a regex; the rule names the attribute and can
bind the entity from a dictionary hit in the same sentence.  A cascade runs
rules in priority order; by default a later (lower-priority) rule will not
re-extract a span already claimed by an earlier rule — the classic cascade
discipline of CPSL-style IE systems.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.docmodel.document import Document, Span
from repro.docmodel.tokenize import SentenceSplitter
from repro.extraction.base import Extraction, Extractor
from repro.extraction.dictionary import DictionaryExtractor

_WORD_RE = re.compile(r"\w+")


def _trigger_regex(trigger: str) -> re.Pattern[str]:
    """``trigger`` as a keyword: case-insensitive, and word-bounded on the
    sides where it has a word character ("C++" is followed by a space,
    which ``\\b`` after the "+" would never accept)."""
    lead = r"\b" if re.match(r"\w", trigger) else ""
    trail = r"\b" if re.search(r"\w\Z", trigger) else ""
    return re.compile(lead + re.escape(trigger) + trail, re.IGNORECASE)


@dataclass
class ContextRule:
    """One extraction rule.

    Attributes:
        attribute: attribute to emit.
        triggers: all of these keywords must occur in the sentence
            (case-insensitive).
        value_pattern: regex whose first group (or whole match) is the value.
        normalizer: applied to the raw value; returning None suppresses.
        confidence: confidence of extractions from this rule.
        priority: lower numbers run first in the cascade.
    """

    attribute: str
    triggers: tuple[str, ...]
    value_pattern: str
    normalizer: Callable[[str], Any] | None = None
    confidence: float = 0.8
    priority: int = 0

    def __post_init__(self) -> None:
        self._compiled = re.compile(self.value_pattern)
        self._trigger_res = [_trigger_regex(t) for t in self.triggers]

    def matches_context(self, sentence: str) -> bool:
        return all(t.search(sentence) for t in self._trigger_res)

    def find_values(self, sentence: str) -> list[tuple[int, int, str]]:
        """(start, end, raw) triples of value matches within the sentence."""
        hits: list[tuple[int, int, str]] = []
        for match in self._compiled.finditer(sentence):
            if match.groups():
                hits.append((match.start(1), match.end(1), match.group(1)))
            else:
                hits.append((match.start(), match.end(), match.group()))
        return hits


@dataclass
class RuleCascadeExtractor(Extractor):
    """Run a prioritized cascade of context rules per sentence.

    Args:
        rules: the cascade; executed in ascending priority.
        entity_dictionary: optional gazetteer used to bind the entity of
            each extraction to a dictionary mention in the same sentence
            (the nearest one to the value).
        suppress_overlaps: when True (default), spans claimed by an earlier
            rule are off-limits to later rules.
    """

    rules: list[ContextRule] = field(default_factory=list)
    entity_dictionary: DictionaryExtractor | None = None
    suppress_overlaps: bool = True
    name: str = "rule-cascade"
    cost_per_char: float = 2.0

    # 1: a trigger is word-bounded only where it has a word character.
    version = 1

    def __post_init__(self) -> None:
        self._splitter = SentenceSplitter()
        # The cascade in firing order, decided once: each rule with the
        # words a sentence must hold for it to fire and the trigger regexes
        # those words do not settle (see _firing).
        self._cascade: list[tuple[ContextRule, frozenset[str],
                                  list[re.Pattern[str]]]] = []
        for rule in sorted(self.rules, key=lambda r: r.priority):
            words: set[str] = set()
            unsettled = []
            for trigger, regex in zip(rule.triggers, rule._trigger_res):
                if trigger.isascii():
                    lowered = trigger.lower()
                    runs = _WORD_RE.findall(lowered)
                    words.update(runs)
                    if runs == [lowered]:
                        continue  # one whole word: membership settles it
                unsettled.append(regex)
            self._cascade.append((rule, frozenset(words), unsettled))
        self._vocabulary = frozenset().union(
            *(words for _, words, _ in self._cascade))

    def prefilter_terms(self) -> list[list[str]] | None:
        """A rule only fires on sentences containing all its triggers, so a
        document must contain some rule's full trigger set to yield output."""
        groups = [list(rule.triggers) for rule in self.rules if rule.triggers]
        return groups or None

    def extract(self, doc: Document) -> list[Extraction]:
        sentences = self._splitter.split(doc)
        mentions = self._mentions_by_sentence(doc, sentences)
        out: list[Extraction] = []
        for index, sentence_span in enumerate(sentences):
            sentence = sentence_span.text
            # values lie inside their sentence, so only they can overlap
            claimed: list[Span] = []
            for rule in self._firing(sentence):
                for rel_start, rel_end, raw in rule.find_values(sentence):
                    span = Span(doc.doc_id, sentence_span.start + rel_start,
                                sentence_span.start + rel_end, raw)
                    if self.suppress_overlaps and any(
                        span.overlaps(c) for c in claimed
                    ):
                        continue
                    value: Any = raw
                    if rule.normalizer is not None:
                        value = rule.normalizer(raw)
                        if value is None:
                            continue
                    nearby = mentions.get(index)
                    entity = min(
                        nearby, key=lambda m: abs(m.span.start - span.start)
                    ).entity if nearby else ""
                    out.append(
                        Extraction(
                            entity=entity,
                            attribute=rule.attribute,
                            value=value,
                            span=span,
                            confidence=rule.confidence,
                            extractor=f"{self.name}:{rule.attribute}",
                        )
                    )
                    claimed.append(span)
        return out

    def _firing(self, sentence: str) -> list[ContextRule]:
        """The rules whose triggers all occur in ``sentence``, in cascade
        order — what ``rule.matches_context`` says of each, from one scan.

        Between ASCII strings ``re.IGNORECASE`` is equality of the
        lowercased forms and ``\\b`` delimits runs of ``[A-Za-z0-9_]``, so a
        one-word trigger occurs exactly when it is one of the sentence's
        words, and every word inside a longer trigger must be one of them
        too (its regex then decides).  A sentence or trigger outside ASCII
        ("ſ" matches "s", "İ" matches "i") is left to the regexes.
        """
        if not sentence.isascii():
            return [rule for rule, _, _ in self._cascade
                    if rule.matches_context(sentence)]
        present = self._vocabulary.intersection(
            _WORD_RE.findall(sentence.lower()))
        return [rule for rule, words, unsettled in self._cascade
                if words <= present
                and all(regex.search(sentence) for regex in unsettled)]

    def _mentions_by_sentence(self, doc: Document, sentences: list[Span]
                              ) -> dict[int, list[Extraction]]:
        """The dictionary's mentions lying inside each sentence (keyed by
        its index), in the order the dictionary gave them."""
        inside: dict[int, list[Extraction]] = {}
        if self.entity_dictionary is None:
            return inside
        starts = [sentence.start for sentence in sentences]
        for mention in self.entity_dictionary.extract(doc):
            index = bisect_right(starts, mention.span.start) - 1
            if index >= 0 and sentences[index].contains(mention.span):
                inside.setdefault(index, []).append(mention)
        return inside
