"""Tokenization and sentence segmentation.

A small, deterministic, dependency-free tokenizer good enough for the kinds
of extraction the paper motivates (attribute–value pairs, names, numeric
facts).  Tokens carry spans so extraction results stay traceable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.docmodel.document import Document, Span, Token

_TOKEN_RE = re.compile(
    r"""
    (?P<number>[+-]?\d+(?:[.,]\d+)*(?:\.\d+)?)   # 1,234.5  -7  3.14
  | (?P<word>[A-Za-z][A-Za-z'\-]*)               # words, contractions, hyphens
  | (?P<punct>[^\sA-Za-z0-9])                    # single punctuation marks
    """,
    re.VERBOSE,
)

_ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
        "e.g", "i.e", "jan", "feb", "mar", "apr", "jun", "jul", "aug",
        "sep", "sept", "oct", "nov", "dec", "no", "vol", "fig", "al",
    }
)

_SENTENCE_END_RE = re.compile(r"([.!?])(\s+)")


def scan(text: str, start: int = 0,
         end: int | None = None) -> Iterator[re.Match[str]]:
    """The tokens of ``text[start:end]``, left to right, as the regex's own
    matches: ``span()`` is the absolute range, ``group()`` the text,
    ``lastgroup`` the kind.  Nothing is built per token, so a consumer that
    keeps few of them (a gazetteer) pays for the characters, not the tokens;
    :class:`Tokenizer` wraps the same scan in :class:`Token` objects.
    """
    return _TOKEN_RE.finditer(text, start, len(text) if end is None else end)


@dataclass
class Tokenizer:
    """Regex tokenizer producing :class:`Token` objects with spans.

    Attributes:
        lowercase_words: if True, a parallel lowercased form is available via
            :meth:`normalize`; token text itself is never altered.
    """

    lowercase_words: bool = True

    def tokenize(self, doc: Document) -> list[Token]:
        """Tokenize the whole document."""
        return self.tokenize_range(doc, 0, len(doc.text))

    def tokenize_range(self, doc: Document, start: int, end: int) -> list[Token]:
        """Tokenize only ``doc.text[start:end]``, keeping absolute offsets."""
        return [
            Token(span=Span(doc.doc_id, *match.span(), match.group()),
                  kind=match.lastgroup or "punct")
            for match in scan(doc.text, start, end)
        ]

    def normalize(self, token: Token) -> str:
        """Canonical matching form of a token (lowercased words)."""
        if token.kind == "word" and self.lowercase_words:
            return token.text.lower()
        return token.text


@dataclass
class SentenceSplitter:
    """Heuristic sentence splitter aware of common abbreviations.

    Splits on ``.``, ``!``, ``?`` followed by whitespace, unless the dot
    terminates a known abbreviation or a single capital letter (initials).
    """

    abbreviations: frozenset[str] = field(default_factory=lambda: _ABBREVIATIONS)

    def split(self, doc: Document) -> list[Span]:
        """Return sentence spans covering the non-blank content of ``doc``."""
        text = doc.text
        boundaries: list[int] = []
        for match in _SENTENCE_END_RE.finditer(text):
            punct_pos = match.start(1)
            if match.group(1) == "." and self._is_abbreviation(text, punct_pos):
                continue
            boundaries.append(match.end(1))
        spans: list[Span] = []
        prev = 0
        for boundary in boundaries + [len(text)]:
            chunk = text[prev:boundary]
            stripped = chunk.strip()
            if stripped:
                lead = len(chunk) - len(chunk.lstrip())
                start = prev + lead
                end = start + len(stripped)
                spans.append(Span(doc.doc_id, start, end, text[start:end]))
            prev = boundary
        return spans

    def _is_abbreviation(self, text: str, dot_pos: int) -> bool:
        word_start = dot_pos
        while word_start > 0 and (text[word_start - 1].isalpha() or text[word_start - 1] == "."):
            word_start -= 1
        word = text[word_start:dot_pos].lower().rstrip(".")
        if not word:
            return False
        if len(word) == 1 and word.isalpha():
            return True  # initials such as "J. Smith"
        return word in self.abbreviations


_DEFAULT_TOKENIZER = Tokenizer()
_DEFAULT_SPLITTER = SentenceSplitter()


def tokenize(doc: Document) -> list[Token]:
    """Module-level convenience wrapper using the default tokenizer."""
    return _DEFAULT_TOKENIZER.tokenize(doc)


def sentences(doc: Document) -> list[Span]:
    """Module-level convenience wrapper using the default splitter."""
    return _DEFAULT_SPLITTER.split(doc)
