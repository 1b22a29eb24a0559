"""Extraction data model and the extractor interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.docmodel.document import Document, Span


@dataclass(frozen=True)
class Extraction:
    """One extracted attribute–value pair.

    Attributes:
        entity: the subject the attribute belongs to (e.g. a city name);
            may be empty when the extractor cannot tell yet — integration
            fills it in.
        attribute: attribute name (e.g. ``temperature_sep``).
        value: the normalized value (str, int, float, bool).
        span: provenance — where in which document this was read.
        confidence: extractor's belief in correctness, in [0, 1].
        extractor: name of the producing extractor (provenance).
    """

    entity: str
    attribute: str
    value: Any
    span: Span
    confidence: float = 1.0
    extractor: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if not self.attribute:
            raise ValueError("attribute must be non-empty")

    def key(self) -> tuple[str, str, Any]:
        """Identity for dedup: (entity, attribute, value)."""
        return (self.entity, self.attribute, self.value)


def extraction_to_tuple(extraction: Extraction) -> dict[str, Any]:
    """The tuple (row-dict) form of an extraction.

    The one ``Extraction`` <-> dict codec: xlog rows, what workers ship
    back, and what the extraction cache persists (the on-disk format).
    """
    return {
        "doc_id": extraction.span.doc_id,
        "entity": extraction.entity,
        "attribute": extraction.attribute,
        "value": extraction.value,
        "confidence": extraction.confidence,
        "span_start": extraction.span.start,
        "span_end": extraction.span.end,
        "span_text": extraction.span.text,
        "extractor": extraction.extractor,
    }


def tuple_to_extraction(row: dict[str, Any]) -> Extraction:
    """Inverse of :func:`extraction_to_tuple`; tolerates rows an xlog
    operator has since projected (missing entity/confidence/extractor)."""
    return Extraction(
        entity=row.get("entity", ""),
        attribute=row["attribute"],
        value=row["value"],
        span=Span(row["doc_id"], row["span_start"], row["span_end"],
                  row.get("span_text", " " * (row["span_end"] - row["span_start"]))),
        confidence=row.get("confidence", 1.0),
        extractor=row.get("extractor", ""),
    )


def scan_cost(extractor: Any, chars: float) -> float:
    """Simulated work units for ``extractor`` to scan ``chars``
    characters: the one extraction cost formula, read by the optimizer's
    estimates and the simulated cluster's task costs."""
    return extractor.cost_per_char * chars


class Extractor(ABC):
    """Base class for all IE operators.

    Subclasses implement :meth:`extract`; :attr:`name` identifies the
    operator in provenance records; :attr:`cost_per_char` is the optimizer's
    cost model input (simulated work units per character scanned);
    :attr:`version` feeds the extraction cache's fingerprint
    (:func:`repro.cache.extractor_fingerprint`) — bump it whenever the
    extraction *logic* changes in a way the configuration fields do not
    capture, to force cached results to be regenerated.
    """

    name: str = "extractor"
    cost_per_char: float = 1.0
    version: int = 0

    @abstractmethod
    def extract(self, doc: Document) -> list[Extraction]:
        """Extract attribute–value pairs from one document."""

    def prefilter_terms(self) -> list[list[str]] | None:
        """Keyword groups enabling a cheap document pre-filter.

        When not None: a document can only yield extractions if, for some
        group, it contains *all* the group's keywords.  The optimizer uses
        this to skip expensive extraction on irrelevant documents without
        changing results.  Default: unknown (no safe pre-filter).
        """
        return None

    def extract_corpus(self, docs: Iterable[Document]) -> list[Extraction]:
        """Convenience: run over many documents."""
        out: list[Extraction] = []
        for doc in docs:
            out.extend(self.extract(doc))
        return out


@dataclass
class CompositeExtractor(Extractor):
    """Runs several extractors, concatenating and deduplicating output.

    When two extractors produce the same (entity, attribute, value) from
    overlapping spans, the higher-confidence extraction wins.
    """

    extractors: list[Extractor] = field(default_factory=list)
    name: str = "composite"

    def extract(self, doc: Document) -> list[Extraction]:
        best: dict[tuple, Extraction] = {}
        for extractor in self.extractors:
            for extraction in extractor.extract(doc):
                key = extraction.key()
                current = best.get(key)
                if current is None or extraction.confidence > current.confidence:
                    best[key] = extraction
        return sorted(best.values(), key=lambda e: (e.span.start, e.attribute))

    @property
    def cost_per_char(self) -> float:  # type: ignore[override]
        return sum(e.cost_per_char for e in self.extractors)
