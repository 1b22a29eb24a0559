"""Value fusion: resolving conflicting extractions.

After extraction and entity resolution, several extractions may claim
different values for the same (entity, attribute) — e.g. an infobox says a
temperature is 70 while a noisy free-text extractor read 7.  Fusion picks a
single value per (entity, attribute) and assigns it a fused confidence.

Strategies:

* ``max_confidence`` — take the highest-confidence extraction;
* ``weighted_vote`` — sum confidences per distinct value, take the winner;
* ``numeric_median`` — for numeric values, the confidence-weighted median
  (robust to single corrupted readings).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.docmodel.document import Span
from repro.extraction.base import Extraction

_STRATEGIES = ("max_confidence", "weighted_vote", "numeric_median")


@dataclass(frozen=True)
class FusedValue:
    """The fusion result for one (entity, attribute).

    Attributes:
        entity / attribute: the key.
        value: the chosen value.
        confidence: fused belief in the chosen value, in [0, 1].
        support: number of extractions agreeing with the chosen value.
        conflict: number of extractions disagreeing.
        spans: provenance spans of the supporting extractions.
    """

    entity: str
    attribute: str
    value: Any
    confidence: float
    support: int
    conflict: int
    spans: tuple[Span, ...]


def _weighted_median(pairs: list[tuple[float, float]]) -> float:
    """Median of values weighted by confidence; pairs are (value, weight)."""
    ordered = sorted(pairs)
    total = sum(w for _, w in ordered)
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= total / 2.0:
            return value
    return ordered[-1][0]


def canonical_extraction_sort_key(extraction: Extraction) -> tuple:
    """A deterministic total order over extractions.

    Fusion output depends on member order inside a group (max-confidence
    ties, vote ties, span tuples), so batch fusion, incremental
    maintenance and its oracle all fuse members in this one order.
    """
    span = extraction.span
    return (
        extraction.entity,
        extraction.attribute,
        -extraction.confidence,
        span.doc_id, span.start, span.end,
        extraction.extractor,
        repr(extraction.value),
    )


def _fuse_group(entity: str, attribute: str, members: Sequence[Extraction],
                strategy: str) -> FusedValue:
    """Fuse one (entity, attribute) group; member order is significant."""
    if strategy == "max_confidence":
        chosen_value = max(members, key=lambda e: e.confidence).value
    elif strategy == "numeric_median" and all(
        isinstance(m.value, (int, float)) and not isinstance(m.value, bool)
        for m in members
    ):
        chosen_value = _weighted_median(
            [(float(m.value), m.confidence) for m in members]
        )
    else:
        votes: dict[Any, float] = {}
        for member in members:
            votes[member.value] = votes.get(member.value, 0.0) + member.confidence
        chosen_value = max(votes.items(), key=lambda kv: (kv[1], str(kv[0])))[0]
    supporters = [m for m in members if _agrees(m.value, chosen_value, strategy)]
    conflicters = len(members) - len(supporters)
    support_conf = sum(m.confidence for m in supporters)
    total_conf = sum(m.confidence for m in members)
    confidence = support_conf / total_conf if total_conf else 0.0
    # Independent agreeing sources increase belief beyond any single one.
    best_single = max((m.confidence for m in supporters), default=0.0)
    confidence = max(confidence * best_single + (1 - best_single) * confidence,
                     best_single * confidence)
    return FusedValue(
        entity=entity,
        attribute=attribute,
        value=chosen_value,
        confidence=min(confidence, 1.0),
        support=len(supporters),
        conflict=conflicters,
        spans=tuple(m.span for m in supporters),
    )


def fuse_extractions(extractions: Sequence[Extraction],
                     strategy: str = "weighted_vote") -> list[FusedValue]:
    """Fuse extractions into one value per (entity, attribute): one
    :class:`FusionState` fold of them, then :meth:`FusionState.fused`.

    Each group's members are fused in canonical order
    (:func:`canonical_extraction_sort_key`), so the output depends on the
    set of extractions only — not on how they were produced or ordered.

    Args:
        extractions: input extractions (any order).
        strategy: ``max_confidence`` | ``weighted_vote`` | ``numeric_median``.

    Raises:
        ValueError: unknown strategy.
    """
    state = FusionState(strategy)
    state.add(extractions)
    return state.fused()


def _agrees(value: Any, chosen: Any, strategy: str) -> bool:
    if strategy == "numeric_median" and isinstance(value, (int, float)) and isinstance(
        chosen, (int, float)
    ):
        scale = max(abs(float(chosen)), 1.0)
        return abs(float(value) - float(chosen)) <= 0.05 * scale
    return value == chosen


class FusionState:
    """Fusion under retraction: fused values maintained across deltas.

    Holds the extraction multiset of each (entity, attribute) group (a
    :class:`~collections.Counter`), marks a group dirty on every
    add/retract, and on :meth:`refresh` re-fuses *only the dirty groups*,
    each from its members in canonical order — the float folds (vote
    sums, fused confidence) are not invertible under floating-point
    subtraction, so nothing is kept incrementally but the multiset
    itself: O(changed groups' sizes), never O(corpus).
    :func:`fuse_extractions` is one fold of this, so a state's
    :meth:`fused` equals it over the same live extractions, in any order.
    """

    def __init__(self, strategy: str = "weighted_vote") -> None:
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown fusion strategy {strategy!r}")
        self.strategy = strategy
        self._groups: dict[tuple[str, str], Counter] = {}
        self._fused: dict[tuple[str, str], FusedValue] = {}
        self._dirty: set[tuple[str, str]] = set()
        self.groups_refreshed = 0

    def __len__(self) -> int:
        return sum(group.total() for group in self._groups.values())

    def add(self, extractions: Iterable[Extraction]) -> None:
        """Fold new extractions in; their groups go dirty."""
        for extraction in extractions:
            key = (extraction.entity, extraction.attribute)
            self._groups.setdefault(key, Counter())[extraction] += 1
            self._dirty.add(key)

    def retract(self, extractions: Iterable[Extraction]) -> None:
        """Remove previously-added extractions; their groups go dirty.

        Raises:
            KeyError: an extraction was never added (or already retracted).
        """
        for extraction in extractions:
            key = (extraction.entity, extraction.attribute)
            group = self._groups.get(key)
            if group is None:
                raise KeyError(f"cannot retract from absent group {key!r}")
            if not group[extraction]:
                raise KeyError(
                    f"cannot retract absent extraction {extraction!r}")
            group[extraction] -= 1
            if not group[extraction]:
                del group[extraction]
            self._dirty.add(key)
            if not group:
                del self._groups[key]

    def refresh(self) -> dict[tuple[str, str], FusedValue | None]:
        """Re-fuse dirty groups; returns what changed.

        The result maps each group whose fused value changed to the new
        :class:`FusedValue`, or ``None`` when the group emptied out (its
        fused value is retracted downstream).
        """
        changed: dict[tuple[str, str], FusedValue | None] = {}
        for key in sorted(self._dirty):
            group = self._groups.get(key)
            if group is None:
                if key in self._fused:
                    del self._fused[key]
                    changed[key] = None
                continue
            members = sorted(group.elements(),
                             key=canonical_extraction_sort_key)
            fresh = _fuse_group(key[0], key[1], members, self.strategy)
            self.groups_refreshed += 1
            if self._fused.get(key) != fresh:
                self._fused[key] = fresh
                changed[key] = fresh
        self._dirty.clear()
        return changed

    def fused(self) -> list[FusedValue]:
        """Current fused values, sorted by (entity, attribute).

        Implicitly refreshes so the view is never stale.
        """
        self.refresh()
        return [self._fused[key] for key in sorted(self._fused)]
