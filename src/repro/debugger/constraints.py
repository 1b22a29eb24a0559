"""Learnable data constraints.

Constraints are learned from a trusted sample of facts (dicts of
attribute → value per entity) and then used to screen new facts.  Numeric
ranges are widened by a tolerance so legitimate unseen-but-nearby values do
not alarm; domains only form when the observed value set is small relative
to the sample (a categorical signature).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class ConstraintViolation:
    """One constraint breach for one fact."""

    attribute: str
    value: Any
    constraint: str
    message: str


class Constraint(ABC):
    """Base class: screens a single attribute value or a whole fact."""

    @abstractmethod
    def check(self, fact: dict[str, Any]) -> list[ConstraintViolation]:
        """Violations of this constraint by the fact (empty when clean)."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable statement of the learned rule."""


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RangeConstraint(Constraint):
    """Numeric attribute must lie within a learned (widened) range."""

    attribute: str
    low: float
    high: float

    def check(self, fact: dict[str, Any]) -> list[ConstraintViolation]:
        value = fact.get(self.attribute)
        if value is None or not _is_number(value):
            return []
        if self.low <= float(value) <= self.high:
            return []
        return [
            ConstraintViolation(
                self.attribute, value, "range",
                f"{self.attribute}={value} outside learned range "
                f"[{self.low:g}, {self.high:g}]",
            )
        ]

    def describe(self) -> str:
        return f"{self.attribute} ∈ [{self.low:g}, {self.high:g}]"


@dataclass(frozen=True)
class TypeConstraint(Constraint):
    """Attribute must keep the type observed during learning."""

    attribute: str
    type_name: str  # "number" | "text" | "bool"

    def check(self, fact: dict[str, Any]) -> list[ConstraintViolation]:
        value = fact.get(self.attribute)
        if value is None:
            return []
        actual = (
            "bool" if isinstance(value, bool)
            else "number" if _is_number(value)
            else "text"
        )
        if actual == self.type_name:
            return []
        return [
            ConstraintViolation(
                self.attribute, value, "type",
                f"{self.attribute}={value!r} is {actual}, expected {self.type_name}",
            )
        ]

    def describe(self) -> str:
        return f"type({self.attribute}) = {self.type_name}"


@dataclass(frozen=True)
class DomainConstraint(Constraint):
    """Categorical attribute must take one of the learned values."""

    attribute: str
    domain: frozenset

    def check(self, fact: dict[str, Any]) -> list[ConstraintViolation]:
        value = fact.get(self.attribute)
        if value is None or value in self.domain:
            return []
        return [
            ConstraintViolation(
                self.attribute, value, "domain",
                f"{self.attribute}={value!r} not among {len(self.domain)} "
                "learned values",
            )
        ]

    def describe(self) -> str:
        sample = ", ".join(sorted(str(v) for v in list(self.domain)[:5]))
        return f"{self.attribute} ∈ {{{sample}, ...}}"


@dataclass(frozen=True)
class FunctionalDependency(Constraint):
    """Approximate FD: the determinant attribute fixes the dependent one.

    Learned mappings are carried along; a fact whose determinant was seen
    with a *different* dependent value is flagged.
    """

    determinant: str
    dependent: str
    mapping: tuple[tuple[Any, Any], ...]

    def check(self, fact: dict[str, Any]) -> list[ConstraintViolation]:
        det = fact.get(self.determinant)
        dep = fact.get(self.dependent)
        if det is None or dep is None:
            return []
        known = dict(self.mapping)
        if det in known and known[det] != dep:
            return [
                ConstraintViolation(
                    self.dependent, dep, "fd",
                    f"{self.determinant}={det!r} implies "
                    f"{self.dependent}={known[det]!r}, got {dep!r}",
                )
            ]
        return []

    def describe(self) -> str:
        return f"{self.determinant} -> {self.dependent}"


def learn_constraints(
    facts: Sequence[dict[str, Any]],
    range_tolerance: float = 0.25,
    domain_max_fraction: float = 0.5,
    domain_min_support: int = 4,
    fd_min_support: int = 4,
) -> list[Constraint]:
    """Learn constraints from a trusted fact sample.

    Args:
        facts: attribute → value dicts (one per entity/observation).
        range_tolerance: numeric ranges widen by this fraction of the span.
        domain_max_fraction: a domain constraint forms only when distinct
            values ≤ this fraction of observations (categorical signature).
        domain_min_support: minimum observations before learning a domain.
        fd_min_support: minimum observations of a determinant before
            trusting an FD.

    Returns:
        Learned constraints (ranges, types, domains, FDs).
    """
    values_by_attr: dict[str, list[Any]] = defaultdict(list)
    for fact in facts:
        for attr, value in fact.items():
            if value is not None:
                values_by_attr[attr].append(value)

    constraints: list[Constraint] = []
    for attr, values in sorted(values_by_attr.items()):
        numeric = [float(v) for v in values if _is_number(v)]
        textual = [v for v in values if isinstance(v, str)]
        if numeric and len(numeric) == len(values):
            constraints.append(TypeConstraint(attr, "number"))
            low, high = min(numeric), max(numeric)
            slack = (high - low) * range_tolerance or max(abs(high), 1.0) * 0.1
            constraints.append(RangeConstraint(attr, low - slack, high + slack))
        elif textual and len(textual) == len(values):
            constraints.append(TypeConstraint(attr, "text"))
            distinct = set(textual)
            if (
                len(values) >= domain_min_support
                and len(distinct) <= max(domain_max_fraction * len(values), 1)
            ):
                constraints.append(DomainConstraint(attr, frozenset(distinct)))

    # Approximate FDs between attribute pairs that co-occur in a fact: one
    # pass over the facts, touching only the pairs each fact actually
    # holds (one-attribute facts — generate()'s default input — hold none).
    mappings: dict[tuple[str, str], dict[Any, Any]] = {}
    support: dict[tuple[str, str], int] = defaultdict(int)
    inconsistent: set[tuple[str, str]] = set()
    for fact in facts:
        present = [(a, v) for a, v in fact.items() if v is not None]
        if len(present) < 2:
            continue
        for det, d in present:
            for dep, v in present:
                pair = (det, dep)
                if det == dep or pair in inconsistent:
                    continue
                mapping = mappings.setdefault(pair, {})
                if d in mapping and mapping[d] != v:
                    inconsistent.add(pair)
                    continue
                support[pair] += 1
                mapping[d] = v
    for pair in sorted(mappings):  # (det, dep): the order the pairs had
        mapping = mappings[pair]
        if pair not in inconsistent and support[pair] >= fd_min_support \
                and len(mapping) >= 2:
            # An FD where every determinant is unique is vacuous unless
            # the determinant really repeats.
            if support[pair] > len(mapping):
                constraints.append(
                    FunctionalDependency(*pair, tuple(sorted(
                        mapping.items(), key=lambda kv: str(kv[0])
                    )))
                )
    return constraints
