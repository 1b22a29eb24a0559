"""The semantic debugger and the system monitor."""

from __future__ import annotations

import heapq
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.debugger.constraints import (
    Constraint,
    ConstraintViolation,
    DomainConstraint,
    RangeConstraint,
    TypeConstraint,
    learn_constraints,
)

# Exactly these classes (a subclass may read more of the fact).
_SINGLE_ATTRIBUTE = (RangeConstraint, TypeConstraint, DomainConstraint)


@dataclass(frozen=True)
class Alert:
    """One alert raised to the developer or system manager."""

    severity: str  # "warning" | "error"
    source: str  # "semantic" | "monitor"
    message: str
    detail: dict[str, Any] = field(default_factory=dict)


class SemanticDebugger:
    """Learns application semantics, then screens generated facts.

    Usage: call :meth:`learn` on a trusted sample (or add hand-written
    constraints via :meth:`add_constraint` — the developer's domain
    knowledge), then pass each newly generated fact to :meth:`check`.
    Violations accumulate in :attr:`alerts`.
    """

    def __init__(self) -> None:
        self._constraints: list[Constraint] = []
        # The same constraints with their registration positions, split by
        # what a fact must hold for them to speak: a range, type or domain
        # constraint is silent about a fact without its attribute.
        self._by_attribute: dict[str, list[tuple[int, Constraint]]] = {}
        self._any_fact: list[tuple[int, Constraint]] = []
        self.alerts: list[Alert] = []
        self.facts_checked = 0
        self.facts_flagged = 0

    def learn(self, facts: Sequence[dict[str, Any]], **learn_kwargs: Any) -> int:
        """Learn constraints from trusted facts; returns how many."""
        learned = learn_constraints(facts, **learn_kwargs)
        for constraint in learned:
            self.add_constraint(constraint)
        return len(learned)

    def add_constraint(self, constraint: Constraint) -> None:
        """Add developer-supplied domain knowledge."""
        entry = (len(self._constraints), constraint)
        self._constraints.append(constraint)
        if type(constraint) in _SINGLE_ATTRIBUTE:
            self._by_attribute.setdefault(
                constraint.attribute, []).append(entry)
        else:
            self._any_fact.append(entry)

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    def check(self, fact: dict[str, Any],
              context: str = "") -> list[ConstraintViolation]:
        """Screen one fact against the constraints on its attributes and
        those on whole facts, in registration order; violations also
        become alerts."""
        self.facts_checked += 1
        groups = [self._by_attribute[attribute] for attribute in fact
                  if attribute in self._by_attribute]
        if self._any_fact:
            groups.append(self._any_fact)
        violations: list[ConstraintViolation] = []
        for _, constraint in (groups[0] if len(groups) == 1
                              else heapq.merge(*groups)):
            violations.extend(constraint.check(fact))
        if violations:
            self.facts_flagged += 1
            for violation in violations:
                self.alerts.append(
                    Alert(
                        severity="warning",
                        source="semantic",
                        message=violation.message
                        + (f" [{context}]" if context else ""),
                        detail={"attribute": violation.attribute,
                                "value": violation.value,
                                "constraint": violation.constraint},
                    )
                )
        return violations

    def screen(self, facts: Sequence[dict[str, Any]]) -> list[int]:
        """Check many facts; returns indexes of the flagged ones."""
        flagged = []
        for i, fact in enumerate(facts):
            if self.check(fact):
                flagged.append(i)
        return flagged

    def describe_rules(self) -> list[str]:
        return [c.describe() for c in self._constraints]


class SystemMonitor:
    """Watches pipeline metrics and alerts the system manager.

    Record per-batch metrics (documents processed, extractions produced,
    errors); the monitor keeps a rolling window and raises an alert when a
    new observation deviates from the window mean by more than
    ``z_threshold`` standard deviations, or when the error rate exceeds
    ``max_error_rate``.
    """

    def __init__(self, window: int = 20, z_threshold: float = 3.0,
                 max_error_rate: float = 0.1) -> None:
        if window < 3:
            raise ValueError("window must be >= 3")
        self._window = window
        self._z = z_threshold
        self._max_error_rate = max_error_rate
        self._history: dict[str, list[float]] = {}
        self.alerts: list[Alert] = []

    def record(self, metric: str, value: float) -> Alert | None:
        """Record one observation; returns the alert if one fired."""
        history = self._history.setdefault(metric, [])
        alert: Alert | None = None
        if len(history) >= 3:
            mean = statistics.fmean(history)
            stdev = statistics.pstdev(history)
            floor = max(abs(mean) * 0.01, 1e-9)
            spread = max(stdev, floor)
            z = abs(value - mean) / spread
            if z > self._z:
                alert = Alert(
                    severity="warning",
                    source="monitor",
                    message=(
                        f"metric {metric!r} = {value:g} deviates from rolling "
                        f"mean {mean:g} (z = {z:.1f})"
                    ),
                    detail={"metric": metric, "value": value, "mean": mean,
                            "z": z},
                )
                self.alerts.append(alert)
        history.append(value)
        if len(history) > self._window:
            del history[0]
        return alert

    def record_batch(self, processed: int, errors: int) -> Alert | None:
        """Record a processing batch; alerts on excessive error rate."""
        rate = errors / processed if processed else 1.0
        self.record("batch_size", float(processed))
        if rate > self._max_error_rate:
            alert = Alert(
                severity="error",
                source="monitor",
                message=f"error rate {rate:.1%} exceeds "
                        f"{self._max_error_rate:.0%} on a batch of {processed}",
                detail={"processed": processed, "errors": errors, "rate": rate},
            )
            self.alerts.append(alert)
            return alert
        return None
