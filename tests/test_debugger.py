"""Tests for the semantic debugger and system monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.debugger.constraints import (
    DomainConstraint,
    FunctionalDependency,
    RangeConstraint,
    TypeConstraint,
    learn_constraints,
)
from repro.debugger.semantic import SemanticDebugger, SystemMonitor


def _temp_sample(n=20):
    return [{"temp": 20.0 + i, "city": "Madison", "state": "WI"}
            for i in range(n)]


def test_learn_range_constraint_widened():
    constraints = learn_constraints(_temp_sample())
    ranges = [c for c in constraints if isinstance(c, RangeConstraint)]
    assert len(ranges) == 1
    constraint = ranges[0]
    assert constraint.low < 20.0
    assert constraint.high > 39.0


def test_range_constraint_flags_the_papers_135_example():
    debugger = SemanticDebugger()
    debugger.learn(_temp_sample())
    violations = debugger.check({"temp": 135.0})
    assert violations
    assert violations[0].constraint == "range"
    assert "135" in violations[0].message


def test_range_constraint_accepts_nearby_unseen_value():
    debugger = SemanticDebugger()
    debugger.learn(_temp_sample())
    assert debugger.check({"temp": 41.0}) == []  # just above max, within slack


def test_type_constraint():
    constraint = TypeConstraint("temp", "number")
    assert constraint.check({"temp": 20.0}) == []
    assert constraint.check({"temp": "warm"})[0].constraint == "type"
    assert constraint.check({"temp": None}) == []
    assert constraint.check({}) == []


def test_domain_constraint_learned_for_categorical():
    constraints = learn_constraints(_temp_sample())
    domains = {c.attribute for c in constraints
               if isinstance(c, DomainConstraint)}
    assert "state" in domains
    debugger = SemanticDebugger()
    debugger.learn(_temp_sample())
    assert any(v.constraint == "domain"
               for v in debugger.check({"state": "NOTASTATE"}))


def test_domain_not_learned_for_high_cardinality():
    facts = [{"name": f"unique-{i}"} for i in range(20)]
    constraints = learn_constraints(facts)
    assert not any(isinstance(c, DomainConstraint) for c in constraints)


def test_functional_dependency_learned_and_enforced():
    facts = [
        {"city": "Madison", "state": "WI"},
        {"city": "Madison", "state": "WI"},
        {"city": "Austin", "state": "TX"},
        {"city": "Austin", "state": "TX"},
        {"city": "Houston", "state": "TX"},
    ]
    constraints = learn_constraints(facts, domain_min_support=99)
    fds = [c for c in constraints if isinstance(c, FunctionalDependency)
           and c.determinant == "city" and c.dependent == "state"]
    assert fds
    violation = fds[0].check({"city": "Madison", "state": "TX"})
    assert violation and violation[0].constraint == "fd"
    assert fds[0].check({"city": "Madison", "state": "WI"}) == []
    assert fds[0].check({"city": "NewCity", "state": "ZZ"}) == []


def test_fd_not_learned_when_inconsistent():
    facts = [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "x"}, {"a": 3, "b": "z"},
    ]
    constraints = learn_constraints(facts)
    assert not any(isinstance(c, FunctionalDependency) and c.determinant == "a"
                   for c in constraints)


def test_debugger_screen_and_counters():
    debugger = SemanticDebugger()
    debugger.learn(_temp_sample())
    flagged = debugger.screen([{"temp": 25.0}, {"temp": 500.0}, {"temp": 30.0}])
    assert flagged == [1]
    assert debugger.facts_checked == 3
    assert debugger.facts_flagged == 1
    assert len(debugger.alerts) >= 1


def test_debugger_manual_constraint():
    debugger = SemanticDebugger()
    debugger.add_constraint(RangeConstraint("temp", -80.0, 130.0))
    assert debugger.check({"temp": 135.0})
    assert "temp" in debugger.describe_rules()[0]


def test_monitor_z_score_alert():
    monitor = SystemMonitor(window=10, z_threshold=3.0)
    for _ in range(8):
        assert monitor.record("extractions", 100.0) is None
    alert = monitor.record("extractions", 2000.0)
    assert alert is not None
    assert "extractions" in alert.message


def test_monitor_requires_history_before_alerting():
    monitor = SystemMonitor()
    assert monitor.record("m", 1.0) is None
    assert monitor.record("m", 99999.0) is None  # only 1 past observation


def test_monitor_error_rate_alert():
    monitor = SystemMonitor(max_error_rate=0.1)
    assert monitor.record_batch(processed=100, errors=5) is None
    alert = monitor.record_batch(processed=100, errors=30)
    assert alert is not None and alert.severity == "error"


def test_monitor_invalid_window():
    with pytest.raises(ValueError):
        SystemMonitor(window=2)


# ------------------------------------------- FD mining: one pass vs oracle


def _fd_oracle(facts, fd_min_support=4):
    """The FD pass as it was: every ordered attribute pair x every fact."""
    attrs = sorted({a for f in facts for a, v in f.items() if v is not None})
    out = []
    for det in attrs:
        for dep in attrs:
            if det == dep:
                continue
            mapping, consistent, support = {}, True, 0
            for fact in facts:
                d, v = fact.get(det), fact.get(dep)
                if d is None or v is None:
                    continue
                support += 1
                if d in mapping and mapping[d] != v:
                    consistent = False
                    break
                mapping[d] = v
            if consistent and support >= fd_min_support \
                    and len(mapping) >= 2 and support > len(mapping):
                out.append(FunctionalDependency(det, dep, tuple(sorted(
                    mapping.items(), key=lambda kv: str(kv[0])))))
    return out


_fd_fact = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.one_of(st.none(), st.integers(0, 2), st.sampled_from(["x", "y"])),
    max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_fd_fact, max_size=14), st.integers(1, 5))
def test_fd_pass_matches_the_nested_loop_oracle(facts, min_support):
    learned = [c for c in learn_constraints(facts, fd_min_support=min_support)
               if isinstance(c, FunctionalDependency)]
    assert learned == _fd_oracle(facts, fd_min_support=min_support)


def test_one_attribute_facts_are_never_pair_scanned():
    # generate() feeds one-attribute dicts: no pair can have support, so
    # the fact list is walked a constant number of times whatever the
    # number of distinct attributes (it was 1 + n*(n-1) walks).
    class CountingFacts(list):
        walks = 0

        def __iter__(self):
            CountingFacts.walks += 1
            return super().__iter__()

    facts = CountingFacts({f"attr{i % 30}": float(i)} for i in range(300))
    constraints = learn_constraints(facts)
    assert CountingFacts.walks <= 2
    assert not any(isinstance(c, FunctionalDependency) for c in constraints)
    assert sum(isinstance(c, RangeConstraint) for c in constraints) == 30
