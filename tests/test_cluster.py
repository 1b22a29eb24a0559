"""Tests for the simulated cluster and Map-Reduce engine."""

import pytest

from repro.cluster.mapreduce import MapReduceJob, run_mapreduce
from repro.cluster.simulator import (
    ClusterConfig,
    SimulatedCluster,
    Task,
    TaskFailedError,
)


def _tasks(n, cost=1.0):
    return [Task(task_id=f"t{i}", cost=cost) for i in range(n)]


def test_all_tasks_execute_and_return_values():
    # every task is scheduled, in order; the cluster as a backend returns
    # each item's value in input order
    cluster = SimulatedCluster(ClusterConfig(num_workers=3, seed=1))
    results, makespan = cluster.schedule(_tasks(10))
    assert [r.task_id for r in results] == [f"t{i}" for i in range(10)]
    assert makespan > 0
    assert cluster.map(_double, list(range(10))) == [i * 2 for i in range(10)]


def test_makespan_decreases_with_more_workers():
    makespans = []
    for workers in (1, 2, 4, 8):
        cluster = SimulatedCluster(
            ClusterConfig(num_workers=workers, seed=42, heterogeneity=0.0)
        )
        _, makespan = cluster.schedule(_tasks(64))
        makespans.append(makespan)
    assert makespans == sorted(makespans, reverse=True)
    # near-linear scaling for embarrassingly parallel equal tasks
    assert makespans[0] / makespans[-1] > 6.0


def test_deterministic_given_seed():
    a = SimulatedCluster(ClusterConfig(num_workers=4, seed=9, failure_prob=0.2))
    b = SimulatedCluster(ClusterConfig(num_workers=4, seed=9, failure_prob=0.2))
    _, ma = a.schedule(_tasks(20))
    _, mb = b.schedule(_tasks(20))
    assert ma == mb
    assert a.worker_speeds() == b.worker_speeds()


def test_failures_are_retried():
    cluster = SimulatedCluster(
        ClusterConfig(num_workers=4, seed=3, failure_prob=0.3, max_attempts=10)
    )
    results, _ = cluster.schedule(_tasks(30))
    assert len(results) == 30
    assert any(r.attempts > 1 for r in results)


def test_task_exhausts_attempts():
    cluster = SimulatedCluster(
        ClusterConfig(num_workers=2, seed=0, failure_prob=0.999, max_attempts=2)
    )
    with pytest.raises(TaskFailedError):
        cluster.schedule(_tasks(5))


def test_failures_increase_makespan():
    clean = SimulatedCluster(ClusterConfig(num_workers=4, seed=5))
    flaky = SimulatedCluster(
        ClusterConfig(num_workers=4, seed=5, failure_prob=0.3, max_attempts=20)
    )
    _, clean_ms = clean.schedule(_tasks(40))
    _, flaky_ms = flaky.schedule(_tasks(40))
    assert flaky_ms > clean_ms


def test_speculative_execution_beats_stragglers():
    base = dict(num_workers=4, seed=7, straggler_prob=0.3, straggler_factor=8.0)
    with_spec = SimulatedCluster(ClusterConfig(**base, speculative_execution=True))
    without = SimulatedCluster(ClusterConfig(**base, speculative_execution=False))
    _, ms_with = with_spec.schedule(_tasks(40))
    _, ms_without = without.schedule(_tasks(40))
    assert ms_with < ms_without


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ClusterConfig(num_workers=0)
    with pytest.raises(ValueError):
        ClusterConfig(failure_prob=1.0)


def _double(x):
    return x * 2


def _wordcount_job(**kwargs):
    return MapReduceJob(
        map_fn=lambda line: [(w, 1) for w in line.split()],
        reduce_fn=lambda key, values: sum(values),
        **kwargs,
    )


def test_mapreduce_wordcount():
    lines = ["a b a", "b c", "a"] * 10
    result = run_mapreduce(
        _wordcount_job(split_size=5, num_reducers=3), lines,
        config=ClusterConfig(num_workers=4, seed=1),
    )
    assert result.output == {"a": 30, "b": 20, "c": 10}
    assert result.makespan > 0


def test_mapreduce_combiner_reduces_shuffle():
    lines = ["x x x x x"] * 20
    plain = run_mapreduce(
        _wordcount_job(split_size=5), lines,
        config=ClusterConfig(num_workers=2, seed=1),
    )
    combined = run_mapreduce(
        _wordcount_job(split_size=5, combine_fn=lambda k, vs: [sum(vs)]),
        lines, config=ClusterConfig(num_workers=2, seed=1),
    )
    assert combined.output == plain.output == {"x": 100}
    assert combined.shuffle_records < plain.shuffle_records


def test_mapreduce_empty_input():
    result = run_mapreduce(_wordcount_job(), [],
                           config=ClusterConfig(num_workers=2, seed=0))
    assert result.output == {}


def test_mapreduce_partitioning_is_stable():
    lines = ["alpha beta gamma delta"] * 5
    a = run_mapreduce(_wordcount_job(num_reducers=4), lines,
                      config=ClusterConfig(num_workers=2, seed=1))
    b = run_mapreduce(_wordcount_job(num_reducers=4), lines,
                      config=ClusterConfig(num_workers=2, seed=1))
    assert a.output == b.output
    assert a.shuffle_records == b.shuffle_records
