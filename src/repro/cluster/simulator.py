"""Deterministic cluster simulator.

The scheduler is a pure cost model (the real work runs on an execution
backend); what it simulates is *time and failure*: every worker has a
speed factor, a failure probability, and a straggler probability, all
drawn from a seeded RNG so runs are reproducible.  The scheduler assigns each ready task to the worker
that becomes free earliest (greedy list scheduling); failed attempts are
retried on the next-free other worker; tasks whose attempt is flagged as a
straggler may get a speculative duplicate, and the earlier finisher wins —
the classic Map-Reduce backup-task mechanism.

The simulated makespan (max over workers of their busy horizon) is the
metric experiment E7 reports for scaling curves.

The cluster is also an execution backend: it holds an inner backend that
runs the real work, and :meth:`SimulatedCluster.map_stream` runs each call
as one Map-Reduce job — a map wave over splits, an identity reduce —
whose makespan accumulates in the ``cluster.makespan``
counter.  :meth:`SimulatedCluster.wave` schedules one wave; the backend
routine and both waves of :func:`~repro.cluster.mapreduce.run_mapreduce`
share it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.cluster.backends import (ExecutionBackend, OnItemFailure,
                                    SerialBackend, _chunk)
from repro.faults.retry import RetryPolicy
from repro.telemetry import metrics, tracing

#: Simulated work units per record a reduce task takes in (the default
#: ``MapReduceJob.reduce_cost_per_value``; a backend call's identity
#: reduce pays it per record).
REDUCE_COST_PER_RECORD = 0.1


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the simulated cluster.

    Attributes:
        num_workers: cluster size.
        seed: RNG seed (speeds, failures, stragglers are reproducible).
        failure_prob: probability that any single task attempt fails.
        straggler_prob: probability that an attempt runs slow.
        straggler_factor: slowdown multiplier for stragglers.
        speculative_execution: launch backup attempts for stragglers.
        heterogeneity: worker speed factors are drawn uniformly from
            ``[1 - heterogeneity, 1 + heterogeneity]``.
        max_attempts: per-task retry budget before the job fails.
    """

    num_workers: int = 4
    seed: int = 0
    failure_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    speculative_execution: bool = True
    heterogeneity: float = 0.2
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")


@dataclass
class Task:
    """A schedulable unit: a nominal cost in work units."""

    task_id: str
    cost: float = 1.0


@dataclass
class TaskResult:
    """Outcome of one task after scheduling."""

    task_id: str
    worker: int
    attempts: int
    start_time: float
    end_time: float
    speculated: bool = False


@dataclass
class _Attempt:
    task: Task
    worker: int
    start: float
    end: float
    failed: bool
    straggled: bool


class TaskFailedError(Exception):
    """A task exhausted its retry budget."""


def _records(value: Any) -> int:
    """Map output records in one item's result: a list is that many (an
    extraction's rows), anything else one."""
    return len(value) if isinstance(value, list) else 1


class SimulatedCluster(ExecutionBackend):
    """Greedy list scheduler over simulated heterogeneous workers, and an
    execution backend whose real work runs on ``backend``.

    Args:
        config: cluster shape (default :class:`ClusterConfig`).
        backend: inner backend running the payloads for real (default: a
            serial backend of one attempt per item — failures are what
            the simulation models).  Closed with the cluster.
    """

    def __init__(self, config: ClusterConfig | None = None,
                 backend: ExecutionBackend | None = None) -> None:
        self.config = config = config or ClusterConfig()
        self.backend = backend if backend is not None \
            else SerialBackend(RetryPolicy(max_attempts=1))
        self.name = f"cluster+{self.backend.name}"
        self.max_workers = self.backend.max_workers
        rng = random.Random(config.seed)
        spread = config.heterogeneity
        self._speeds = [
            1.0 + rng.uniform(-spread, spread) for _ in range(config.num_workers)
        ]
        self._rng = rng
        self.attempts_log: list[_Attempt] = []

    def map_stream(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
                   chunk_size: int | None = None,
                   on_item_failure: OnItemFailure | None = None,
                   ) -> Iterator[Any]:
        """Run ``fn`` over ``items`` as one Map-Reduce job; results in
        input order.

        The inner backend computes every result; the simulation then
        schedules a map wave of ``len(items) // (num_workers * 4)``-item
        splits, each costing ``fn.unit_cost(items)`` work units per item
        (1 when ``fn`` does not price its items), and an identity reduce
        of one task costing :data:`REDUCE_COST_PER_RECORD` per record.
        """
        items = list(items)
        tracer = tracing.get_tracer()
        with tracer.span("mapreduce.job", items=len(items), num_reducers=1,
                         backend=self.backend.name) as span:
            values = self.backend.map(fn, items, chunk_size=chunk_size,
                                      on_item_failure=on_item_failure)
            makespan = 0.0
            if items:
                price = getattr(fn, "unit_cost", None)
                unit = price(items) if price is not None else 1.0
                size = max(len(items) // (self.config.num_workers * 4), 1)
                makespan = self.wave("map", [max(len(split) * unit, 1e-9)
                                             for split in _chunk(items, size)])
                records = sum(_records(v) for v in values)
                registry = metrics.get_registry()
                registry.inc("mapreduce.shuffle.records", records)
                if tracing.enabled():
                    registry.inc("mapreduce.shuffle.bytes",
                                 sum(len(repr(v)) for v in values))
                makespan += self.wave("reduce", [
                    max(records * REDUCE_COST_PER_RECORD, 1e-9)]
                    if records else [])
                registry.inc("cluster.makespan", makespan)
            span.set_attribute("simulated_makespan", makespan)
        yield from values

    def close(self) -> None:
        self.backend.close()

    def wave(self, name: str, costs: Sequence[float]) -> float:
        """Schedule one wave — a task per cost, in order — and return its
        makespan; records ``mapreduce.tasks.<name>`` and a
        ``mapreduce.wave.<name>`` span (per-task children while
        tracing)."""
        tracer = tracing.get_tracer()
        with tracer.span(f"mapreduce.wave.{name}", tasks=len(costs)) as span:
            results, makespan = self.schedule([
                Task(f"{name}-{i}", cost) for i, cost in enumerate(costs)])
            span.set_attribute("simulated_makespan", makespan)
            if tracing.enabled():
                for result in results:
                    with tracer.span(
                        f"mapreduce.task.{name}",
                        task_id=result.task_id,
                        worker=result.worker,
                        attempts=result.attempts,
                        simulated_start=result.start_time,
                        simulated_end=result.end_time,
                        speculated=result.speculated,
                    ):
                        pass
        metrics.get_registry().inc(f"mapreduce.tasks.{name}", len(costs))
        return makespan

    def schedule(self, tasks: list[Task]) -> tuple[list[TaskResult], float]:
        """Schedule all tasks, in order; returns (results, simulated
        makespan).  Nothing executes here.

        Raises:
            TaskFailedError: a task failed ``max_attempts`` times.
        """
        free_at = [0.0] * self.config.num_workers
        results: list[TaskResult] = []
        for task in tasks:
            result = self._run_one(task, free_at)
            results.append(result)
        makespan = max(free_at) if free_at else 0.0
        return results, makespan

    # ------------------------------------------------------------ internals

    def _run_one(self, task: Task, free_at: list[float]) -> TaskResult:
        attempts = 0
        while attempts < self.config.max_attempts:
            worker = min(range(len(free_at)), key=lambda w: free_at[w])
            start = free_at[worker]
            attempts += 1
            failed = self._rng.random() < self.config.failure_prob
            straggled = (not failed) and self._rng.random() < self.config.straggler_prob
            duration = task.cost / self._speeds[worker]
            if straggled:
                duration *= self.config.straggler_factor
            if failed:
                # A failed attempt wastes half its nominal duration on average.
                waste = duration * self._rng.uniform(0.1, 0.9)
                free_at[worker] = start + waste
                self.attempts_log.append(
                    _Attempt(task, worker, start, start + waste, True, False)
                )
                continue
            end = start + duration
            self.attempts_log.append(_Attempt(task, worker, start, end, False, straggled))
            speculated = False
            if straggled and self.config.speculative_execution and len(free_at) > 1:
                # Launch a backup on the next-free other worker; earlier
                # finisher wins.
                others = [w for w in range(len(free_at)) if w != worker]
                backup = min(others, key=lambda w: free_at[w])
                backup_start = free_at[backup]
                backup_end = backup_start + task.cost / self._speeds[backup]
                self.attempts_log.append(
                    _Attempt(task, backup, backup_start, backup_end, False, False)
                )
                if backup_end < end:
                    free_at[backup] = backup_end
                    free_at[worker] = start  # original attempt killed
                    return TaskResult(task.task_id, backup, attempts + 1,
                                      backup_start, backup_end, speculated=True)
                free_at[backup] = backup_start  # backup killed
                speculated = True
            free_at[worker] = end
            return TaskResult(task.task_id, worker, attempts,
                              start, end, speculated=speculated)
        raise TaskFailedError(
            f"task {task.task_id} failed {self.config.max_attempts} attempts"
        )

    def worker_speeds(self) -> list[float]:
        """The drawn speed factors (test introspection)."""
        return list(self._speeds)
