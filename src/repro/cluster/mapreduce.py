"""Map-Reduce over the simulated cluster.

A job is defined by a map function ``(item) -> [(key, value), ...]``, an
optional combiner, and a reduce function ``(key, [values]) -> result``.
Input items are split into map tasks of ``split_size`` items; map outputs
are shuffled by ``hash(key) % num_reducers`` into reduce partitions; reduce
tasks then run per partition.  Both waves are one
:meth:`~repro.cluster.simulator.SimulatedCluster.wave` each, and the job's
simulated makespan is map-makespan + reduce-makespan.

The *real* work of each wave (running map/combine/reduce payloads) runs
on the cluster's inner backend first — threads or processes for actual
wall-clock parallelism — and the simulator then schedules the wave's
tasks.  The simulated makespan is byte-identical whatever the inner
backend (the cost model sees the same tasks in the same order); the
backend only changes how fast the wave really runs, reported as
``real_seconds``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.cluster.backends import _chunk
from repro.cluster.simulator import (REDUCE_COST_PER_RECORD, ClusterConfig,
                                     SimulatedCluster)
from repro.telemetry import metrics, tracing

MapFn = Callable[[Any], Iterable[tuple[Hashable, Any]]]
ReduceFn = Callable[[Hashable, list[Any]], Any]
CombineFn = Callable[[Hashable, list[Any]], list[Any]]


@dataclass
class MapReduceJob:
    """Job description.

    Attributes:
        map_fn: item → iterable of (key, value).
        reduce_fn: (key, values) → reduced value.
        combine_fn: optional map-side pre-aggregation, (key, values) →
            smaller value list; cuts shuffle volume.
        split_size: input items per map task.
        num_reducers: reduce partitions.
        map_cost_per_item: simulated work units per input item (models the
            paper's "IE is computation intensive" premise).
        reduce_cost_per_value: simulated work units per shuffled value.
    """

    map_fn: MapFn
    reduce_fn: ReduceFn
    combine_fn: CombineFn | None = None
    split_size: int = 100
    num_reducers: int = 4
    map_cost_per_item: float = 1.0
    reduce_cost_per_value: float = REDUCE_COST_PER_RECORD


@dataclass
class MapReduceResult:
    """Job outcome.

    Attributes:
        output: key → reduced value.
        map_makespan: simulated time of the map wave.
        reduce_makespan: simulated time of the reduce wave.
        shuffle_records: number of (key, value) pairs shuffled.
        backend_name: the inner backend that ran the real work.
        real_seconds: wall-clock seconds it spent executing wave payloads.
        map_tasks: map tasks in the map wave.
        reduce_tasks: reduce tasks in the reduce wave (empty partitions
            are not scheduled).
        makespan: total simulated job time.
    """

    output: dict[Hashable, Any]
    map_makespan: float
    reduce_makespan: float
    shuffle_records: int
    backend_name: str
    real_seconds: float
    map_tasks: int
    reduce_tasks: int
    makespan: float = field(init=False)

    def __post_init__(self) -> None:
        self.makespan = self.map_makespan + self.reduce_makespan


def _stable_hash(key: Hashable) -> int:
    """Process-independent hash (Python's str hash is salted per process)."""
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass(frozen=True)
class _MapSplitPayload:
    """Real work of one map task: map every item, then combine.

    A module-level dataclass (not a closure) so process backends can
    pickle it — provided ``map_fn``/``combine_fn`` are themselves
    picklable.
    """

    map_fn: MapFn
    combine_fn: CombineFn | None

    def __call__(self, split: Sequence[Any]) -> list[tuple[Hashable, Any]]:
        pairs: list[tuple[Hashable, Any]] = []
        for item in split:
            pairs.extend(self.map_fn(item))
        if self.combine_fn is not None:
            grouped: dict[Hashable, list[Any]] = {}
            for key, value in pairs:
                grouped.setdefault(key, []).append(value)
            pairs = [
                (key, value)
                for key, values in grouped.items()
                for value in self.combine_fn(key, values)
            ]
        return pairs


@dataclass(frozen=True)
class _ReducePartitionPayload:
    """Real work of one reduce task (picklable, see _MapSplitPayload)."""

    reduce_fn: ReduceFn

    def __call__(self, partition: dict[Hashable, list[Any]]) -> dict[Hashable, Any]:
        return {
            key: self.reduce_fn(key, values)
            for key, values in partition.items()
        }


def _approx_record_bytes(key: Hashable, value: Any) -> int:
    """Cheap size proxy for one shuffled (key, value) record."""
    return len(repr(key)) + len(repr(value))


def run_mapreduce(job: MapReduceJob, items: Sequence[Any],
                  cluster: SimulatedCluster | None = None,
                  config: ClusterConfig | None = None) -> MapReduceResult:
    """Run a Map-Reduce job over ``items``.

    Provide either an existing ``cluster`` or a ``config`` (defaults to a
    4-worker cluster).  Each wave's payloads run for real on the cluster's
    inner backend, then :meth:`SimulatedCluster.wave` schedules the wave's
    tasks — so simulated makespans do not depend on the inner backend.

    Emits a ``mapreduce.job`` span with per-wave and per-task children,
    plus ``mapreduce.*`` metrics (task counts, shuffle records; shuffle
    bytes only while tracing is enabled — sizing every record costs real
    time).

    Raises:
        repro.cluster.simulator.TaskFailedError: a task exhausted retries.
        repro.cluster.backends.BackendError: a payload failed on the inner
            backend (a process backend also refuses unpicklable
            map/combine/reduce functions).
    """
    if cluster is None:
        cluster = SimulatedCluster(config)
    backend = cluster.backend
    registry = metrics.get_registry()
    real_seconds = 0.0

    def wave(name: str, payload: Callable[[Any], Any],
             inputs: list[Any], costs: list[float]) -> tuple[list[Any], float]:
        nonlocal real_seconds
        started = time.perf_counter()
        outputs = backend.map(payload, inputs, chunk_size=1)
        real_seconds += time.perf_counter() - started
        return outputs, cluster.wave(name, costs)

    with tracing.get_tracer().span(
        "mapreduce.job",
        items=len(items),
        split_size=job.split_size,
        num_reducers=job.num_reducers,
        backend=backend.name,
    ) as job_span:
        splits = _chunk(items, job.split_size)
        map_outputs, map_makespan = wave(
            "map", _MapSplitPayload(job.map_fn, job.combine_fn), splits,
            [max(len(split) * job.map_cost_per_item, 1e-9)
             for split in splits])

        # Shuffle: partition by hash(key) % num_reducers.
        partitions: list[dict[Hashable, list[Any]]] = [
            {} for _ in range(job.num_reducers)
        ]
        shuffle_records = 0
        shuffle_bytes = 0
        size_records = tracing.enabled()
        for pairs in map_outputs:
            for key, value in pairs:
                shuffle_records += 1
                if size_records:
                    shuffle_bytes += _approx_record_bytes(key, value)
                bucket = partitions[_stable_hash(key) % job.num_reducers]
                bucket.setdefault(key, []).append(value)
        registry.inc("mapreduce.shuffle.records", shuffle_records)
        if size_records:
            registry.inc("mapreduce.shuffle.bytes", shuffle_bytes)

        live_partitions = [p for p in partitions if p]
        reduce_outputs, reduce_makespan = wave(
            "reduce", _ReducePartitionPayload(job.reduce_fn), live_partitions,
            [max(sum(len(v) for v in partition.values())
                 * job.reduce_cost_per_value, 1e-9)
             for partition in live_partitions])

        output: dict[Hashable, Any] = {}
        for reduced in reduce_outputs:
            output.update(reduced)
        job_span.set_attribute("shuffle_records", shuffle_records)
        job_span.set_attribute("simulated_makespan",
                               map_makespan + reduce_makespan)
        return MapReduceResult(
            output=output,
            map_makespan=map_makespan,
            reduce_makespan=reduce_makespan,
            shuffle_records=shuffle_records,
            backend_name=backend.name,
            real_seconds=real_seconds,
            map_tasks=len(splits),
            reduce_tasks=len(live_partitions),
        )
