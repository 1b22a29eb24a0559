"""Map-Reduce over the simulated cluster.

A job is defined by a map function ``(item) -> [(key, value), ...]``, an
optional combiner, and a reduce function ``(key, [values]) -> result``.
Input items are split into map tasks of ``split_size`` items; map outputs
are shuffled by ``hash(key) % num_reducers`` into reduce partitions; reduce
tasks then run per partition.  Both waves are scheduled on the
:class:`~repro.cluster.simulator.SimulatedCluster`, and the job's simulated
makespan is map-makespan + shuffle cost + reduce-makespan.

When an :class:`~repro.cluster.backends.ExecutionBackend` is supplied, the
*real* work of each wave (running map/combine/reduce payloads) fans out on
that backend first — threads or processes for actual wall-clock
parallelism — and the simulator then schedules the same tasks against
precomputed results.  The simulated makespan is byte-identical with and
without a backend (the cost model sees the same tasks in the same order);
the backend only changes how fast the wave really runs, reported as
``real_seconds``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.cluster.backends import ExecutionBackend, _chunk
from repro.cluster.simulator import ClusterConfig, SimulatedCluster, Task, TaskResult
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
    reduce_cost_per_value: float = 0.1


@dataclass
class MapReduceResult:
    """Job outcome.

    Attributes:
        output: key → reduced value.
        map_makespan: simulated time of the map wave.
        reduce_makespan: simulated time of the reduce wave.
        shuffle_records: number of (key, value) pairs shuffled.
        backend_name: which execution backend ran the real work
            (``inline`` when no backend was supplied).
        real_seconds: wall-clock seconds the backend spent executing wave
            payloads (0.0 inline — payloads run inside the simulator).
        map_tasks: map tasks in the map wave.
        reduce_tasks: reduce tasks in the reduce wave (empty partitions
            are not scheduled).
        makespan: total simulated job time.
    """

    output: dict[Hashable, Any]
    map_makespan: float
    reduce_makespan: float
    shuffle_records: int
    backend_name: str = "inline"
    real_seconds: float = 0.0
    map_tasks: int = 0
    reduce_tasks: int = 0
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


def _emit_task_spans(tracer: Any, wave: str,
                     results: list[TaskResult]) -> None:
    """Per-task child spans carrying the simulator's scheduling outcome.

    Real durations of individual simulated tasks are not observable (the
    wave runs them inside ``cluster.run``), so the span's value is its
    attributes: assigned worker, attempts, simulated start/end.
    """
    for result in results:
        with tracer.span(
            f"mapreduce.task.{wave}",
            task_id=result.task_id,
            worker=result.worker,
            attempts=result.attempts,
            simulated_start=result.start_time,
            simulated_end=result.end_time,
            speculated=result.speculated,
        ):
            pass


def _approx_record_bytes(key: Hashable, value: Any) -> int:
    """Cheap size proxy for one shuffled (key, value) record."""
    return len(repr(key)) + len(repr(value))


def run_mapreduce(job: MapReduceJob, items: Sequence[Any],
                  cluster: SimulatedCluster | None = None,
                  config: ClusterConfig | None = None,
                  backend: ExecutionBackend | None = None) -> MapReduceResult:
    """Run a Map-Reduce job over ``items``.

    Provide either an existing ``cluster`` or a ``config`` (defaults to a
    4-worker cluster).  With a ``backend``, wave payloads execute on it for
    real wall-clock parallelism before the simulator schedules the (now
    precomputed) tasks — simulated makespans are unaffected.

    Emits a ``mapreduce.job`` span with per-wave and per-task children,
    plus ``mapreduce.*`` metrics (task counts, shuffle records; shuffle
    bytes only while tracing is enabled — sizing every record costs real
    time).

    Raises:
        repro.cluster.simulator.TaskFailedError: a task exhausted retries.
        repro.cluster.backends.BackendError: a process backend was given
            unpicklable map/combine/reduce functions.
    """
    if cluster is None:
        cluster = SimulatedCluster(config or ClusterConfig())

    tracer = tracing.get_tracer()
    registry = metrics.get_registry()
    with tracer.span(
        "mapreduce.job",
        items=len(items),
        split_size=job.split_size,
        num_reducers=job.num_reducers,
        backend=backend.name if backend is not None else "inline",
    ) as job_span:
        splits = _chunk(items, job.split_size)
        real_seconds = 0.0

        map_payload = _MapSplitPayload(job.map_fn, job.combine_fn)
        with tracer.span("mapreduce.wave.map", tasks=len(splits)) as map_span:
            map_outputs: list[list[tuple[Hashable, Any]]] | None = None
            if backend is not None:
                started = time.perf_counter()
                map_outputs = backend.map(map_payload, splits, chunk_size=1)
                real_seconds += time.perf_counter() - started

            def make_map_task(index: int, split: Sequence[Any]) -> Task:
                if map_outputs is not None:
                    precomputed = map_outputs[index]
                    run: Callable[[], list[tuple[Hashable, Any]]] = (
                        lambda: precomputed
                    )
                else:
                    run = lambda: map_payload(split)
                return Task(task_id=f"map-{index}", fn=run,
                            cost=max(len(split) * job.map_cost_per_item, 1e-9))

            map_tasks = [make_map_task(i, s) for i, s in enumerate(splits)]
            map_results, map_makespan = cluster.run(map_tasks)
            map_span.set_attribute("simulated_makespan", map_makespan)
            if tracing.enabled():
                _emit_task_spans(tracer, "map", map_results)
        registry.inc("mapreduce.tasks.map", len(map_tasks))

        # Shuffle: partition by hash(key) % num_reducers.
        partitions: list[dict[Hashable, list[Any]]] = [
            {} for _ in range(job.num_reducers)
        ]
        shuffle_records = 0
        shuffle_bytes = 0
        size_records = tracing.enabled()
        for result in map_results:
            for key, value in result.value:
                shuffle_records += 1
                if size_records:
                    shuffle_bytes += _approx_record_bytes(key, value)
                bucket = partitions[_stable_hash(key) % job.num_reducers]
                bucket.setdefault(key, []).append(value)
        registry.inc("mapreduce.shuffle.records", shuffle_records)
        if size_records:
            registry.inc("mapreduce.shuffle.bytes", shuffle_bytes)

        live_partitions = [p for p in partitions if p]
        reduce_payload = _ReducePartitionPayload(job.reduce_fn)
        with tracer.span("mapreduce.wave.reduce",
                         tasks=len(live_partitions)) as reduce_span:
            reduce_outputs: list[dict[Hashable, Any]] | None = None
            if backend is not None:
                started = time.perf_counter()
                reduce_outputs = backend.map(reduce_payload,
                                             live_partitions, chunk_size=1)
                real_seconds += time.perf_counter() - started

            def make_reduce_task(index: int,
                                 partition: dict[Hashable, list[Any]]) -> Task:
                if reduce_outputs is not None:
                    precomputed = reduce_outputs[index]
                    run: Callable[[], dict[Hashable, Any]] = lambda: precomputed
                else:
                    run = lambda: reduce_payload(partition)
                n_values = sum(len(v) for v in partition.values())
                return Task(task_id=f"reduce-{index}", fn=run,
                            cost=max(n_values * job.reduce_cost_per_value, 1e-9))

            reduce_tasks = [
                make_reduce_task(i, p) for i, p in enumerate(live_partitions)
            ]
            reduce_results, reduce_makespan = cluster.run(reduce_tasks)
            reduce_span.set_attribute("simulated_makespan", reduce_makespan)
            if tracing.enabled():
                _emit_task_spans(tracer, "reduce", reduce_results)
        registry.inc("mapreduce.tasks.reduce", len(reduce_tasks))

        output: dict[Hashable, Any] = {}
        for result in reduce_results:
            output.update(result.value)
        job_span.set_attribute("shuffle_records", shuffle_records)
        job_span.set_attribute("simulated_makespan",
                               map_makespan + reduce_makespan)
        return MapReduceResult(
            output=output,
            map_makespan=map_makespan,
            reduce_makespan=reduce_makespan,
            shuffle_records=shuffle_records,
            backend_name=backend.name if backend is not None else "inline",
            real_seconds=real_seconds,
            map_tasks=len(map_tasks),
            reduce_tasks=len(reduce_tasks),
        )
