"""Real parallel execution backends for the processing layer.

The simulated cluster models *time and failure* (E7's makespans); backends
model *wall-clock* parallelism: they actually execute task payloads, either
inline, on a thread pool, or on a process pool.  The paper's premise — "IE
is computation intensive ... we need parallel processing in the physical
layer" — is therefore realized twice: the simulator answers "how would this
scale on a cluster?", a backend answers "how fast does it run on this
machine right now?".  The simulator is itself a backend
(:class:`~repro.cluster.simulator.SimulatedCluster`) whose real work runs
on one of these.

Every backend runs work one way, :meth:`~_PoolBackend.map_stream`:
``backend.map_stream(fn, items)`` yields ``fn(items[0]), fn(items[1]),
...`` in input order regardless of which worker finished first, so serial,
thread, and process execution produce byte-identical output streams (the
determinism contract documented in DESIGN.md); ``backend.map`` is the
list of that stream.  The serial backend's "pool" runs a task in the
caller's thread when its result is consumed, so it is fully demand-driven.

The process backend requires picklable callables and items.  Plan-level
callables in :mod:`repro.lang.executor` are module-level dataclasses for
exactly this reason; ad-hoc lambdas raise :class:`BackendError` with a
hint instead of a bare ``PicklingError``.

Telemetry: every chunk runs under a fresh worker-local
:class:`~repro.telemetry.metrics.MetricsRegistry` whose snapshot is merged
back into the caller's ambient registry, so metrics recorded inside
payloads (``extraction.docs`` etc.) aggregate to identical totals on
serial, thread, and process backends — counters are commutative, and
snapshots are merged in submission order.  Every attempt that returns
merges what it recorded, a failed item's included; an attempt whose
worker died returns nothing and so records nothing.

Fault tolerance: every backend runs under a
:class:`~repro.faults.retry.RetryPolicy` of ``max_attempts`` N.  Items
are submitted in chunks under a bounded window; an item that raised in its
chunk — or every item of a chunk whose worker died — is *isolated*: re-run
alone, so one poison payload cannot take its chunk-mates down with it, for
the rest of its budget of N attempts (deterministic backoff between
attempts).  A dead process pool (``BrokenProcessPool`` after a worker
called ``os._exit`` or segfaulted) is rebuilt first.  A persistently
failing item is routed to the caller's ``on_item_failure(item, exc)``
callback (the extraction stage uses this to emit quarantine markers) or,
absent a callback, raises :class:`BackendError`.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from repro.faults.retry import DEFAULT_RETRY, RetryPolicy
from repro.telemetry import metrics

#: ``on_item_failure(item, exc)``: a substitute result for an item that
#: failed its whole retry budget.
OnItemFailure = Callable[[Any, BaseException], Any]


class BackendError(RuntimeError):
    """A backend could not be built or could not run a payload."""


@runtime_checkable
class ExecutionBackend(Protocol):
    """Uniform map-style execution surface, and the base every backend
    here subclasses: each defines :meth:`map_stream`, its one routine,
    and inherits the rest.

    Attributes:
        name: short identifier reported in stats (``serial`` / ``thread``
            / ``process`` / ``cluster+<inner>``).
        max_workers: degree of real parallelism (1 for serial).
    """

    name: str
    max_workers: int

    def map_stream(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
                   chunk_size: int | None = None,
                   on_item_failure: OnItemFailure | None = None,
                   ) -> Iterator[Any]:
        """Apply ``fn`` to every item; results lazily, in input order.

        ``on_item_failure(item, exc)``, when given, supplies a substitute
        result for an item that still fails after the backend's retry
        budget; without it such an item raises :class:`BackendError`.
        """
        raise NotImplementedError

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
            chunk_size: int | None = None,
            on_item_failure: OnItemFailure | None = None) -> list[Any]:
        """Apply ``fn`` to every item; results in input order."""
        return list(self.map_stream(fn, items, chunk_size=chunk_size,
                                    on_item_failure=on_item_failure))

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _chunk(items: Sequence[Any], size: int) -> list[Sequence[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


@dataclass(frozen=True)
class _Failed:
    """An item's outcome when ``fn`` raised (picklable, crosses pools)."""

    exc: BaseException


def _run_chunk(fn: Callable[[Any], Any],
               chunk: Sequence[Any]) -> tuple[list[Any], dict[str, Any]]:
    """Worker side: every item of a chunk, under a fresh worker-local
    registry installed as this worker's ambient one; returns one outcome
    per item (its result, or :class:`_Failed`) and the registry's
    snapshot, for the caller to merge."""
    registry = metrics.MetricsRegistry()
    metrics.push_registry(registry)
    try:
        out = []
        for item in chunk:
            try:
                out.append(fn(item))
            except Exception as exc:
                out.append(_Failed(exc))
    finally:
        metrics.pop_registry()
    return out, registry.snapshot()


class _Deferred:
    """A serial "future": the task runs when its result is asked for."""

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self._call = (fn, args)

    def result(self) -> Any:
        fn, args = self._call
        return fn(*args)


class _InlinePool:
    """The serial backend's pool: runs each task in the caller's thread,
    in the order results are consumed."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> _Deferred:
        return _Deferred(fn, args)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _PoolBackend(ExecutionBackend):
    """The one execution routine, over a pool of workers.

    Tasks are submitted as chunks (``max(len(items) // (workers * 4), 1)``
    items each by default) so per-task overhead — especially pickling for
    process pools — amortizes over many items; at most ``2 * max_workers``
    chunks are in flight, and results are yielded in submission order.
    """

    name = "pool"

    def __init__(self, max_workers: int | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        if self.max_workers < 1:
            raise BackendError("max_workers must be >= 1")
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._pool: Any = None

    def map_stream(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
                   chunk_size: int | None = None,
                   on_item_failure: OnItemFailure | None = None,
                   ) -> Iterator[Any]:
        """Apply ``fn`` to every item; results lazily, in input order.

        Abandoning the iterator (LIMIT early-exit) stops further
        submission.  Worker metric snapshots merge into the caller's
        registry in consumption order.
        """
        items = list(items)
        if items:
            self._check_payload(fn, items[0])
        size = chunk_size or max(len(items) // (self.max_workers * 4), 1)
        return self._stream(fn, _chunk(items, size), on_item_failure,
                            metrics.get_registry())

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------ internals

    def _stream(self, fn: Callable[[Any], Any], chunks: list[Sequence[Any]],
                on_item_failure: OnItemFailure | None,
                parent: metrics.MetricsRegistry) -> Iterator[Any]:
        pending: deque[tuple[Sequence[Any], Any, Any]] = deque()
        queued = iter(chunks)

        def submit_next() -> None:
            chunk = next(queued, None)
            if chunk is not None:
                pending.append((chunk, *self._submit(fn, chunk)))

        for _ in range(2 * self.max_workers):
            submit_next()
        while pending:
            chunk, future, pool = pending.popleft()
            outcomes = self._collect(future, pool, parent)
            if isinstance(outcomes, Exception):  # no item's fate is known
                outcomes = [_Failed(outcomes)] * len(chunk)
            submit_next()
            for item, outcome in zip(chunk, outcomes):
                if isinstance(outcome, _Failed):
                    outcome = self._isolate(fn, item, outcome.exc,
                                            on_item_failure, parent)
                yield outcome

    def _submit(self, fn: Callable[[Any], Any],
                chunk: Sequence[Any]) -> tuple[Any, Any]:
        """``(future, pool)``; the error instead of a future when the
        pool refused the task (broken or shut down)."""
        pool = self._ensure_pool()
        try:
            return pool.submit(_run_chunk, fn, chunk), pool
        except Exception as exc:
            return exc, pool

    def _collect(self, future: Any, pool: Any,
                 parent: metrics.MetricsRegistry) -> list[Any] | Exception:
        """A chunk's outcomes, its snapshot merged; the error when the
        chunk returned nothing (a dead worker, an unpicklable result).
        A pool that refused the task or lost a worker is rebuilt, unless
        an earlier failure already replaced it."""
        refused = isinstance(future, Exception)
        try:
            if refused:
                raise future
            outcomes, snapshot = future.result()
        except Exception as exc:
            if (refused or isinstance(exc, BrokenExecutor)) \
                    and pool is self._pool:
                self._rebuild_pool()
            return exc
        parent.merge(snapshot)
        return outcomes

    def _isolate(self, fn: Callable[[Any], Any], item: Any,
                 exc: BaseException, on_item_failure: OnItemFailure | None,
                 parent: metrics.MetricsRegistry) -> Any:
        """Re-run an item that failed in its chunk (attempt 1) alone, for
        the rest of its budget; then ``on_item_failure`` or raise."""
        for attempt in range(1, self.retry.max_attempts):
            parent.inc("tasks.retried")
            time.sleep(self.retry.delay_for(attempt, salt=self.name))
            future, pool = self._submit(fn, [item])
            outcomes = self._collect(future, pool, parent)
            if isinstance(outcomes, Exception):
                exc = outcomes
            elif isinstance(outcomes[0], _Failed):
                exc = outcomes[0].exc
            else:
                return outcomes[0]
        if on_item_failure is None:
            raise BackendError(
                f"task failed after {self.retry.max_attempts} attempt(s) "
                f"on backend {self.name!r}: {exc}") from exc
        return on_item_failure(item, exc)

    def _rebuild_pool(self) -> None:
        """Discard a (possibly broken) pool; next use builds a fresh one."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None
        metrics.get_registry().inc("backend.pool_rebuilds")

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _make_pool(self) -> Any:
        raise NotImplementedError

    def _check_payload(self, fn: Callable[[Any], Any], sample: Any) -> None:
        """Hook: process pools validate picklability up front."""


class SerialBackend(_PoolBackend):
    """Default backend: runs everything inline, fully deterministic."""

    name = "serial"

    def __init__(self, retry: RetryPolicy | None = None) -> None:
        super().__init__(1, retry)

    def _make_pool(self) -> _InlinePool:
        return _InlinePool()


class ThreadPoolBackend(_PoolBackend):
    """Thread-pool execution.

    Effective when the per-item work releases the GIL (I/O, C extensions,
    ``time.sleep``-style waits); pure-Python CPU work serializes on the GIL
    but still overlaps any I/O component.
    """

    name = "thread"

    def _make_pool(self) -> _FuturesExecutor:
        return ThreadPoolExecutor(max_workers=self.max_workers,
                                  thread_name_prefix="repro-backend")


class ProcessPoolBackend(_PoolBackend):
    """Process-pool execution: true multi-core fan-out.

    Payloads (callable + items) cross a process boundary, so both must be
    picklable — module-level functions or dataclass callables holding
    picklable state (all shipped extractors qualify).
    """

    name = "process"

    def _make_pool(self) -> _FuturesExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _check_payload(self, fn: Callable[[Any], Any], sample: Any) -> None:
        try:
            pickle.dumps(fn)
            pickle.dumps(sample)
        except Exception as exc:  # PicklingError, TypeError, AttributeError…
            raise BackendError(
                f"process backend needs picklable payloads; "
                f"{fn!r} / sample item failed to pickle ({exc}). "
                f"Use a module-level function or a picklable callable "
                f"object, or switch to backend='thread'."
            ) from exc


_BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {
    "serial": lambda max_workers=None, retry=None: SerialBackend(retry=retry),
    "thread": ThreadPoolBackend,
    "threads": ThreadPoolBackend,
    "process": ProcessPoolBackend,
    "processes": ProcessPoolBackend,
}


def make_backend(spec: "str | ExecutionBackend | None",
                 max_workers: int | None = None,
                 retry: RetryPolicy | None = None) -> ExecutionBackend | None:
    """Resolve a backend spec.

    Args:
        spec: ``None`` (no backend — inline execution), an
            :class:`ExecutionBackend` instance (returned as-is), or one of
            ``"serial"``, ``"thread"``, ``"process"``.
        max_workers: pool size for thread/process backends.
        retry: task retry policy; defaults to
            :data:`~repro.faults.retry.DEFAULT_RETRY`.

    Raises:
        BackendError: unknown spec string.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        factory = _BACKENDS.get(spec.lower())
        if factory is None:
            raise BackendError(
                f"unknown backend {spec!r}; expected one of "
                f"{sorted(set(_BACKENDS))}"
            )
        return factory(max_workers=max_workers, retry=retry)
    if isinstance(spec, ExecutionBackend):
        return spec
    raise BackendError(f"cannot build a backend from {spec!r}")
