"""Real parallel execution backends for the processing layer.

The simulated cluster models *time and failure* (E7's makespans); backends
model *wall-clock* parallelism: they actually execute task payloads, either
inline, on a thread pool, or on a process pool.  The paper's premise — "IE
is computation intensive ... we need parallel processing in the physical
layer" — is therefore realized twice: the simulator answers "how would this
scale on a cluster?", a backend answers "how fast does it run on this
machine right now?".

All backends preserve input order: ``backend.map(fn, items)`` returns
``[fn(items[0]), fn(items[1]), ...]`` regardless of which worker finished
first, so serial, thread, and process execution produce byte-identical
output streams (the determinism contract documented in DESIGN.md).

The process backend requires picklable callables and items.  Plan-level
callables in :mod:`repro.lang.executor` are module-level dataclasses for
exactly this reason; ad-hoc lambdas raise :class:`BackendError` with a
hint instead of a bare ``PicklingError``.

Telemetry: pool backends run every chunk under a fresh worker-local
:class:`~repro.telemetry.metrics.MetricsRegistry` and merge its snapshot
back into the caller's ambient registry, so metrics recorded inside
payloads (``extraction.docs`` etc.) aggregate to identical totals on
serial, thread, and process backends — counters are commutative, and
snapshots are merged in submission order.  A failed chunk attempt never
returns its snapshot, so retried work is counted exactly once: by the
attempt whose results are actually used.

Fault tolerance: every backend runs under a
:class:`~repro.faults.retry.RetryPolicy`.  Failed chunks are retried for
up to ``max_attempts`` rounds (with deterministic backoff between
rounds); a dead process pool (``BrokenProcessPool`` after a worker
called ``os._exit`` or segfaulted) is rebuilt and the unfinished chunks
resubmitted.  Chunks that still fail are *isolated* — re-run one item at
a time so a single poison payload cannot take its chunk-mates down with
it.  A persistently failing item is routed to the caller's
``on_item_failure(item, exc)`` callback (the executor uses this to emit
quarantine markers) or, absent a callback, raises :class:`BackendError`.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from repro.faults.retry import DEFAULT_RETRY, RetryPolicy
from repro.telemetry import metrics


class BackendError(RuntimeError):
    """A backend could not be built or could not run a payload."""


@runtime_checkable
class ExecutionBackend(Protocol):
    """Uniform map-style execution surface.

    Attributes:
        name: short identifier reported in stats (``serial`` / ``thread``
            / ``process``).
        max_workers: degree of real parallelism (1 for serial).
    """

    name: str
    max_workers: int

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            chunk_size: int | None = None,
            on_item_failure: Callable[[Any, BaseException], Any] | None = None,
            ) -> list[Any]:
        """Apply ``fn`` to every item; results in input order.

        ``on_item_failure(item, exc)``, when given, supplies a substitute
        result for an item that still fails after the backend's retry
        budget; without it such an item raises :class:`BackendError`.
        """
        ...

    def close(self) -> None:
        """Release pool resources (idempotent)."""
        ...


def _chunk(items: Sequence[Any], size: int) -> list[Sequence[Any]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _apply_chunk_metered(
    fn: Callable[[Any], Any], chunk: Sequence[Any],
) -> tuple[list[Any], dict[str, Any]]:
    """Worker-side loop that captures payload metrics.

    Runs the chunk under a fresh worker-local registry (installed as this
    worker thread/process's ambient registry) and returns its snapshot
    alongside the results, for the caller to merge.
    """
    registry = metrics.MetricsRegistry()
    metrics.push_registry(registry)
    try:
        out = [fn(item) for item in chunk]
    finally:
        metrics.pop_registry()
    return out, registry.snapshot()


class SerialBackend:
    """Default backend: runs everything inline, fully deterministic."""

    name = "serial"
    max_workers = 1

    def __init__(self, retry: RetryPolicy | None = None) -> None:
        self.retry = retry if retry is not None else DEFAULT_RETRY

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            chunk_size: int | None = None,
            on_item_failure: Callable[[Any, BaseException], Any] | None = None,
            ) -> list[Any]:
        out: list[Any] = []
        for index, item in enumerate(items):
            try:
                out.append(self.retry.run(lambda it=item: fn(it),
                                          salt=f"serial:{index}"))
            except Exception as exc:
                if on_item_failure is None:
                    raise BackendError(
                        f"task failed after {self.retry.max_attempts} "
                        f"attempt(s): {exc}"
                    ) from exc
                out.append(on_item_failure(item, exc))
        return out

    def map_stream(self, fn: Callable[[Any], Any], items: Sequence[Any],
                   window: int | None = None,
                   ) -> "Iterator[Any]":
        """Lazy :meth:`map`: items run only as results are consumed.

        The serial backend is fully demand-driven — an abandoned iterator
        (e.g. a LIMIT that stopped early) never executes the remaining
        items.  ``window`` is accepted for interface parity.
        """
        def gen() -> "Iterator[Any]":
            for index, item in enumerate(items):
                try:
                    yield self.retry.run(lambda it=item: fn(it),
                                         salt=f"serial:{index}")
                except Exception as exc:
                    raise BackendError(
                        f"task failed after {self.retry.max_attempts} "
                        f"attempt(s): {exc}"
                    ) from exc
        return gen()

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _PoolBackend:
    """Shared chunked-submission logic for thread/process pools.

    Tasks are submitted as chunks (``max(len(items) // (workers * 4), 1)``
    items each by default) so per-task overhead — especially pickling for
    process pools — amortizes over many items, and results are reassembled
    in submission order.
    """

    name = "pool"

    def __init__(self, max_workers: int | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        if self.max_workers < 1:
            raise BackendError("max_workers must be >= 1")
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._pool: _FuturesExecutor | None = None

    # ------------------------------------------------------------------ API

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            chunk_size: int | None = None,
            on_item_failure: Callable[[Any, BaseException], Any] | None = None,
            ) -> list[Any]:
        items = list(items)
        if not items:
            return []
        self._check_payload(fn, items[0])
        if chunk_size is None:
            chunk_size = max(len(items) // (self.max_workers * 4), 1)
        chunks = _chunk(items, chunk_size)
        parent_registry = metrics.get_registry()
        results: list[list[Any] | None] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        # Chunk-level retry rounds: resubmit failed chunks wholesale
        # (covers transient errors and dead pools) before falling back to
        # per-item isolation below.
        for round_no in range(1, self.retry.max_attempts + 1):
            pending = self._run_round(fn, chunks, results, pending,
                                      parent_registry)
            if not pending:
                break
            if round_no < self.retry.max_attempts:
                parent_registry.inc("tasks.retried", len(pending))
                time.sleep(self.retry.delay_for(round_no, salt=self.name))
        # Chunks that failed every round: isolate item-by-item so one
        # poison payload cannot sink its chunk-mates.
        for index in pending:
            results[index] = self._isolate_chunk(
                fn, chunks[index], on_item_failure, parent_registry
            )
        out: list[Any] = []
        for chunk_results in results:  # chunk order == input order
            out.extend(chunk_results or [])
        return out

    def map_stream(self, fn: Callable[[Any], Any], items: Sequence[Any],
                   window: int | None = None,
                   ) -> "Iterator[Any]":
        """Streaming :meth:`map` with a bounded submit-ahead window.

        At most ``window`` tasks (default ``2 * max_workers``) are in
        flight or buffered at once; results are yielded in input order as
        they are consumed, and abandoning the iterator (LIMIT early-exit)
        stops further submission.  One item per task — callers pass
        coarse chunk payloads.  Failed tasks fall back to the per-item
        retry/rebuild path; worker metric snapshots merge into the
        caller's registry in consumption order.
        """
        items = list(items)
        parent_registry = metrics.get_registry()

        def gen() -> "Iterator[Any]":
            if not items:
                return
            self._check_payload(fn, items[0])
            in_flight = max(window or 2 * self.max_workers, 1)
            pending: deque[tuple[int, Any]] = deque()
            indices = iter(range(len(items)))

            def submit_next() -> bool:
                try:
                    index = next(indices)
                except StopIteration:
                    return False
                try:
                    future = self._ensure_pool().submit(
                        _apply_chunk_metered, fn, [items[index]])
                except Exception:  # pool broken at submit time
                    future = None
                pending.append((index, future))
                return True

            for _ in range(in_flight):
                if not submit_next():
                    break
            while pending:
                index, future = pending.popleft()
                try:
                    if future is None:
                        raise BrokenExecutor("submit failed")
                    item_results, snapshot = future.result()
                    result = item_results[0]
                except Exception:
                    if future is None:
                        self._rebuild_pool()
                    try:
                        result, snapshot = self._run_single(fn, items[index])
                    except Exception as exc:
                        raise BackendError(
                            f"task failed after {self.retry.max_attempts} "
                            f"attempt(s) on backend {self.name!r}: {exc}"
                        ) from exc
                parent_registry.merge(snapshot)
                submit_next()
                yield result
        return gen()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "_PoolBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ internals

    def _run_round(self, fn: Callable[[Any], Any],
                   chunks: list[Sequence[Any]],
                   results: list[list[Any] | None],
                   pending: list[int],
                   parent_registry: metrics.MetricsRegistry) -> list[int]:
        """Run one submission round; returns indices of chunks that failed.

        A broken pool (worker death) fails every chunk that has not yet
        returned a result; the pool is rebuilt so the next round — or the
        isolation pass — runs on healthy workers.
        """
        pool = self._ensure_pool()
        futures = {}
        try:
            for index in pending:
                futures[index] = pool.submit(
                    _apply_chunk_metered, fn, chunks[index]
                )
        except Exception:  # pool broken/shut down at submit time
            self._rebuild_pool()
            return list(pending)
        failed: list[int] = []
        broken = False
        for index in pending:  # submission order == input order
            try:
                chunk_results, snapshot = futures[index].result()
            except BrokenExecutor:
                broken = True
                failed.append(index)
            except Exception:
                failed.append(index)
            else:
                results[index] = chunk_results
                parent_registry.merge(snapshot)
        if broken:
            self._rebuild_pool()
        return failed

    def _isolate_chunk(self, fn: Callable[[Any], Any],
                       chunk: Sequence[Any],
                       on_item_failure: Callable[[Any, BaseException], Any]
                       | None,
                       parent_registry: metrics.MetricsRegistry) -> list[Any]:
        """Re-run a persistently failing chunk one item at a time."""
        out: list[Any] = []
        for item in chunk:
            try:
                result, snapshot = self._run_single(fn, item)
            except Exception as exc:
                if on_item_failure is None:
                    raise BackendError(
                        f"task failed after {self.retry.max_attempts} "
                        f"attempt(s) on backend {self.name!r}: {exc}"
                    ) from exc
                out.append(on_item_failure(item, exc))
            else:
                out.append(result)
                parent_registry.merge(snapshot)
        return out

    def _run_single(self, fn: Callable[[Any], Any],
                    item: Any) -> tuple[Any, dict[str, Any]]:
        """One item, with its own retry budget and pool-rebuild handling."""
        last_exc: BaseException = BackendError("no attempt ran")
        for attempt in range(1, self.retry.max_attempts + 1):
            pool = self._ensure_pool()
            try:
                future = pool.submit(_apply_chunk_metered, fn, [item])
                item_results, snapshot = future.result()
                return item_results[0], snapshot
            except Exception as exc:
                last_exc = exc
                if isinstance(exc, BrokenExecutor):
                    self._rebuild_pool()
            if attempt < self.retry.max_attempts:
                metrics.get_registry().inc("tasks.retried")
                time.sleep(self.retry.delay_for(attempt, salt="isolate"))
        raise last_exc

    def _rebuild_pool(self) -> None:
        """Discard a (possibly broken) pool; next use builds a fresh one."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None
        metrics.get_registry().inc("backend.pool_rebuilds")

    def _ensure_pool(self) -> _FuturesExecutor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _make_pool(self) -> _FuturesExecutor:
        raise NotImplementedError

    def _check_payload(self, fn: Callable[[Any], Any], sample: Any) -> None:
        """Hook: process pools validate picklability up front."""


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
