"""Metrics: counters, gauges, and fixed-bucket histograms with merging.

A :class:`MetricsRegistry` is a flat map from dotted metric names to
values.  Names follow ``<layer>.<component>.<detail>`` (see DESIGN.md §8):
``rdbms.wal.records``, ``executor.rows.<op>``, ``mapreduce.shuffle.bytes``.

Three aggregation rules keep the registry mergeable across threads and
processes:

* **counters** add (commutative, so merge order never matters),
* **gauges** take the last written value,
* **histograms** have bucket boundaries fixed at first observation and add
  per-bucket counts element-wise.

All mutation happens under one lock (thread-safe); cross-process
aggregation goes through :meth:`MetricsRegistry.snapshot` — a plain
JSON-able dict that pickles cheaply — and :meth:`MetricsRegistry.merge`.
The execution backends (:mod:`repro.cluster.backends`) run every chunk of
work under a fresh worker-local registry and merge the snapshot back into
the caller's registry, so totals are identical across serial, thread, and
process execution.

The *ambient* registry is resolved per thread: instrumented code calls
:func:`get_registry`, which returns the innermost :func:`use_registry`
override for this thread, falling back to one process-wide default.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

# Latency-style buckets (seconds).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
# Size-style buckets (rows, bytes, ...).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000,
)


class _Histogram:
    """Fixed-boundary bucket counts plus sum/count/min/max."""

    __slots__ = ("buckets", "counts", "sum", "count", "min", "max")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = overflow
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    def merge_dict(self, data: dict[str, Any]) -> None:
        if tuple(data["buckets"]) != self.buckets:
            raise ValueError(
                f"cannot merge histograms with different bucket boundaries: "
                f"{tuple(data['buckets'])} vs {self.buckets}"
            )
        for i, n in enumerate(data["counts"]):
            self.counts[i] += n
        self.sum += data["sum"]
        self.count += data["count"]
        for bound_key, pick in (("min", min), ("max", max)):
            other = data.get(bound_key)
            if other is None:
                continue
            ours = getattr(self, bound_key)
            setattr(self, bound_key, other if ours is None else pick(ours, other))


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------- recording

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins on merge)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] | None = None) -> None:
        """Record ``value`` into histogram ``name``.

        Bucket boundaries are fixed by the first observation (``buckets``
        or :data:`DEFAULT_TIME_BUCKETS`); later ``buckets`` arguments are
        ignored.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = _Histogram(buckets or DEFAULT_TIME_BUCKETS)
                self._histograms[name] = histogram
            histogram.observe(value)

    # --------------------------------------------------------------- reading

    def get(self, name: str) -> float:
        """Counter value (0.0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def labeled(self, prefix: str) -> Counter:
        """Counters under ``prefix.`` keyed by the remainder of the name.

        ``labeled("executor.rows")`` returns ``Counter({"b": 12, ...})``
        for counters ``executor.rows.b`` etc.  Missing keys read as 0 —
        Counter semantics, which is what accumulation sites rely on.
        """
        cut = len(prefix) + 1
        with self._lock:
            return Counter({
                name[cut:]: value
                for name, value in self._counters.items()
                if name.startswith(prefix + ".")
            })

    def histogram(self, name: str) -> dict[str, Any] | None:
        """Histogram state as a dict, or None if never observed."""
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.to_dict() if histogram is not None else None

    # ------------------------------------------------------------ aggregation

    def snapshot(self) -> dict[str, Any]:
        """JSON-able (and picklable) copy of the full registry state."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.to_dict() for name, h in self._histograms.items()
                },
            }

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> None:
        """Fold another registry (or a snapshot of one) into this one.

        Counters add, gauges take the incoming value, histograms add
        bucket counts (boundaries must match).

        Raises:
            ValueError: histogram bucket boundaries differ.
        """
        data = other.snapshot() if isinstance(other, MetricsRegistry) else other
        with self._lock:
            for name, value in data.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            self._gauges.update(data.get("gauges", {}))
            for name, hdata in data.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = _Histogram(hdata["buckets"])
                    self._histograms[name] = histogram
                histogram.merge_dict(hdata)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ---------------------------------------------------------------- export

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the current registry state."""
        from repro.telemetry.report import render_prometheus

        return render_prometheus(self.snapshot())


# --------------------------------------------------------- ambient registry

_GLOBAL = MetricsRegistry()
_ambient = threading.local()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL


def get_registry() -> MetricsRegistry:
    """The registry instrumented code should write to *right now*.

    The innermost :func:`use_registry` override installed on this thread,
    else the process-wide default.
    """
    stack = getattr(_ambient, "stack", None)
    return stack[-1] if stack else _GLOBAL


def push_registry(registry: MetricsRegistry) -> None:
    """Install ``registry`` as this thread's ambient registry.

    Prefer :func:`use_registry`; the explicit push/pop pair exists for
    worker-side code (see ``repro.cluster.backends``) where the push and
    pop straddle a function boundary.
    """
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    stack.append(registry)


def pop_registry() -> MetricsRegistry:
    """Undo the innermost :func:`push_registry` on this thread."""
    return _ambient.stack.pop()


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the ambient registry for this thread."""
    push_registry(registry)
    try:
        yield registry
    finally:
        pop_registry()
