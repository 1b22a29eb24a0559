"""Span recorder installed around the program's layer boundaries, from outside.

In this benchmark the program is not edited: :class:`Recorder` replaces the
callables listed in :data:`TARGETS` with timing wrappers for the length of
the traced window and puts the originals back afterwards.  A span is
``(span_id, parent_id, trace_id, metric, start, end, root)``; spans of one
cycle / delta / query share a trace id; a span's parent is the span that was
open on the same thread when it started.  Spans stay in memory until the
run ends.

A metric's ``*_s`` value is **self time**: each span's duration minus the
durations of its direct children, summed over the spans carrying that metric
name.  The layer of a metric is its name up to the last dot.

Almost every target is public.  The exceptions are the three stage methods
of ``StreamingPipeline`` and ``ContinuousQueryManager._apply_delta``: the
stage threads and the commit listener reach them through references taken
before the window opens, so there is no public callable left to replace.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Iterator

# (module, class or None, attribute, metric the span's self time adds to)
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.system", "StructureManagementSystem", "__init__",
     "core.system.open_s"),
    ("repro.core.system", "StructureManagementSystem", "ingest",
     "core.system.ingest_s"),
    ("repro.core.system", "StructureManagementSystem", "generate",
     "core.system.generate_self_s"),
    ("repro.core.system", "StructureManagementSystem", "query",
     "core.system.query_self_s"),
    ("repro.core.system", "StructureManagementSystem", "close",
     "core.system.close_s"),
    ("repro.extraction.infobox", None, "parse_infoboxes", "docmodel.parse_s"),
    ("repro.extraction.infobox", None, "parse_tables", "docmodel.parse_s"),
    ("repro.docmodel.tokenize", "Tokenizer", "tokenize", "docmodel.parse_s"),
    ("repro.docmodel.tokenize", "SentenceSplitter", "split",
     "docmodel.parse_s"),
    ("repro.extraction.infobox", "InfoboxExtractor", "extract",
     "extraction.extract_s"),
    ("repro.extraction.infobox", "WikiTableExtractor", "extract",
     "extraction.extract_s"),
    ("repro.extraction.rules", "RuleCascadeExtractor", "extract",
     "extraction.extract_s"),
    ("repro.extraction.dictionary", "DictionaryExtractor", "extract",
     "extraction.extract_s"),
    ("repro.cache.store", "LRUExtractionCache", "get", "cache.lookup_s"),
    ("repro.cache.store", "LRUExtractionCache", "put", "cache.lookup_s"),
    ("repro.core.system", None, "parse_program", "lang.parse_plan_s"),
    ("repro.lang.plan", "LogicalPlan", "from_ops", "lang.parse_plan_s"),
    ("repro.lang.optimizer", "Optimizer", "optimize", "lang.optimize_s"),
    ("repro.lang.executor", "Executor", "execute", "lang.execute_self_s"),
    ("repro.integration.entity_resolution", "EntityResolver", "resolve",
     "integration.resolve_s"),
    ("repro.lang.executor", None, "fuse_extractions", "integration.fuse_s"),
    ("repro.integration.entity_resolution", "IncrementalEntityResolver",
     "apply", "integration.er_apply_s"),
    ("repro.integration.fusion", "FusionState", "add",
     "integration.fusion_refresh_s"),
    ("repro.integration.fusion", "FusionState", "retract",
     "integration.fusion_refresh_s"),
    ("repro.integration.fusion", "FusionState", "refresh",
     "integration.fusion_refresh_s"),
    ("repro.debugger.semantic", "SemanticDebugger", "learn",
     "debugger.learn_s"),
    ("repro.debugger.semantic", "SemanticDebugger", "check",
     "debugger.check_s"),
    ("repro.uncertainty.provenance", "ProvenanceGraph", "record_extraction",
     "uncertainty.record_s"),
    ("repro.uncertainty.provenance", "ProvenanceGraph", "record_fact",
     "uncertainty.record_s"),
    ("repro.uncertainty.provenance", "ProvenanceGraph", "save",
     "uncertainty.save_s"),
    ("repro.uncertainty.provenance", "ProvenanceGraph", "load",
     "uncertainty.load_s"),
    ("repro.userlayer.search", "KeywordSearchEngine", "index_corpus",
     "userlayer.search.index_corpus_s"),
    ("repro.userlayer.search", "KeywordSearchEngine", "index_facts",
     "userlayer.search.index_facts_s"),
    ("repro.userlayer.search", "KeywordSearchEngine", "search_facts",
     "userlayer.search.keyword_s"),
    ("repro.userlayer.monitoring", "ContinuousQueryManager", "_apply_delta",
     "userlayer.monitoring.evaluate_s"),
    ("repro.core.streaming", "StreamingPipeline", "submit",
     "core.streaming.stage_self_s"),
    ("repro.core.streaming", "StreamingPipeline", "_extract",
     "core.streaming.stage_self_s"),
    ("repro.core.streaming", "StreamingPipeline", "_integrate",
     "core.streaming.stage_self_s"),
    ("repro.core.streaming", "StreamingPipeline", "_push",
     "core.streaming.stage_self_s"),
    ("repro.core.serving", "ServingGate", "admit", "core.serving.admit_s"),
    ("repro.storage.snapshots", "SnapshotStore", "commit",
     "storage.snapshots.commit_s"),
    ("repro.storage.filestore", "RecordFileStore", "append_many",
     "storage.filestore.append_s"),
    ("repro.storage.rdbms.engine", "Database", "__init__",
     "storage.rdbms.engine.recovery_s"),
    ("repro.storage.rdbms.engine", "Database", "run",
     "storage.rdbms.engine.write_s"),
    ("repro.storage.rdbms.engine", "Database", "begin_snapshot",
     "storage.rdbms.mvcc.snapshot_s"),
    ("repro.storage.rdbms.engine", "Database", "compact",
     "storage.rdbms.segments.compact_s"),
    ("repro.storage.rdbms.qcache", "QueryResultCache", "execute",
     "storage.rdbms.qcache.execute_self_s"),
    ("repro.storage.rdbms.sql", None, "parse_sql",
     "storage.rdbms.planner.parse_s"),
    ("repro.storage.rdbms.sql", None, "execute_statement",
     "storage.rdbms.planner.execute_self_s"),
    ("repro.storage.rdbms.planner", "Planner", "plan_select",
     "storage.rdbms.planner.plan_s"),
)

# Stage methods that run once per delta on the pipeline's own threads, in
# submission order: the n-th call belongs to the n-th delta of the window.
_DELTA_STAGES = frozenset({"_extract", "_integrate"})


class Recorder:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []
        self._stage_calls: dict[str, Iterator[int]] = {}
        self._delta_base = 0

    # ---------------------------------------------------------- wrapping

    def wrap(self, fn: Callable, metric: str,
             stage: str | None = None) -> Callable:
        """``fn`` with a span around every call, adding to ``metric``."""
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            if stage is not None:
                local.trace = "delta-%d" % (
                    self._delta_base + next(self._stage_calls[stage]))
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, local.__dict__.get("trace", ""),
                              metric, start, end, False))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Replace every target with its wrapper."""
        if self._originals:
            raise RuntimeError("recorder already installed")
        for module_name, class_name, attr, metric in TARGETS:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, attr)
            stage = attr if attr in _DELTA_STAGES else None
            if isinstance(original, staticmethod):
                wrapper: Any = staticmethod(
                    self.wrap(original.__func__, metric, stage))
            else:
                wrapper = self.wrap(original, metric, stage)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------- traces

    def expect_deltas(self, first_index: int) -> None:
        """The next delta entering the pipeline is number ``first_index``;
        the k-th stage call from here on joins trace ``delta-<first_index+k>``."""
        self._delta_base = first_index
        self._stage_calls = {s: itertools.count() for s in _DELTA_STAGES}

    def set_trace(self, trace_id: str) -> None:
        """Spans this thread opens from now on join ``trace_id``."""
        self._local.trace = trace_id

    @contextmanager
    def root(self, metric: str, trace_id: str) -> Iterator[None]:
        """A root span on this thread; spans opened inside join its trace."""
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        previous = local.__dict__.get("trace", "")
        local.trace = trace_id
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            local.trace = previous
            self.spans.append((span_id, 0, trace_id, metric, start, end, True))

    def add_root(self, metric: str, trace_id: str, start: float,
                 end: float) -> None:
        """A root span measured by the harness (a delta's due -> notified);
        parentless spans of the same trace become its children."""
        self.spans.append(
            (next(self._ids), 0, trace_id, metric, start, end, True))

    def add_child(self, metric: str, trace_id: str, start: float,
                  end: float) -> None:
        """A parentless span measured by the harness inside a trace."""
        self.spans.append(
            (next(self._ids), 0, trace_id, metric, start, end, False))

    # ------------------------------------------------------------- ledger

    def ledger(self) -> "Ledger":
        return Ledger(self.spans)

    def write(self, path: str, ledger: "Ledger") -> None:
        """One JSON object per span, in the order they finished."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                span_id, parent, trace_id, metric, start, end, root = span
                out.write(json.dumps({
                    "span_id": span_id,
                    "parent_id": ledger.parent_of.get(span_id, parent),
                    "trace_id": trace_id,
                    "name": metric,
                    "layer": layer_of(metric),
                    "start": start,
                    "end": end,
                    "self_s": ledger.self_of[span_id],
                    "root": root,
                }) + "\n")


class NullRecorder:
    """What the untraced run passes where a traced run passes a Recorder."""

    _nothing = nullcontext()

    def root(self, metric: str, trace_id: str) -> Any:
        return self._nothing

    def set_trace(self, trace_id: str) -> None:
        pass

    def expect_deltas(self, first_index: int) -> None:
        pass

    def add_root(self, *span: Any) -> None:
        pass

    add_child = add_root

    def wrap(self, fn: Callable, metric: str) -> Callable:
        return fn


def layer_of(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


class Ledger:
    """Self time per span, per metric and per layer, from a span list."""

    def __init__(self, spans: list[tuple]) -> None:
        roots = {s[2]: s[0] for s in spans if s[6]}
        child_time: dict[int, float] = defaultdict(float)
        #: span id -> parent id after adopting parentless spans into the
        #: root of their trace (stage threads never see the harness's root).
        self.parent_of: dict[int, int] = {}
        for span_id, parent, trace_id, _, start, end, root in spans:
            if not parent and not root:
                parent = roots.get(trace_id, 0)
            self.parent_of[span_id] = parent
            if parent:
                child_time[parent] += end - start
        self.self_of: dict[int, float] = {
            s[0]: (s[5] - s[4]) - child_time[s[0]] for s in spans}
        self.by_metric: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_self: dict[str, float] = {}
        self.root_wall = 0.0
        covered = 0.0
        rooted = set(roots)
        for span_id, _, trace_id, metric, start, end, root in spans:
            own = self.self_of[span_id]
            self.by_metric[metric] += own
            self.calls[metric] += 1
            if root:
                self.root_wall += end - start
                self.root_self[trace_id] = own
            if trace_id in rooted and not metric.startswith("bench."):
                covered += own
        #: Share of root-span wall that lies in a span of a named layer.
        self.coverage = covered / self.root_wall if self.root_wall else 0.0

    def by_layer(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for metric, seconds in self.by_metric.items():
            layers[layer_of(metric)] += seconds
        return dict(layers)
