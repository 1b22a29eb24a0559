"""Execution engine for xlog plans.

Evaluates operators in dependency order, materializing each stream.
An extract operator is one call of the shared extraction stage
(:func:`repro.extraction.stage.run_stage` — cache protocol, per-document
retry, quarantine) on the executor's backend: None for the stage's inline
loop, a serial / thread / process backend for real parallelism, or the
simulated cluster (the physical-layer integration).

All work accounting flows through one per-execution
:class:`~repro.telemetry.metrics.MetricsRegistry`: operators record
``executor.*`` counters (characters scanned per extractor, rows per
operator, HI questions asked), the stage's payload records
``extraction.*`` counters even when it runs on worker processes (the
backends merge worker-local registries back), and nested cluster /
RDBMS work lands in the same registry because it is installed as the
ambient registry for the duration of the run.  :class:`ExecutionStats` is
a thin read view over that registry, keeping the attribute API the
optimizer experiments (E6) and the HI experiments (E2) report on.  When a
tracer is enabled, each operator additionally gets an ``executor.op.*``
span.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Sequence

from repro.cache.store import LRUExtractionCache, Rows
from repro.cluster.backends import ExecutionBackend, make_backend
from repro.docmodel.document import Document
from repro.extraction.base import tuple_to_extraction
from repro.extraction.stage import DEFAULT_DOC_RETRY, run_stage
from repro.faults.retry import RetryPolicy
from repro.hi.aggregate import aggregate_majority
from repro.hi.tasks import ValidateValueTask
from repro.integration.entity_resolution import Mention
from repro.integration.fusion import fuse_extractions
from repro.telemetry import metrics
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import get_tracer
from repro.lang.ast import (
    AskOp,
    DedupOp,
    DocFilterOp,
    DocsOp,
    ExtractOp,
    FilterOp,
    FuseOp,
    JoinOp,
    LimitOp,
    Op,
    ResolveOp,
    SelectOp,
    UnionOp,
    eval_expr,
    expr_fields,
)
from repro.lang.optimizer import (SAMPLE_SIZE, Optimizer,
                                  doc_passes_keyword_groups)
from repro.lang.parser import parse_program
from repro.lang.plan import LogicalPlan
from repro.lang.registry import OperatorRegistry


class ExecutionStats:
    """Read view over one execution's :class:`MetricsRegistry`.

    The executor no longer accumulates its own Counters — every number
    below is derived from registry counters/gauges on access, so the same
    run is visible both here (the stable per-execution API) and in the
    merged telemetry snapshot (``repro stats``).  The per-operator maps
    are :class:`collections.Counter`, as before, so readers keep their
    missing-key-is-zero semantics.

    ``backend_name`` / ``real_parallel_seconds`` / ``wave_task_counts``
    describe *real* parallel execution (E15); ``cluster_makespan`` is the
    *simulated* cost model (E7) a cluster backend accumulates.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 backend_name: str = "inline") -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.backend_name = backend_name

    @property
    def chars_scanned(self) -> Counter:
        return self.registry.labeled("executor.chars_scanned")

    @property
    def docs_extracted(self) -> Counter:
        return self.registry.labeled("executor.docs_extracted")

    @property
    def tuples_produced(self) -> Counter:
        return self.registry.labeled("executor.rows")

    @property
    def wave_task_counts(self) -> Counter:
        return self.registry.labeled("executor.wave_tasks")

    @property
    def hi_questions(self) -> int:
        return int(self.registry.get("executor.hi_questions"))

    @property
    def cluster_makespan(self) -> float:
        return self.registry.get("cluster.makespan")

    @property
    def real_parallel_seconds(self) -> float:
        return self.registry.get("executor.real_parallel_seconds")

    @property
    def cache_hits(self) -> int:
        return int(self.registry.get("cache.hits"))

    @property
    def cache_misses(self) -> int:
        return int(self.registry.get("cache.misses"))

    @property
    def total_chars_scanned(self) -> int:
        return int(sum(self.chars_scanned.values()))


@dataclass
class ExecutionResult:
    """Output rows plus the executed plan and its statistics.

    ``failed_docs`` lists quarantined documents — one dict per document
    whose extraction still failed after retries (``doc_id``, ``error``,
    ``error_type``, ``attempts``, ``extractor``).  The run itself
    completed; these documents simply contributed no rows.
    """

    rows: list[dict[str, Any]]
    stats: ExecutionStats
    plan: LogicalPlan
    failed_docs: list[dict[str, Any]] = field(default_factory=list)


class Executor:
    """Evaluates a logical plan over a corpus.

    Args:
        registry: name bindings for extractors/resolvers/crowd.
        backend: execution backend (``"serial"`` / ``"thread"`` /
            ``"process"``, an :class:`ExecutionBackend` — a
            :class:`~repro.cluster.simulator.SimulatedCluster` among them,
            whose job makespans accumulate in ``stats.cluster_makespan``
            — or None for inline).  Extraction payloads run on it; output
            is identical across backends (the determinism contract).  A
            backend named by string is built here and closed when each
            run ends; an instance stays the caller's to close.
        cache: content-addressed extraction cache.  The stage partitions
            each extract operator's documents into hits and misses against
            ``(document key, extractor fingerprint)``; only the misses
            are extracted (on whichever backend is configured) and
            fresh results are written back.  Output — including its byte
            order — is identical with and without the cache; the
            ``executor.*`` work counters then measure only extraction
            actually performed, with ``cache.hits``/``cache.misses``
            recorded alongside.
        retry: per-document retry policy for extraction faults; defaults
            to :data:`DEFAULT_DOC_RETRY` (three quick attempts).  A
            document that still fails is *quarantined*: it contributes no
            rows, the run completes, and the failure is reported in
            ``ExecutionResult.failed_docs``.
        fail_fast: restore abort-on-first-error semantics — no retries,
            the first extraction failure propagates.
    """

    def __init__(self, registry: OperatorRegistry,
                 backend: str | ExecutionBackend | None = None,
                 cache: LRUExtractionCache | None = None,
                 retry: RetryPolicy | None = None,
                 fail_fast: bool = False) -> None:
        self._registry = registry
        self._fail_fast = fail_fast
        self._retry = retry if retry is not None \
            else (None if fail_fast else DEFAULT_DOC_RETRY)
        # A backend built here from a spec string is this executor's to
        # close (after every run; pools are rebuilt lazily); an instance
        # passed in stays the caller's.
        self._owns_backend = isinstance(backend, str)
        backend_retry = RetryPolicy(max_attempts=1) if fail_fast else None
        self._backend = make_backend(backend, retry=backend_retry)
        self._cache = cache

    def execute(self, plan: LogicalPlan,
                corpus: Sequence[Document]) -> ExecutionResult:
        """Run the plan; returns rows of the output stream plus stats.

        The run gets a fresh registry, installed as the thread's ambient
        registry so nested map-reduce and payload metrics accumulate with
        the executor's own; it is merged into the enclosing ambient
        registry afterwards (one global snapshot sees every run).
        """
        try:
            return self._execute(plan, corpus)
        finally:
            if self._owns_backend:
                self._backend.close()

    def _execute(self, plan: LogicalPlan,
                 corpus: Sequence[Document]) -> ExecutionResult:
        registry = MetricsRegistry()
        failed_docs: list[dict[str, Any]] = []
        stats = ExecutionStats(
            registry,
            backend_name=self._backend.name if self._backend is not None
            else "inline",
        )
        tracer = get_tracer()
        outer_registry = metrics.get_registry()
        started = time.perf_counter()
        with metrics.use_registry(registry), \
                tracer.span("executor.plan", output=plan.output) as plan_span:
            corpus_list = list(corpus)  # materialize once, not per operator
            streams: dict[str, Any] = {}
            n_ops = 0
            for op in plan.topological():
                n_ops += 1
                op_kind = type(op).__name__.removesuffix("Op").lower()
                with tracer.span(f"executor.op.{op_kind}", op=op.name) as sp:
                    result = self._eval(op, streams, corpus_list, stats,
                                        failed_docs)
                    streams[op.name] = result
                    if isinstance(result, list) and result \
                            and isinstance(result[0], dict):
                        registry.inc(f"executor.rows.{op.name}", len(result))
                        sp.set_attribute("rows", len(result))
            plan_span.set_attribute("operators", n_ops)
            registry.set_gauge("executor.wall_seconds",
                               time.perf_counter() - started)
        outer_registry.merge(registry)
        rows = streams[plan.output]
        if rows and isinstance(rows[0], Document):
            rows = [{"doc_id": d.doc_id, "chars": len(d.text)} for d in rows]
        return ExecutionResult(rows=rows, stats=stats, plan=plan,
                               failed_docs=failed_docs)

    # ------------------------------------------------------------ operators

    def _eval(self, op: Op, streams: dict[str, Any],
              corpus: list[Document], stats: ExecutionStats,
              failed_docs: list[dict[str, Any]]) -> Any:
        if isinstance(op, DocsOp):
            return list(corpus)  # fresh list: downstream ops own their copy
        if isinstance(op, DocFilterOp):
            docs: list[Document] = streams[op.inputs[0]]
            kept = [
                d for d in docs if doc_passes_keyword_groups(d, op.keyword_groups)
            ]
            stats.registry.inc(
                f"executor.chars_scanned.docfilter:{op.name}",
                sum(len(d.text) for d in docs),
            )
            return kept
        if isinstance(op, ExtractOp):
            return self._eval_extract(op, streams[op.inputs[0]], stats,
                                      failed_docs)
        if isinstance(op, FilterOp):
            fields = expr_fields(op.predicate)
            return [r for r in streams[op.inputs[0]]
                    if eval_expr(op.predicate, r, fields)]
        if isinstance(op, SelectOp):
            rows = streams[op.inputs[0]]
            return [{f: r.get(f) for f in op.fields} for r in rows]
        if isinstance(op, JoinOp):
            left, right = streams[op.inputs[0]], streams[op.inputs[1]]
            buckets: dict[Any, list[dict[str, Any]]] = {}
            for row in right:
                buckets.setdefault(row.get(op.on), []).append(row)
            joined: list[dict[str, Any]] = []
            for row in left:
                key = row.get(op.on)
                if key is None:
                    continue
                for other in buckets.get(key, ()):
                    merged = dict(other)
                    merged.update(row)
                    joined.append(merged)
            return joined
        if isinstance(op, UnionOp):
            return list(streams[op.inputs[0]]) + list(streams[op.inputs[1]])
        if isinstance(op, FuseOp):
            rows = streams[op.inputs[0]]
            fused = fuse_extractions(
                [tuple_to_extraction(r) for r in rows], strategy=op.strategy
            )
            registry = stats.registry
            registry.inc("integration.fuse.input_rows", len(rows))
            registry.inc("integration.fuse.fused_values", len(fused))
            registry.inc("integration.fuse.conflicts",
                         sum(f.conflict for f in fused))
            return [
                {
                    "entity": f.entity,
                    "attribute": f.attribute,
                    "value": f.value,
                    "confidence": f.confidence,
                    "support": f.support,
                    "conflict": f.conflict,
                    "doc_id": f.spans[0].doc_id if f.spans else "",
                    "span_start": f.spans[0].start if f.spans else 0,
                    "span_end": f.spans[0].end if f.spans else 0,
                    "span_text": f.spans[0].text if f.spans else "",
                }
                for f in fused
            ]
        if isinstance(op, ResolveOp):
            return self._eval_resolve(op, streams[op.inputs[0]], stats)
        if isinstance(op, AskOp):
            return self._eval_ask(op, streams[op.inputs[0]], stats)
        if isinstance(op, LimitOp):
            return list(streams[op.inputs[0]])[: op.n]
        if isinstance(op, DedupOp):
            rows = streams[op.inputs[0]]
            seen: set[tuple] = set()
            out: list[dict[str, Any]] = []
            for row in rows:
                if op.keys:
                    key = tuple(repr(row.get(k)) for k in op.keys)
                else:
                    key = tuple(sorted((k, repr(v)) for k, v in row.items()))
                if key in seen:
                    continue
                seen.add(key)
                out.append(row)
            return out
        raise TypeError(f"cannot execute operator {type(op).__name__}")

    def _eval_extract(self, op: ExtractOp, docs: list[Document],
                      stats: ExecutionStats,
                      failed_docs: list[dict[str, Any]]) -> Rows:
        """One extract operator = one :func:`run_stage` call on the
        executor's backend, plus the ``executor.*`` accounting (work
        counters measure the misses, i.e. extraction actually
        performed)."""
        extractor = self._registry.extractor(op.extractor)
        registry = stats.registry
        started = time.perf_counter()
        result = run_stage(extractor, docs, self._backend, cache=self._cache,
                           retry=self._retry, fail_fast=self._fail_fast)
        if self._backend is not None and result.misses:
            registry.inc("executor.real_parallel_seconds",
                         time.perf_counter() - started)
            registry.inc("executor.wave_tasks.map", len(result.misses))
        key = f"{op.extractor}@{op.name}"
        registry.inc(f"executor.chars_scanned.{key}",
                     sum(len(docs[i].text) for i in result.misses))
        registry.inc(f"executor.docs_extracted.{key}", len(result.misses))
        for failure in result.failures:
            failed_docs.append({**failure, "extractor": op.extractor})
            registry.inc("executor.docs_failed")
        return [row for per_doc in result.rows if per_doc is not None
                for row in per_doc]

    def _eval_resolve(self, op: ResolveOp, rows: list[dict[str, Any]],
                      stats: ExecutionStats) -> list[dict[str, Any]]:
        resolver = self._registry.resolver(op.resolver)
        names = sorted({r.get("entity", "") for r in rows if r.get("entity")})
        mentions = [Mention(i, name) for i, name in enumerate(names)]
        clusters = resolver.resolve(mentions)
        stats.registry.inc("integration.resolve.mentions", len(mentions))
        stats.registry.inc("integration.resolve.clusters", len(clusters))
        stats.registry.inc("integration.resolve.merged",
                           len(mentions) - len(clusters))
        canonical: dict[str, str] = {}
        for cluster in clusters:
            for mention_id in cluster.mention_ids:
                canonical[names[mention_id]] = cluster.canonical_name
        out = []
        for row in rows:
            updated = dict(row)
            entity = row.get("entity", "")
            if entity in canonical:
                updated["entity"] = canonical[entity]
            out.append(updated)
        return out

    def _eval_ask(self, op: AskOp, rows: list[dict[str, Any]],
                  stats: ExecutionStats) -> list[dict[str, Any]]:
        crowd = self._registry.crowd
        if crowd is None:
            raise RuntimeError("program uses ask() but no crowd is registered")
        oracle = self._registry.hi_truth_oracle
        fields = expr_fields(op.where) if op.where is not None else None
        out: list[dict[str, Any]] = []
        for i, row in enumerate(rows):
            if op.where is not None and not eval_expr(op.where, row, fields):
                out.append(row)
                continue
            truth = (
                bool(oracle(row)) if callable(oracle)
                else row.get("confidence", 1.0) >= 0.5
            )
            task = ValidateValueTask(
                task_id=f"{op.name}:{i}",
                prompt=f"Is {row.get('entity')!r}.{row.get('attribute')!r} = "
                       f"{row.get('value')!r} plausible?",
                entity=str(row.get("entity", "")),
                attribute=str(row.get("attribute", "")),
                value=row.get("value"),
            )
            responses = crowd.ask(task, truth, redundancy=op.redundancy)
            stats.registry.inc("executor.hi_questions", len(responses))
            answer, share = aggregate_majority(responses)
            if not answer:
                continue  # crowd rejected the tuple
            accepted = dict(row)
            if op.mode == "verify":
                accepted["confidence"] = share
            out.append(accepted)
        return out


def run_program(source: str, corpus: Sequence[Document],
                registry: OperatorRegistry, optimize: bool = True,
                backend: str | ExecutionBackend | None = None,
                cache: LRUExtractionCache | None = None,
                retry: RetryPolicy | None = None,
                fail_fast: bool = False) -> ExecutionResult:
    """Parse, (optionally) optimize, and execute an xlog program."""
    ops, output = parse_program(source)
    plan = LogicalPlan.from_ops(ops, output)
    if optimize:
        # islice: the optimizer only probes a small sample — don't
        # materialize the whole (possibly lazily streamed) corpus for it.
        plan = Optimizer(registry).optimize(
            plan, list(islice(corpus, SAMPLE_SIZE)))
    return Executor(registry, backend=backend, cache=cache, retry=retry,
                    fail_fast=fail_fast).execute(plan, corpus)
