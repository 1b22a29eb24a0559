"""The StructureManagementSystem facade."""

from __future__ import annotations

import hashlib
import json
import signal
import threading
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Sequence

from repro.cache.store import LRUExtractionCache, make_cache
from repro.core.serving import ServingGate
from repro.errors import CancellationToken, QueryTimeoutError
from repro.cluster.backends import ExecutionBackend, make_backend
from repro.debugger.semantic import SemanticDebugger, SystemMonitor
from repro.docmodel.corpus import Corpus
from repro.docmodel.document import Document
from repro.extraction.base import tuple_to_extraction
from repro.faults.deadletter import DeadLetterEntry, DeadLetterStore
from repro.faults.retry import RetryPolicy
from repro.lang.executor import ExecutionResult, Executor
from repro.lang.optimizer import Optimizer
from repro.lang.parser import parse_program
from repro.lang.plan import LogicalPlan
from repro.lang.registry import OperatorRegistry
from repro.storage.manager import StorageManager
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.table import ScanUnit, gather_column, gather_rids
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import current_session, metrics
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.tracing import get_tracer
from repro.uncertainty.provenance import ProvenanceGraph
from repro.userlayer.accounts import UserManager
from repro.userlayer.builtin_forms import register_builtin_forms
from repro.userlayer.forms import FormCatalog
from repro.userlayer.monitoring import ContinuousQueryManager
from repro.userlayer.search import KeywordSearchEngine
from repro.userlayer.session import ExplorationSession
from repro.userlayer.translate import QueryTranslator

FACTS_TABLE = "facts"
# One row per program (the hash of its plan): the ids of the facts it
# landed, as a JSON list.  A sibling of ``facts`` rather than a column,
# so ``SELECT *`` keeps the facts' seven columns and a reopen replays one
# row per landing.  Contributions and raw-SQL rows are in no list, so no
# landing touches them.
PROGRAM_FACTS_TABLE = "program_facts"
# The cells that make two stored facts the same fact (fact_id aside).
_FACT_CELLS = ("entity", "attribute", "value_text", "value_num",
               "confidence", "doc_id")


def facts_schema() -> TableSchema:
    """The EAV schema of the final structured store.

    Numeric values land in ``value_num``; everything else in ``value_text``
    (one of the two is NULL per row).
    """
    return TableSchema(
        name=FACTS_TABLE,
        columns=(
            Column("fact_id", ColumnType.INT, nullable=False),
            Column("entity", ColumnType.TEXT, nullable=False),
            Column("attribute", ColumnType.TEXT, nullable=False),
            Column("value_text", ColumnType.TEXT),
            Column("value_num", ColumnType.FLOAT),
            Column("confidence", ColumnType.FLOAT),
            Column("doc_id", ColumnType.TEXT),
        ),
        primary_key="fact_id",
    )


def fact_row(entity: str, attribute: str, value: Any,
             confidence: float) -> dict[str, Any]:
    """The EAV cells every stored fact shares (``facts`` and
    ``fused_facts``): numeric values land in ``value_num``, everything
    else in ``value_text``."""
    is_num = isinstance(value, (int, float)) and not isinstance(value, bool)
    return {
        "entity": entity,
        "attribute": attribute,
        "value_text": None if is_num else str(value),
        "value_num": float(value) if is_num else None,
        "confidence": confidence,
    }


def _facts_of(units: list[ScanUnit]) -> dict[int, dict[str, Any]]:
    """rid -> fact (fact_id/entity/attribute/value) of the ``facts`` rows
    of scan ``units``, read as columns."""
    columns = [gather_column(units, name) for name in (
        "fact_id", "entity", "attribute", "value_text", "value_num")]
    return {rid: {"fact_id": fact_id, "entity": entity,
                  "attribute": attribute,
                  "value": text if num is None else num}
            for rid, fact_id, entity, attribute, text, num
            in zip(gather_rids(units), *columns)}


def _record_fact_provenance(records: Iterable[dict[str, Any]],
                            fact_ids: set[int]) -> ProvenanceGraph:
    """The lineage graph of ``fact_ids`` (from what ``_land`` appended):
    the one builder behind ``explain()`` and ``system.provenance``."""
    graph = ProvenanceGraph()
    # the last record under an id is its fact's: a retraction frees an
    # id, which a reopened system can assign again
    for record in {r["fact_id"]: r for r in records
                   if r["fact_id"] in fact_ids}.values():
        feedback = record.get("feedback")
        sources = []
        if feedback is None:
            if record.get("span_text") is None or not record.get("doc_id"):
                continue  # nothing to point at
            sources.append(graph.record_extraction(tuple_to_extraction({
                "span_start": 0, "span_end": 0, "extractor": "pipeline",
                **record,
                "confidence": min(max(record.get("confidence", 1.0), 0.0),
                                  1.0),
            })))
        fact = graph.record_fact(
            record["entity"], record["attribute"], record["value"],
            record["stored_confidence"], sources)
        if feedback is not None:
            graph.record_feedback(feedback, fact)
    return graph


@dataclass
class GenerationReport:
    """Outcome of one data-generation run.

    ``cluster_makespan`` is *simulated* time (the E7 cost model, when the
    backend is a simulated cluster); ``backend_name`` /
    ``real_parallel_seconds`` report *real* wall-clock parallel execution
    when an execution backend is configured.
    """

    #: A run lands the difference from what its program landed before:
    #: the facts it inserted, the ones it deleted (no longer derived) and
    #: the ones it kept as they were.
    facts_stored: int
    facts_retracted: int
    facts_unchanged: int
    #: The debugger's flags over the whole output.
    facts_flagged: int
    intermediate_records: int
    hi_questions: int
    chars_scanned: int
    cluster_makespan: float
    plan_rendering: str
    backend_name: str = "inline"
    real_parallel_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    failed_docs: int = 0
    failed_doc_ids: list[str] = field(default_factory=list)


@dataclass
class StructureManagementSystem:
    """End-to-end system object.

    A page lives once, in the raw log: ``corpus`` *is* ``storage.raw``,
    which generation reads and the page keyword index follows, so a
    reopened workspace works over its stored pages with no load step.

    Args:
        workspace: directory for all stores; None keeps every store,
            page versions included, in memory: the same code on the
            record log's memory device, and a database without a WAL.
        registry: extractors/resolvers/crowd used by programs.
        backend: execution backend for extraction — ``"serial"``,
            ``"thread"``, ``"process"``, an :class:`ExecutionBackend`
            instance (a :class:`~repro.cluster.simulator.SimulatedCluster`
            simulates cost/failure over the inner backend it is given), or
            None (inline, the default); output is identical either way.
        backend_workers: pool size for thread/process backends
            (default: CPU count, capped at 8).
        cache: extraction cache — ``None`` (off), ``"memory"`` (in-process
            LRU), any other string (directory for a persistent on-disk
            cache; survives across system instances), or an
            :class:`~repro.cache.store.LRUExtractionCache`.  With a
            cache, ``generate()`` re-runs only extract documents whose
            text (or extractor configuration) changed since the cached
            run; output is byte-identical either way.
        retry: per-document extraction retry policy (defaults to three
            quick attempts).  Documents that still fail are quarantined
            in the dead-letter store instead of failing the run.
        fail_fast: abort ``generate()`` on the first extraction failure
            (pre-PR-4 semantics) instead of retrying and quarantining.
        auto_compact_rows: freeze a table's committed rows into columnar
            segments whenever its row-store tail exceeds this many rows
            (None disables auto-compaction; ``compact()`` still works).
        slow_query_seconds: statements taking at least this long (wall
            time, cache hits included) are captured in the slow-query
            log — persisted to ``<workspace>/slowlog/`` when a
            workspace is configured, in memory otherwise.  None disables
            slow-query logging entirely (no timing on the query path).
        max_concurrent_queries: queries allowed to execute at once
            through :meth:`query`; excess arrivals queue.
        max_queued_queries: arrivals allowed to wait for a slot; beyond
            this :meth:`query` sheds load with
            :class:`~repro.errors.AdmissionRejected`.
        admission_timeout_seconds: longest a queued query waits for a
            slot before being rejected.
        query_deadline_seconds: default per-query deadline (cooperative
            cancellation, :class:`~repro.errors.QueryTimeoutError`).
            None disables; :meth:`query` accepts a per-call override.
        drain_timeout_seconds: how long :meth:`close` waits for
            in-flight queries before cancelling the stragglers.
    """

    workspace: str | None = None
    registry: OperatorRegistry = field(default_factory=OperatorRegistry)
    backend: str | ExecutionBackend | None = None
    backend_workers: int | None = None
    cache: LRUExtractionCache | str | None = None
    retry: RetryPolicy | None = None
    fail_fast: bool = False
    auto_compact_rows: int | None = None
    slow_query_seconds: float | None = 1.0
    max_concurrent_queries: int = 8
    max_queued_queries: int = 16
    admission_timeout_seconds: float = 5.0
    query_deadline_seconds: float | None = None
    drain_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        self.gate = ServingGate(
            max_concurrent=self.max_concurrent_queries,
            max_queue=self.max_queued_queries,
            queue_timeout=self.admission_timeout_seconds,
        )
        self._shutdown = threading.Event()
        self._closed = False
        self.storage = StorageManager(self.workspace)
        self.db: Database = self.storage.final
        self.db.auto_compact_rows = self.auto_compact_rows
        self.corpus = self.storage.raw
        self.search = KeywordSearchEngine(self.corpus)
        self.debugger = SemanticDebugger()
        self.monitor = SystemMonitor()
        self.users = UserManager()
        self.forms = FormCatalog()
        register_builtin_forms(self.forms, table=FACTS_TABLE)
        self.monitoring = ContinuousQueryManager(self.db)
        # Serving-path result cache: SELECTs repeated between commits are
        # answered from memory; an entry serves only readers whose
        # snapshot has the versions it was read at, so any commit or
        # schema change to a table it reads makes it miss.  The cache is
        # also the observability funnel: the slow-query log times every
        # statement flowing through it (None disables timing entirely).
        self.slowlog = None if self.slow_query_seconds is None else \
            SlowQueryLog(self.storage.path("slowlog"),
                         self.slow_query_seconds)
        self.query_cache = QueryResultCache(self.db, slowlog=self.slowlog)
        # Standing queries fire on *any* committed write — the manager
        # subscribes to the row-level commit delta stream on its first
        # registration and evaluates changed rows only, so direct
        # db.run(insert_many)/run_batch writes that never pass through
        # generate()/contribute() notify too, without a full re-run.
        self._facts_lock = threading.Lock()  # the keyword fact index
        #: The version of ``facts`` the keyword fact index holds (None:
        #: not built), :meth:`keyword_facts`.
        self._facts_at: int | None = None
        backend_retry = RetryPolicy(max_attempts=1) if self.fail_fast \
            else None
        self._backend = make_backend(self.backend,
                                     max_workers=self.backend_workers,
                                     retry=backend_retry)
        self._cache = make_cache(self.cache)
        self.deadletter = DeadLetterStore(self.storage.path("deadletter"))
        if FACTS_TABLE not in self.db.table_names():
            self.db.create_table(facts_schema())
            self.db.create_index(FACTS_TABLE, "entity")
            self.db.create_index(FACTS_TABLE, "attribute")
            self.db.create_table(TableSchema(PROGRAM_FACTS_TABLE, (
                Column("program", ColumnType.TEXT, nullable=False),
                Column("fact_ids", ColumnType.TEXT, nullable=False)),
                primary_key="program"))
        elif PROGRAM_FACTS_TABLE not in self.db.table_names():
            raise ValueError(f"no {PROGRAM_FACTS_TABLE!r} table beside "
                             f"{FACTS_TABLE!r}: an older layout, which this "
                             "version neither reads nor migrates")

    # ------------------------------------------------------------ ingestion

    def ingest(self, corpus: Corpus | Sequence[Document]) -> int:
        """Take in (a snapshot of) unstructured data: commit each page
        to the raw log (a page whose text is unchanged writes nothing; the
        last of a doc_id repeated in the batch is its latest version).
        Returns page count.
        """
        with get_tracer().span("system.ingest") as span:
            docs = list(corpus)
            for doc in docs:
                self.storage.raw.commit(doc)
            metrics.get_registry().inc("system.pages.ingested", len(docs))
            span.set_attribute("pages", len(docs))
            return len(docs)

    # ----------------------------------------------------------- generation

    def generate(self, program_source: str,
                 optimize: bool = True) -> GenerationReport:
        """Run a declarative IE+II+HI program over the corpus; its stored
        facts become what it derives now.

        The pipeline result is screened by the semantic debugger (facts
        it flags are *kept* but flagged — a human decides; their
        confidence is halved) and landed as the difference from the
        program's last run (:meth:`_land`).
        """
        with get_tracer().span("system.generate") as span:
            docs = list(self.corpus)
            ops, output = parse_program(program_source)
            plan = LogicalPlan.from_ops(ops, output)
            # the program's identity: a hash of its *unoptimized* plan, so
            # whitespace, comments and optimize= do not split its facts
            program = hashlib.blake2b(plan.render().encode(),
                                      digest_size=8).hexdigest()
            if optimize:
                plan = Optimizer(self.registry).optimize(plan, docs[:50])
            executor = Executor(self.registry, backend=self._backend,
                                cache=self._cache, retry=self.retry,
                                fail_fast=self.fail_fast)
            result: ExecutionResult = executor.execute(plan, docs)
            self.deadletter.add_many(
                DeadLetterEntry(**f) for f in result.failed_docs)

            rows = [r for r in result.rows if r.get("attribute")]
            if rows and not self.debugger.constraints:
                trusted = [
                    {r["attribute"]: r["value"]}
                    for r in rows
                    if r.get("confidence", 0.0) >= 0.9
                ]
                if trusted:
                    self.debugger.learn(trusted)

            fact_ids, retracted, flagged_count = self._land(rows, program)
            stored = len(fact_ids)
            self.monitor.record_batch(processed=max(len(rows), 1),
                                      errors=flagged_count)
            registry = metrics.get_registry()
            registry.inc("system.facts.stored", stored)
            registry.inc("system.facts.flagged", flagged_count)
            span.set_attribute("facts_stored", stored)
            span.set_attribute("facts_flagged", flagged_count)
            span.set_attribute("intermediate_records", len(rows))
            span.set_attribute("failed_docs", len(result.failed_docs))
            return GenerationReport(
                facts_stored=stored,
                facts_retracted=retracted,
                facts_unchanged=len(rows) - stored,
                facts_flagged=flagged_count,
                intermediate_records=len(rows),
                hi_questions=result.stats.hi_questions,
                chars_scanned=result.stats.total_chars_scanned,
                cluster_makespan=result.stats.cluster_makespan,
                plan_rendering=result.plan.render(),
                backend_name=result.stats.backend_name,
                real_parallel_seconds=result.stats.real_parallel_seconds,
                cache_hits=result.stats.cache_hits,
                cache_misses=result.stats.cache_misses,
                failed_docs=len(result.failed_docs),
                failed_doc_ids=sorted(f["doc_id"]
                                      for f in result.failed_docs),
            )

    def retry_deadletter(self, program_source: str,
                         optimize: bool = True) -> tuple[int, int]:
        """Re-drive quarantined documents through a program.

        The entries whose documents are still in the corpus leave the
        dead-letter store and the program runs again (:meth:`generate`);
        the documents that fail again are re-quarantined.  Entries whose
        documents are no longer in the corpus are left untouched.

        Returns:
            ``(retried, still_failed)`` counts.
        """
        retried = {d for d in self.deadletter.doc_ids() if d in self.corpus}
        if not retried:
            return (0, 0)
        self.deadletter.remove(sorted(retried))
        report = self.generate(program_source, optimize=optimize)
        return (len(retried), len(retried & set(report.failed_doc_ids)))

    def _land(self, rows: Sequence[dict[str, Any]], program: str | None = None,
              feedback: str | None = None) -> tuple[list[int], int, int]:
        """The one landing path of a generated fact, whatever made it.

        Screen with the semantic debugger (a flagged fact is *kept*, its
        confidence halved).  In one transaction (one WAL record; the
        commit delta notifies standing queries), compare the rows with
        what ``program`` landed before, as multisets of ``facts`` cells:
        delete the stored facts the rows no longer hold, insert the rows
        not yet stored (all of them when there is no ``program``); an
        empty difference writes nothing.  The inserts leave ``fact_id``
        out: the engine gives each the table's next key inside the
        transaction, above every id ``facts`` ever held, whoever wrote it
        (:class:`~repro.storage.rdbms.table.HeapTable`), and the ids are
        read from the rows the write returns.
        Append one lineage record per inserted fact to the intermediate
        file store.  ``rows`` are pipeline tuples; ``feedback`` marks a
        user contribution — its provenance source is a feedback node.
        The lineage record (the row plus the stored ``entity`` /
        ``attribute``, ``fact_id``, ``stored_confidence``, ``feedback``)
        is the one durable form of provenance; a crash before the append
        leaves facts with no recorded provenance, never another fact's.

        Returns:
            (inserted fact ids, facts retracted, facts flagged).
        """
        flagged = 0
        batch: list[tuple[dict[str, Any], dict[str, Any]]] = []
        for row in rows:
            violations = self.debugger.check(
                {row["attribute"]: row["value"]},
                context=feedback or f"doc {row.get('doc_id', '?')}",
            )
            confidence = float(row.get("confidence", 1.0))
            if violations:
                flagged += 1
                confidence *= 0.5
            values = fact_row(str(row.get("entity", "")),
                              str(row["attribute"]), row["value"], confidence)
            values["doc_id"] = str(row.get("doc_id", ""))
            batch.append((row, values))

        def land(t: Any) -> tuple[list, list[int], int]:
            stored: dict[tuple, list] = {}  # cells -> facts
            link = t.get_by_pk(PROGRAM_FACTS_TABLE, program)
            for fact_id in json.loads(link["fact_ids"]) if link else ():
                fact = t.get_by_pk(FACTS_TABLE, fact_id)
                if fact is not None:  # else deleted by raw SQL
                    stored.setdefault(tuple(
                        fact[c] for c in _FACT_CELLS), []).append(fact)
            kept, fresh = [], []
            for row, values in batch:
                same = stored.get(tuple(values[c] for c in _FACT_CELLS))
                if same:  # unchanged: keeps its fact_id and lineage
                    kept.append(same.pop(0)["fact_id"])
                else:
                    fresh.append((row, values))
            gone = [fact for facts in stored.values() for fact in facts]
            written = t.write_many(
                FACTS_TABLE, [("delete", f.rid) for f in gone]
                + [("insert", v) for _, v in fresh])
            ids = [row["fact_id"] for row in written[len(gone):]]
            if program:  # an update to the same list writes nothing
                listed = json.dumps(sorted(kept + ids))
                t.write_many(PROGRAM_FACTS_TABLE, [
                    ("update", link.rid, {"fact_ids": listed}) if link
                    else ("insert", {"program": program,
                                     "fact_ids": listed})])
            return fresh, ids, len(gone)

        fresh, ids, retracted = self.db.run(land)
        extra = {} if feedback is None else {"feedback": feedback}
        records = [
            {**row, "entity": v["entity"], "attribute": v["attribute"],
             "fact_id": fact_id, "stored_confidence": v["confidence"],
             **extra}
            for (row, v), fact_id in zip(fresh, ids)
        ]
        self.storage.intermediate.append_many(records)
        return ids, retracted, flagged

    def _lineage_records(self) -> Iterable[dict[str, Any]]:
        """What :meth:`_land` appended, in landing order (other records
        of the intermediate store carry no ``fact_id``)."""
        return (r.payload for r in self.storage.intermediate.scan()
                if "fact_id" in r.payload)

    @property
    def provenance(self) -> ProvenanceGraph:
        """The lineage graph of the facts stored now: a view built from
        their lineage records on each access (hold on to the result)."""
        ids = {r["fact_id"] for r in execute_sql(
            self.db, f"SELECT fact_id FROM {FACTS_TABLE}")}
        return _record_fact_provenance(self._lineage_records(), ids)

    # ------------------------------------------------------------- queries

    def query(self, sql: str,
              deadline_seconds: float | None = None) -> list[dict[str, Any]]:
        """Structured querying (sophisticated-user path).

        SELECTs run lock-free on an MVCC snapshot and are served through
        the snapshot-coherent result cache; everything else executes
        directly (and, by committing, invalidates whatever it touched).
        Every call passes the admission gate (bounded concurrency +
        overflow queue) and runs under a cooperative deadline; the
        system's own reads do not (they call ``execute_sql``).

        Args:
            deadline_seconds: per-call deadline override; defaults to
                ``query_deadline_seconds`` (None = no deadline).

        Raises:
            AdmissionRejected: the server is saturated or draining.
            QueryTimeoutError: the deadline passed (or shutdown cancelled
                the query) mid-execution.
        """
        if deadline_seconds is None:
            deadline_seconds = self.query_deadline_seconds
        with get_tracer().span("system.query") as span:
            with self.gate.admit(sql):
                guard = CancellationToken.after(
                    deadline_seconds, event=self._shutdown, sql=sql)
                try:
                    rows = self.query_cache.execute(sql, guard=guard)
                except QueryTimeoutError:
                    metrics.get_registry().inc("serving.timed_out")
                    raise
            metrics.get_registry().inc("system.queries")
            span.set_attribute("rows", len(rows))
            return rows

    def compact(self, table: str = FACTS_TABLE) -> dict[str, Any]:
        """Freeze ``table``'s committed rows into columnar segments.

        Equivalent to ``ALTER TABLE <table> COMPACT``; scans and query
        results are unchanged, aggregate scans get the vectorized
        executor.  Returns the compaction summary.

        Raises:
            KeyError: unknown table.
        """
        return self.db.compact(table)

    def explain_sql(self, sql: str) -> str:
        """The planner's physical plan for a SELECT, as text.

        Accepts either ``EXPLAIN SELECT ...`` or a bare ``SELECT ...``;
        the statement runs through :meth:`query`, admitted like any other.

        Raises:
            SqlError: on parse errors or non-SELECT input.
            AdmissionRejected: the server is saturated or draining.
        """
        stripped = sql.lstrip()
        if not stripped.lower().startswith("explain"):
            sql = f"EXPLAIN {sql}"
        return "\n".join(r["plan"] for r in self.query(sql))

    def slow_queries(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Captured slow-query entries, oldest first.

        Empty when slow-query logging is disabled
        (``slow_query_seconds=None``) or nothing crossed the threshold.
        """
        if self.slowlog is None:
            return []
        return self.slowlog.entries(limit=limit)

    def keyword(self, query: str, k: int = 5):
        """Keyword search over pages (ordinary-user starting point)."""
        return self.search.search(query, k=k)

    def keyword_facts(self, query: str, k: int = 5) -> list[dict[str, Any]]:
        """Keyword search over the derived structure.  The fact index
        catches up first, from one snapshot of ``facts``: it re-indexes
        the rows written since the version it was built at, whoever wrote
        them (:meth:`Database.written_since`), or is rebuilt where that
        history does not reach back — on first use, after DDL, once the
        history was trimmed.  The hits are read from the same snapshot."""
        with self._facts_lock, self.db.begin_snapshot() as snap:
            written = None if self._facts_at is None else \
                self.db.written_since(FACTS_TABLE, self._facts_at,
                                      uncommitted=False)
            if written is None:
                self.search.clear_facts()
                units = list(snap.scan_units(FACTS_TABLE))
            else:
                units = [("rows", [(row.rid, row.values) for row in
                                   snap.held_rows(FACTS_TABLE, written)],
                          None)]
            self._facts_at = snap.version_of(FACTS_TABLE)
            self.search.index_facts(_facts_of(units), written or ())
            rows = [snap.get_by_pk(FACTS_TABLE, fact_id)
                    for fact_id in self.search.search_facts(query, k=k)]
        return [{"entity": row["entity"], "attribute": row["attribute"],
                 "value": row["value_text"] if row["value_num"] is None
                 else row["value_num"]} for row in rows]

    def translator(self) -> QueryTranslator:
        """A translator reflecting the currently stored structure."""
        rows = execute_sql(self.db,
                           f"SELECT entity, attribute FROM {FACTS_TABLE}")
        return QueryTranslator(
            table=FACTS_TABLE,
            entity_column="entity",
            attributes=sorted({r["attribute"] for r in rows}),
            entities=sorted({r["entity"] for r in rows}),
            attribute_column="attribute",
            value_column="value_num",
            catalog=self.forms,
        )

    def session(self, user: str = "anonymous") -> ExplorationSession:
        """Start an iterative exploration session."""
        return ExplorationSession(
            search=self.search, translator=self.translator(),
            query=self.query, user=user,
            deadline_seconds=self.query_deadline_seconds,
        )

    def explain(self, entity: str, attribute: str) -> str:
        """Provenance explanation for the facts stored now under (entity,
        attr): their lineage records, by fact id, under that name (a
        record keeps the name its fact landed under)."""
        with self.db.begin_snapshot() as snap:
            ids = {row["fact_id"] for row in
                   snap.lookup(FACTS_TABLE, "entity", entity)
                   if row["attribute"] == attribute}
        graph = _record_fact_provenance(
            ({**r, "entity": entity, "attribute": attribute}
             for r in self._lineage_records() if r["fact_id"] in ids), ids)
        return "\n\n".join(
            graph.explain(n.node_id).render() for n in graph.facts()
        ) or f"no recorded provenance for {entity}.{attribute}"

    def contribute(self, user: str, entity: str, attribute: str,
                   value: Any) -> int:
        """Store a user-contributed fact (Web 2.0 data generation).

        Ordinary users participate in generation directly; a contribution
        is screened by the semantic debugger like any extracted fact, its
        confidence scales with the contributor's reputation, and its
        provenance records the user as the source.

        Returns:
            The stored fact's id.

        Raises:
            ValueError: unknown user (register via ``system.users`` first).
        """
        if not self.users.exists(user):
            raise ValueError(f"unknown user {user!r}; register first")
        reputation = self.users.user_reputation(user)
        fact_ids, _, _ = self._land(
            [{"entity": entity, "attribute": attribute, "value": value,
              # rep 0.5 -> 0.75, rep 1 -> 1.0
              "confidence": 0.5 + 0.5 * reputation,
              "doc_id": f"user:{user}"}],
            feedback=f"contributed by user {user}",
        )
        return fact_ids[0]

    def unify_attributes(self, left_attributes: Sequence[str],
                         right_attributes: Sequence[str],
                         name_weight: float = 0.75,
                         threshold: float = 0.45) -> list[tuple[str, str, int]]:
        """Schema-match two attribute families and fold the left into the
        right (the II step as a system operation).

        Value samples come from the stored facts; each accepted
        correspondence rewrites the left attribute's facts to the right
        name.

        Returns:
            (left, right, facts rewritten) per accepted correspondence.
        """
        from repro.integration.schema_matching import SchemaMatcher

        rows = execute_sql(
            self.db,
            f"SELECT attribute, value_num, value_text FROM {FACTS_TABLE}")
        samples: dict[str, list[Any]] = {}
        for row in rows:
            value = row["value_num"] if row["value_num"] is not None \
                else row["value_text"]
            if value is not None:
                samples.setdefault(row["attribute"], []).append(value)
        left = {a: samples[a] for a in left_attributes if a in samples}
        right = {a: samples[a] for a in right_attributes if a in samples}
        matcher = SchemaMatcher(threshold=threshold, name_weight=name_weight,
                                instance_weight=1.0 - name_weight)
        out: list[tuple[str, str, int]] = []
        for match in matcher.match(left, right):
            # Parameterized rewrite through the transaction API (the SQL
            # string path would need quote-escaping for attribute names
            # containing ', and this also uses the attribute index).
            def rewrite(t, source=match.left, target=match.right):
                hits = t.lookup(FACTS_TABLE, "attribute", source)
                t.write_many(FACTS_TABLE, [
                    ("update", hit.rid, {"attribute": target})
                    for hit in hits])
                return len(hits)

            out.append((match.left, match.right, self.db.run(rewrite)))
        return out

    def explain_program(self, program_source: str) -> str:
        """EXPLAIN for xlog programs: naive and optimized plans with the
        cost model's estimates (developer-facing, Figure 1 Part II)."""
        docs = list(islice(self.corpus, 50))
        ops, output = parse_program(program_source)
        naive = LogicalPlan.from_ops(ops, output)
        optimizer = Optimizer(self.registry)
        optimized = optimizer.optimize(naive, docs)
        naive_cost = optimizer.estimate_cost(naive, docs)
        optimized_cost = optimizer.estimate_cost(optimized, docs)
        return (
            f"-- naive plan (estimated cost {naive_cost.total:.0f})\n"
            f"{naive.render()}\n\n"
            f"-- optimized plan (estimated cost {optimized_cost.total:.0f})\n"
            f"{optimized.render()}"
        )

    def fact_count(self) -> int:
        rows = execute_sql(self.db,
                           f"SELECT COUNT(*) AS n FROM {FACTS_TABLE}")
        return int(rows[0]["n"])

    def streaming_pipeline(self, extractor_names: Sequence[str] | None = None,
                           strategy: str = "weighted_vote",
                           queue_size: int = 64,
                           token: "CancellationToken | None" = None):
        """Build the streaming DGE loop over this system's components.

        Uses the registered extractors (or the named subset), the shared
        extraction cache, the dead-letter store, and this system's
        database — so fused rows land where continuous queries watch.
        """
        from repro.core.streaming import StreamingPipeline
        if extractor_names is None:
            extractors = dict(self.registry.extractors)
        else:
            extractors = {name: self.registry.extractor(name)
                          for name in extractor_names}
        return StreamingPipeline(
            self.db, extractors,
            strategy=strategy,
            cache=self._cache,
            deadletter=self.deadletter,
            token=token,
            queue_size=queue_size,
        )

    def close(self) -> None:
        """Graceful shutdown: drain, cancel stragglers, flush, close.

        Idempotent.  State machine (DESIGN.md §15): (1) the gate stops
        admitting — new queries get ``AdmissionRejected(reason=
        "draining")``; (2) in-flight queries get ``drain_timeout_seconds``
        to finish; (3) stragglers are cancelled cooperatively via the
        shared shutdown event their guards poll; (4) telemetry flushes
        and stores close (the WAL is already durable per commit).
        """
        if self._closed:
            return
        self._closed = True
        if not self.gate.drain(timeout=self.drain_timeout_seconds):
            # Stragglers outlived the drain window: flip the shutdown
            # event their cancellation guards poll and wait once more.
            self._shutdown.set()
            self.gate.drain(timeout=self.drain_timeout_seconds)
        self._shutdown.set()
        metrics.get_registry().inc("serving.drained")
        if self._backend is not None:
            self._backend.close()
        if self._cache is not None:
            self._cache.close()
        if self.slowlog is not None:
            self.slowlog.close()
        self.deadletter.close()
        session = current_session()
        if session is not None:
            session.flush()
        self.storage.close()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM to a graceful drain (call from the main thread).

        The handler runs :meth:`close` — stop admitting, drain or cancel
        in-flight queries, flush telemetry — then re-raises the default
        exit via :class:`SystemExit`.
        """

        def _terminate(signum: int, _frame: Any) -> None:
            self.close()
            raise SystemExit(128 + signum)

        signal.signal(signal.SIGTERM, _terminate)
