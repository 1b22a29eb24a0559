"""Streaming DGE: the connected incremental loop as a long-running pipeline.

Corpus delta (the pages the raw store names in
:meth:`~repro.storage.snapshots.SnapshotStore.changes_since`, or any
:class:`DocDelta`) -> incremental extraction
(the shared :func:`~repro.extraction.stage.run_stage`: content-addressed
cache, per-document retry, quarantine) -> incremental entity resolution
(:class:`~repro.integration.entity_resolution.IncrementalEntityResolver`)
-> fusion under retraction
(:class:`~repro.integration.fusion.FusionState`) -> delta-driven
continuous-query push (fused rows are upserted into an RDBMS table, whose
commit delta stream drives the
:class:`~repro.userlayer.monitoring.ContinuousQueryManager`).

Every stage's cost follows the *delta*, not the corpus — and, for an
edited document, the difference to its previous self, not the page: a
mention the page still names keeps its id (so HI feedback on it keeps
applying), reaches the resolver only if its name or attributes changed,
hands fusion only the extractions that differ, and the fused rows whose
stored columns moved land as one batch WAL record
(:meth:`~repro.storage.rdbms.engine.Transaction.write_many`), from which
standing queries are re-evaluated against the changed rows only.
:meth:`StreamingPipeline.process` runs the stages synchronously;
:meth:`StreamingPipeline.start` wires them over bounded queues with
backpressure (a producer faster than the consumer blocks in
:meth:`~StreamingPipeline.submit` — deltas are never dropped and memory
stays bounded), cooperative cancellation via
:class:`~repro.errors.CancellationToken`, and dead-letter capture for
poison documents.
"""

from __future__ import annotations

import queue
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Collection, Iterable

from repro.cache.store import LRUExtractionCache
from repro.core.system import fact_row
from repro.docmodel.document import Document
from repro.errors import CancellationToken
from repro.extraction.base import Extraction, Extractor, tuple_to_extraction
from repro.extraction.stage import DEFAULT_DOC_RETRY, run_stage
from repro.faults.deadletter import DeadLetterEntry, DeadLetterStore
from repro.integration.entity_resolution import (
    EntityCluster,
    EntityResolver,
    IncrementalEntityResolver,
    MatchConstraints,
    Mention,
)
from repro.integration.fusion import (
    FusedValue,
    FusionState,
    canonical_extraction_sort_key,
    fuse_extractions,
)
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics

FUSED_TABLE = "fused_facts"

#: Queue sentinel telling a stage thread to exit.
_STOP = object()


@dataclass(frozen=True)
class DocDelta:
    """One corpus delta batch: the unit of work flowing down the pipeline."""

    added: tuple[Document, ...] = ()
    changed: tuple[Document, ...] = ()
    removed: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.added) + len(self.changed) + len(self.removed)


@dataclass(frozen=True)
class _ExtractedDelta:
    """Stage-1 output: per-document extraction results for one delta."""

    added: tuple[tuple[str, tuple[Extraction, ...]], ...] = ()
    changed: tuple[tuple[str, tuple[Extraction, ...]], ...] = ()
    removed: tuple[str, ...] = ()


@dataclass
class PipelineStats:
    """Cumulative work counters (mirrored into ``dge.*`` metrics)."""

    deltas_in: int = 0
    docs_in: int = 0
    pairs_scored: int = 0
    clusters_split: int = 0
    #: fused rows inserted, updated in place or deleted
    fused_rows_written: int = 0
    #: re-fused values whose stored columns equalled the row already
    #: there (only provenance spans moved): nothing written
    fused_rows_unchanged: int = 0
    docs_deadlettered: int = 0
    max_queue_depth: int = 0


class StreamingPipeline:
    """The connected incremental DGE loop over one database.

    Args:
        db: database receiving fused rows (its delta stream feeds any
            registered continuous queries).
        extractors: named extractors run per document.
        resolver: entity-resolver configuration (thresholds, blocking).
        constraints: shared must/cannot-link state (HI feedback).
        strategy: fusion strategy for conflicting values.
        cache: optional content-addressed extraction cache; re-ingesting
            an unchanged document costs a lookup, not a scan.
        deadletter: where poison documents go (default: a memory store).
        token: cooperative cancellation for the stage threads.
        queue_size: bound of each inter-stage queue (the backpressure
            knob): a full queue blocks the upstream stage.
        fused_table: table receiving one row per fused (entity, attribute).
    """

    def __init__(
        self,
        db: Database,
        extractors: dict[str, Extractor],
        *,
        resolver: EntityResolver | None = None,
        constraints: MatchConstraints | None = None,
        strategy: str = "weighted_vote",
        cache: LRUExtractionCache | None = None,
        deadletter: DeadLetterStore | None = None,
        token: CancellationToken | None = None,
        queue_size: int = 64,
        fused_table: str = FUSED_TABLE,
    ) -> None:
        self.db = db
        self.extractors = dict(extractors)
        self.resolver = IncrementalEntityResolver(
            resolver if resolver is not None else EntityResolver(),
            constraints)
        self.fusion = FusionState(strategy)
        self.cache = cache
        self.deadletter = deadletter if deadletter is not None \
            else DeadLetterStore()
        self.token = token
        self.queue_size = queue_size
        self.fused_table = fused_table
        self.stats = PipelineStats()
        self._ensure_table()
        #: doc_id -> raw entity string -> id of the document's live
        #: mention of it (an id lasts as long as the page names the entity).
        self._doc_mentions: dict[str, dict[str, int]] = {}
        #: mention id -> raw (untagged) extractions backing it.
        self._raw: dict[int, tuple[Extraction, ...]] = {}
        #: mention id -> canonical-entity-tagged extractions now in fusion.
        self._tagged: dict[int, tuple[Extraction, ...]] = {}
        #: (entity, attribute) -> rid of the fused row the pipeline last
        #: wrote for it in ``fused_table`` (a push checks it, :meth:`_push`).
        self._rids: dict[tuple[str, str], int] = {}
        self._next_mention_id = 0
        self._lock = threading.RLock()
        self._threads: list[threading.Thread] = []
        self._queues: list[queue.Queue] = []

    # ------------------------------------------------------------ plumbing

    def _ensure_table(self) -> None:
        if self.fused_table in self.db.table_names():
            # A fresh pipeline owns the table's contents: its in-memory
            # derived state starts empty, so stale rows from an earlier
            # process would otherwise double up once deltas flow.
            self.db.run(lambda txn: txn.write_many(self.fused_table, [
                ("delete", row.rid) for row in txn.scan(self.fused_table)]))
            return
        self.db.create_table(TableSchema(self.fused_table, (
            Column("entity", ColumnType.TEXT),
            Column("attribute", ColumnType.TEXT),
            Column("value_text", ColumnType.TEXT),
            Column("value_num", ColumnType.FLOAT),
            Column("confidence", ColumnType.FLOAT),
            Column("support", ColumnType.INT),
            Column("conflict", ColumnType.INT),
        )))

    def _check_cancelled(self) -> None:
        if self.token is not None:
            self.token.check()

    # ------------------------------------------------------ stage 1: extract

    def _extract(self, delta: DocDelta) -> _ExtractedDelta:
        """Every extractor over the delta's documents: one
        :func:`run_stage` call per extractor, so streaming shares batch
        generation's cache protocol, retry budget and quarantine."""
        self._check_cancelled()
        docs = [*delta.added, *delta.changed]
        registry = metrics.get_registry()
        self.stats.deltas_in += 1
        self.stats.docs_in += len(docs)
        registry.inc("dge.deltas_in")
        if docs:
            registry.inc("dge.docs_in", len(docs))
        per_doc: list[list[Extraction] | None] = [None] * len(docs)
        for name in sorted(self.extractors):
            result = run_stage(self.extractors[name], docs, cache=self.cache,
                               retry=DEFAULT_DOC_RETRY, token=self.token)
            for i, rows in enumerate(result.rows):
                if rows is not None:
                    if per_doc[i] is None:
                        per_doc[i] = []
                    per_doc[i].extend(tuple_to_extraction(r) for r in rows)
            if result.failures:
                self.stats.docs_deadlettered += len(result.failures)
                registry.inc("dge.docs_deadlettered", len(result.failures))
                self.deadletter.add_many(
                    DeadLetterEntry(extractor=name, **failure)
                    for failure in result.failures)
        added: list[tuple[str, tuple[Extraction, ...]]] = []
        changed: list[tuple[str, tuple[Extraction, ...]]] = []
        removed = list(delta.removed)
        for i, doc in enumerate(docs):
            extractions = per_doc[i]
            if extractions is None and self.extractors:
                # Poison document (every extractor failed outright):
                # excise it from the derived state.
                if doc.doc_id in self._doc_mentions:
                    removed.append(doc.doc_id)
                continue
            # Entity-less extractions belong to the document itself — the
            # same fallback the xlog executor applies before resolution.
            bucket = added if i < len(delta.added) else changed
            bucket.append((doc.doc_id, tuple(
                e if e.entity else replace(e, entity=e.span.doc_id)
                for e in extractions or ())))
        return _ExtractedDelta(tuple(added), tuple(changed), tuple(removed))

    # --------------------------------------------- stage 2: resolve + fuse

    @staticmethod
    def _group_mentions(extractions: tuple[Extraction, ...]) -> list[
            tuple[str, tuple[tuple[str, Any], ...], tuple[Extraction, ...]]]:
        """Group one document's extractions into mention shapes.

        One ``(name, attributes, members)`` per distinct raw entity
        string; the attributes are the first value per attribute in
        canonical extraction order (a deterministic function of the
        extraction set, so an unchanged document always rebuilds the same
        mention shape).
        """
        ordered = sorted(extractions, key=canonical_extraction_sort_key)
        by_entity: dict[str, list[Extraction]] = {}
        for extraction in ordered:
            by_entity.setdefault(extraction.entity, []).append(extraction)
        out = []
        for entity in sorted(by_entity):
            members = by_entity[entity]
            attrs: dict[str, Any] = {}
            for extraction in members:
                attrs.setdefault(extraction.attribute, extraction.value)
            out.append((entity, tuple(sorted(attrs.items())), tuple(members)))
        return out

    def _integrate(self, extracted: _ExtractedDelta) -> dict[
            tuple[str, str], FusedValue | None]:
        """Resolve and fuse the difference between each document and its
        previous self.

        A document's new mentions are matched to its old ones by raw
        entity string.  A matched mention keeps its id: the resolver
        hears of it only when its name-and-attributes shape changed
        (``apply(changed=…)``), fusion only of the extractions that
        differ (:meth:`_retag`).  Unmatched old mentions leave for good,
        unmatched new ones get fresh ids.  Callers hold the pipeline lock.
        """
        self._check_cancelled()
        registry = metrics.get_registry()
        gone_ids: list[int] = []
        for doc_id in extracted.removed:
            gone_ids.extend(self._doc_mentions.pop(doc_id, {}).values())
        added: list[Mention] = []
        changed: list[Mention] = []
        restated: set[int] = set()  # mentions whose extractions changed
        # (a doc_id repeated within the delta counts in its last state)
        for doc_id, extractions in dict(
                (*extracted.added, *extracted.changed)).items():
            old_ids = self._doc_mentions.get(doc_id, {})
            new_ids: dict[str, int] = {}
            for name, attrs, members in self._group_mentions(extractions):
                mention_id = old_ids.get(name)
                if mention_id is None:
                    mention_id = self._next_mention_id
                    self._next_mention_id += 1
                    added.append(Mention(mention_id, name, attrs))
                elif self.resolver.mention(mention_id).attributes != attrs:
                    changed.append(Mention(mention_id, name, attrs))
                new_ids[name] = mention_id
                if self._raw.get(mention_id) != members:
                    self._raw[mention_id] = members
                    restated.add(mention_id)
            gone_ids.extend(mention_id for name, mention_id in old_ids.items()
                            if name not in new_ids)
            self._doc_mentions[doc_id] = new_ids
        for mention_id in gone_ids:
            self.fusion.retract(self._tagged.pop(mention_id, ()))
            self._raw.pop(mention_id, None)
        # One incremental resolution for the whole batch.
        stats = self.resolver.apply(added=added, changed=changed,
                                    removed=gone_ids)
        self.stats.pairs_scored += stats.pairs_scored
        self.stats.clusters_split += stats.clusters_split
        registry.inc("dge.pairs_scored", stats.pairs_scored)
        registry.inc("dge.clusters_split", stats.clusters_split)
        return self._retag(self.resolver.last_dirty, restated)

    def _retag(self, reclustered: Iterable[int],
               restated: Collection[int] = ()) -> dict[
            tuple[str, str], FusedValue | None]:
        """Bring fusion up to date with the canonical entities of the
        ``reclustered`` mentions and the extractions of the ``restated``
        ones, then re-fuse.

        Fusion is handed the multiset difference between what a mention
        contributed before and what it contributes now — everything when
        its canonical entity moved, the edited extractions when its page
        changed, nothing when neither did — so only groups whose members
        differ go dirty.
        """
        for mention_id in sorted({*reclustered, *restated}):
            raw = self._raw.get(mention_id)
            if raw is None:
                continue
            canonical = self.resolver.canonical_of(mention_id)
            previous = self._tagged.get(mention_id, ())
            if mention_id not in restated and previous \
                    and previous[0].entity == canonical:
                continue
            tagged = tuple(e if e.entity == canonical
                           else replace(e, entity=canonical) for e in raw)
            surplus = Counter(previous)
            surplus.subtract(tagged)
            self.fusion.retract(
                e for e, n in surplus.items() for _ in range(n))
            self.fusion.add(
                e for e, n in surplus.items() for _ in range(-n))
            self._tagged[mention_id] = tagged
        return self.fusion.refresh()

    # --------------------------------------------------- stage 3: push

    def _push(self, changed: dict[tuple[str, str], FusedValue | None]) -> int:
        """Land the changed fused values as one batch write: an insert
        for a new key, an in-place update for a key that has a row
        (dropped by the engine when the stored columns did not move —
        e.g. only provenance spans did), a delete for an emptied key.
        One transaction, one WAL record; returns the rows written.

        The commit's row delta is what drives registered continuous
        queries — the pipeline never calls ``poke()``.  The rows the
        changed keys last had are X-locked and then read: a key whose
        row another writer deleted, or moved to another (entity,
        attribute), lands as an insert, and no other writer's change to
        those rows comes between that read and the write.
        """
        if all(fused is None and key not in self._rids
               for key, fused in changed.items()):
            return 0
        table = self.fused_table

        def write(txn: Any) -> tuple[list, list, list]:
            rids = sorted(self._rids[key] for key in changed
                          if key in self._rids)
            txn.lock_rows(table, rids)
            held = {row.rid: (row["entity"], row["attribute"])
                    for row in txn.held_rows(table, rids)}
            for key in changed:
                if key in self._rids and held.get(self._rids[key]) != key:
                    del self._rids[key]
            keys: list[tuple[str, str]] = []
            ops: list[tuple] = []
            for key in sorted(changed):
                fused = changed[key]
                rid = self._rids.get(key)
                if fused is None:
                    if rid is None:
                        continue
                    ops.append(("delete", rid))
                else:
                    row = {
                        **fact_row(fused.entity, fused.attribute,
                                   fused.value, fused.confidence),
                        "support": fused.support,
                        "conflict": fused.conflict,
                    }
                    ops.append(("insert", row) if rid is None
                               else ("update", rid, row))
                keys.append(key)
            return keys, ops, txn.write_many(table, ops)

        keys, ops, rows = self.db.run(write)
        written = 0
        for key, op, row in zip(keys, ops, rows):
            if row is None:
                continue
            written += 1
            if op[0] == "insert":
                self._rids[key] = row.rid
            elif op[0] == "delete":
                del self._rids[key]
        registry = metrics.get_registry()
        self.stats.fused_rows_written += written
        registry.inc("dge.fused_rows_written", written)
        if written < len(ops):
            self.stats.fused_rows_unchanged += len(ops) - written
            registry.inc("dge.fused_rows_unchanged", len(ops) - written)
        return written

    # ------------------------------------------------------- synchronous API

    def process(self, delta: DocDelta) -> int:
        """Run one delta through all stages synchronously.

        Returns the number of fused rows written.  This is the unit the
        threaded mode pipelines; benches and tests drive it directly for
        per-batch identity checks.
        """
        with self._lock:
            return self._push(self._integrate(self._extract(delta)))

    def add_must(self, a: int, b: int) -> int:
        """HI feedback: must-link two mentions; propagates through fusion."""
        return self._constraint(self.resolver.add_must, a, b)

    def add_cannot(self, a: int, b: int) -> int:
        """HI feedback: cannot-link two mentions; propagates through fusion."""
        return self._constraint(self.resolver.add_cannot, a, b)

    def _constraint(self, op: Any, a: int, b: int) -> int:
        with self._lock:
            stats = op(a, b)
            self.stats.clusters_split += stats.clusters_split
            return self._push(self._retag(self.resolver.last_dirty))

    # ---------------------------------------------------------- threaded API

    def start(self) -> None:
        """Start the stage threads (extract | integrate+push) over bounded
        queues.  Submit work with :meth:`submit`; stop with :meth:`stop`."""
        if self._threads:
            raise RuntimeError("pipeline already started")
        in_q: queue.Queue = queue.Queue(self.queue_size)
        mid_q: queue.Queue = queue.Queue(self.queue_size)
        self._queues = [in_q, mid_q]

        def run_stage(source: queue.Queue, work: Any) -> None:
            while True:
                item = source.get()
                try:
                    if item is _STOP:
                        return
                    work(item)
                except Exception:
                    metrics.get_registry().inc("dge.stage_errors")
                finally:
                    source.task_done()

        def extract_stage(delta: DocDelta) -> None:
            extracted = self._extract(delta)
            self._observe_depth(mid_q)
            mid_q.put(extracted)

        def integrate_stage(extracted: _ExtractedDelta) -> None:
            with self._lock:
                self._push(self._integrate(extracted))

        self._threads = [
            threading.Thread(target=run_stage, args=(in_q, extract_stage),
                             name="dge-extract", daemon=True),
            threading.Thread(target=run_stage, args=(mid_q, integrate_stage),
                             name="dge-integrate", daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, delta: DocDelta) -> None:
        """Enqueue a delta; blocks when the pipeline is saturated
        (backpressure — deltas are never dropped)."""
        if not self._threads:
            raise RuntimeError("pipeline not started")
        self._observe_depth(self._queues[0])
        self._queues[0].put(delta)

    def drain(self) -> None:
        """Block until every submitted delta has fully flowed through."""
        for q in self._queues:
            q.join()

    def stop(self) -> None:
        """Drain, then stop the stage threads."""
        if not self._threads:
            return
        self.drain()
        for q, thread in zip(self._queues, self._threads):
            q.put(_STOP)
            thread.join()
        self._threads = []
        self._queues = []

    def _observe_depth(self, q: queue.Queue) -> None:
        depth = q.qsize()
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        metrics.get_registry().set_gauge("dge.queue_depth", depth)

    # ------------------------------------------------------------- oracles

    def oracle_clusters(self) -> list[EntityCluster]:
        """Batch re-resolution of the live mention set (identity gate),
        by the pipeline's own :class:`EntityResolver`."""
        return self.resolver.resolver.resolve(self.resolver.mentions(),
                                              self.resolver.constraints)

    def oracle_fused(self) -> list[FusedValue]:
        """From-scratch re-extraction-to-fusion over the live state."""
        canonical: dict[int, str] = {}
        for cluster in self.oracle_clusters():
            for mention_id in cluster.mention_ids:
                canonical[mention_id] = cluster.canonical_name
        tagged: list[Extraction] = []
        for mention_id, raw in self._raw.items():
            tagged.extend(replace(e, entity=canonical[mention_id])
                          for e in raw)
        return fuse_extractions(tagged, self.fusion.strategy)

    def fused_values(self) -> list[FusedValue]:
        """The incrementally-maintained fused values."""
        with self._lock:
            return self.fusion.fused()
