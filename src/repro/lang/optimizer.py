"""Rule-based and cost-based optimization of xlog plans.

The paper's processing layer parses, reformulates, *optimizes*, then
executes declarative IE+II+HI programs.  Two rewrites are implemented (both
semantics-preserving), plus a cost model that decides whether each rewrite
actually pays off:

* **Trigger pre-filtering** — an extractor that can only fire on documents
  containing certain keywords (see
  :meth:`~repro.extraction.base.Extractor.prefilter_terms`) gets a cheap
  :class:`~repro.lang.ast.DocFilterOp` inserted below it, so the expensive
  operator never scans irrelevant documents.  This is the classic
  "push cheap predicates below expensive extraction" optimization.
* **Filter fusion** — adjacent tuple filters merge into one conjunction
  (one pass instead of two).

The cost model estimates per-extractor work as
``cost_per_char × expected characters scanned``
(:func:`~repro.extraction.base.scan_cost`, which the simulated cluster's
task costs read too); document-filter selectivity is estimated on a
corpus sample, and a rewrite is kept only when it lowers the estimate.
Experiment E6 measures naive vs optimized execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.docmodel.document import Document
from repro.extraction.base import scan_cost
from repro.lang.ast import DocFilterOp, ExtractOp, FilterOp
from repro.lang.plan import LogicalPlan
from repro.lang.registry import OperatorRegistry
from repro.storage.rdbms.sql import BoolOp

SAMPLE_SIZE = 50  # documents sampled to estimate filter selectivity
DOCFILTER_COST_PER_CHAR = 0.05  # cost of the keyword pre-scan (cheap)


def doc_passes_keyword_groups(doc: Document, groups: list[list[str]]) -> bool:
    """True when for some group all keywords occur in the document.

    Uses the document's memoized lowercase text — this runs per document
    per filter *and* per selectivity probe, and re-lowercasing the full
    text each call was an O(corpus) allocation on the pre-filter path.
    """
    lowered = doc.text_lower
    return any(all(kw.lower() in lowered for kw in group) for group in groups)


def _pass_rate(sample: Sequence[Document], groups: list[list[str]]) -> float:
    """Share of a (non-empty) sample passing a keyword pre-filter."""
    return sum(doc_passes_keyword_groups(d, groups) for d in sample) / len(sample)


@dataclass
class CostEstimate:
    """Estimated work for a plan (abstract char-scan units)."""

    extract_cost: float = 0.0
    docfilter_cost: float = 0.0
    details: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.extract_cost + self.docfilter_cost


@dataclass
class Optimizer:
    """Optimizes a logical plan against a registry and corpus sample.

    Args:
        registry: resolves extractor names for prefilter terms and costs.
    """

    registry: OperatorRegistry

    def optimize(self, plan: LogicalPlan,
                 corpus_sample: Sequence[Document] = ()) -> LogicalPlan:
        """Produce an optimized copy of the plan.

        Rewrites are applied only when the cost model predicts a win on the
        provided sample (always applied when no sample is given, since the
        pre-filter is at worst a cheap extra scan).
        """
        optimized = plan.clone()
        self._fuse_adjacent_filters(optimized)
        self._insert_trigger_prefilters(optimized, corpus_sample)
        return optimized

    def estimate_cost(self, plan: LogicalPlan,
                      corpus_sample: Sequence[Document]) -> CostEstimate:
        """Cost estimate for a plan over a corpus like the sample."""
        estimate = CostEstimate()
        if not corpus_sample:
            return estimate
        avg_chars = sum(len(d.text) for d in corpus_sample) / len(corpus_sample)
        selectivity = self._stream_selectivities(plan, corpus_sample)
        for op in plan.topological():
            if isinstance(op, ExtractOp):
                extractor = self.registry.extractor(op.extractor)
                sel = selectivity.get(op.inputs[0], 1.0)
                cost = scan_cost(extractor, avg_chars) * sel
                estimate.extract_cost += cost
                estimate.details[op.name] = cost
            elif isinstance(op, DocFilterOp):
                sel = selectivity.get(op.inputs[0], 1.0)
                cost = DOCFILTER_COST_PER_CHAR * avg_chars * sel
                estimate.docfilter_cost += cost
                estimate.details[op.name] = cost
        return estimate

    # ------------------------------------------------------------ rewrites

    def _insert_trigger_prefilters(self, plan: LogicalPlan,
                                   corpus_sample: Sequence[Document]) -> None:
        counter = 0
        for op in list(plan.extract_ops()):
            extractor = self.registry.extractor(op.extractor)
            groups = extractor.prefilter_terms()
            if not groups:
                continue
            upstream = plan.ops[op.inputs[0]]
            if isinstance(upstream, DocFilterOp) and (
                upstream.keyword_groups == groups
            ):
                continue  # already filtered identically
            prefilter = DocFilterOp(
                name=f"__prefilter_{op.name}_{counter + 1}",
                inputs=[op.inputs[0]],
                keyword_groups=groups,
            )
            if corpus_sample:
                filtered = plan.clone()
                filtered.insert_before(op.name, prefilter)
                if self.estimate_cost(filtered, corpus_sample).total \
                        >= self.estimate_cost(plan, corpus_sample).total:
                    continue  # not worth it (filter passes ~everything)
            counter += 1
            plan.insert_before(op.name, prefilter)

    @staticmethod
    def _fuse_adjacent_filters(plan: LogicalPlan) -> None:
        changed = True
        while changed:
            changed = False
            for op in list(plan.ops.values()):
                if not isinstance(op, FilterOp):
                    continue
                upstream = plan.ops.get(op.inputs[0])
                if not isinstance(upstream, FilterOp):
                    continue
                consumers = plan.consumers_of(upstream.name)
                if len(consumers) != 1 or upstream.name == plan.output:
                    continue  # shared or output stream: leave alone
                op.predicate = BoolOp("and", (upstream.predicate, op.predicate))
                op.inputs = [upstream.inputs[0]]
                del plan.ops[upstream.name]
                changed = True
                break

    # ------------------------------------------------------------ internals

    def _stream_selectivities(self, plan: LogicalPlan,
                              corpus_sample: Sequence[Document]) -> dict[str, float]:
        """Fraction of documents flowing through each doc-stream variable."""
        sample = list(corpus_sample)[:SAMPLE_SIZE]
        selectivity: dict[str, float] = {}
        for op in plan.topological():
            if not plan.is_doc_stream(op.name):
                continue
            if isinstance(op, DocFilterOp):
                own = _pass_rate(sample, op.keyword_groups) if sample else 1.0
                selectivity[op.name] = selectivity.get(op.inputs[0], 1.0) * own
            else:
                selectivity[op.name] = 1.0
        return selectivity
