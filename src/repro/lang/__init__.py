"""The declarative IE+II+HI language — Figure 1, processing layer.

"At the heart of this layer is a data model, a declarative language (over
this data model) that combines IE, II, and HI, and a library of basic
operators. ... These programs can be parsed, reformulated, optimized, then
executed."

The language (we call it *xlog*, after the Wisconsin group's own naming) is
a sequence of assignments over streams of tuples:

.. code-block:: text

    pages  = docs()
    temps  = extract(pages, "temp_rules")
    cities = extract(pages, "city_dict")
    temps2 = filter(temps, confidence >= 0.6 and value < 130)
    fused  = fuse(temps2, "weighted_vote")
    good   = ask(fused, "validate", where = confidence < 0.8, redundancy = 5)
    output good

Predicates (``filter``, ``ask(where=...)``) are SQL predicates: the SQL
layer's :func:`~repro.storage.rdbms.sql.parse_predicate` parses them —
so LIKE, IN and IS NULL work too — and its ``eval_predicate`` evaluates
their leaves, under xlog's tuple semantics (:func:`repro.lang.ast.
eval_expr`: a missing field reads NULL, a comparison with NULL or of
incomparable values is false).

Pipeline: :func:`parse_program` → :class:`LogicalPlan` →
:class:`Optimizer` (rule-based rewrites + cost model) →
:class:`Executor` (optionally running extraction on the simulated
cluster).  Experiment E6 measures the optimizer's benefit.
"""

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
    ResolveOp,
    SelectOp,
    UnionOp,
)
from repro.lang.parser import ParseError, parse_program
from repro.lang.plan import LogicalPlan, PlanError
from repro.lang.registry import OperatorRegistry
from repro.lang.optimizer import Optimizer
from repro.lang.executor import ExecutionResult, ExecutionStats, Executor, run_program

__all__ = [
    "parse_program",
    "ParseError",
    "LogicalPlan",
    "PlanError",
    "OperatorRegistry",
    "Optimizer",
    "Executor",
    "ExecutionResult",
    "ExecutionStats",
    "run_program",
    "DocsOp",
    "ExtractOp",
    "FilterOp",
    "DocFilterOp",
    "SelectOp",
    "JoinOp",
    "FuseOp",
    "ResolveOp",
    "AskOp",
    "UnionOp",
    "LimitOp",
    "DedupOp",
]
