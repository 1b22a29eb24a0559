"""AST for the xlog language: operators, and the tuple semantics of their
SQL predicates.

Tuple streams are lists of dicts; document streams are lists of
:class:`~repro.docmodel.document.Document`.  Extract ops turn a document
stream into a tuple stream with the standard extraction fields
``doc_id, entity, attribute, value, confidence, span_start, span_end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.rdbms.planner import column_refs
from repro.storage.rdbms.sql import (BoolOp, ColumnRef, Comparison,
                                     InPredicate, LikePredicate, Literal,
                                     SqlError, eval_predicate)


# ------------------------------------------------------------- predicates
#
# A predicate is a SQL predicate (:func:`repro.storage.rdbms.sql.
# parse_predicate`); only xlog's tuple semantics live here.


def eval_expr(node: Any, row: dict[str, Any],
              fields: set[str] | None = None) -> bool:
    """Evaluate a predicate against one tuple.

    A field the tuple lacks reads NULL, and a comparison with NULL or of
    incomparable values is false (also under NOT), so filters never crash
    on heterogeneous tuples.  ``fields`` is :func:`expr_fields` of
    ``node``, for a caller that evaluates many tuples.
    """
    if fields is None:
        fields = expr_fields(node)
    if not row.keys() >= fields:
        row = dict.fromkeys(fields) | row
    return _truth(node, row)


def _truth(node: Any, row: dict[str, Any]) -> bool:
    if isinstance(node, BoolOp):
        if node.op == "and":
            return all(_truth(o, row) for o in node.operands)
        if node.op == "or":
            return any(_truth(o, row) for o in node.operands)
        return not _truth(node.operands[0], row)
    try:
        return eval_predicate(node, row)
    except SqlError:  # incomparable values
        return False


def expr_fields(node: Any) -> set[str]:
    """All field names a predicate references."""
    return {ref.name for ref in column_refs(node)}


def render_expr(node: Any) -> str:
    """Back to xlog source form, for plan display (and program identity)."""
    if isinstance(node, Literal):
        return repr(node.value)
    if isinstance(node, ColumnRef):
        return node.key()
    if isinstance(node, Comparison):
        return f"{render_expr(node.left)} {node.op} {render_expr(node.right)}"
    if isinstance(node, BoolOp):
        if node.op == "not":
            return f"not ({render_expr(node.operands[0])})"
        joiner = f" {node.op} "
        return "(" + joiner.join(render_expr(o) for o in node.operands) + ")"
    negation = "not " if node.negated else ""
    if isinstance(node, LikePredicate):
        return f"{node.column.key()} {negation}like {node.pattern!r}"
    if isinstance(node, InPredicate):
        values = ", ".join(map(repr, node.values))
        return f"{node.column.key()} {negation}in ({values})"
    return f"{node.column.key()} is {negation}null"


# ---------------------------------------------------------------- operators


@dataclass
class Op:
    """Base operator: ``name`` is the bound variable, ``inputs`` the
    operator's input variable names."""

    name: str = ""
    inputs: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class DocsOp(Op):
    """Source: the corpus bound at execution time."""

    def describe(self) -> str:
        return "docs()"


@dataclass
class ExtractOp(Op):
    """Run a registered extractor over a document stream."""

    extractor: str = ""

    def describe(self) -> str:
        return f"extract({self.inputs[0]}, {self.extractor!r})"


@dataclass
class FilterOp(Op):
    """Keep tuples satisfying a predicate expression."""

    predicate: Any = None

    def describe(self) -> str:
        return f"filter({self.inputs[0]}, {render_expr(self.predicate)})"


@dataclass
class DocFilterOp(Op):
    """Keep documents containing at least one keyword group.

    ``keyword_groups`` is a list of groups; a document passes when for some
    group *all* its keywords occur (case-insensitive substring).  Inserted
    by the optimizer as a cheap pre-filter before expensive extractors.
    """

    keyword_groups: list[list[str]] = field(default_factory=list)

    def describe(self) -> str:
        groups = " | ".join("&".join(g) for g in self.keyword_groups)
        return f"docfilter({self.inputs[0]}, {groups})"


@dataclass
class SelectOp(Op):
    """Project tuple fields."""

    fields: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return f"select({self.inputs[0]}, {', '.join(self.fields)})"


@dataclass
class JoinOp(Op):
    """Equi-join two tuple streams on a shared field."""

    on: str = ""

    def describe(self) -> str:
        return f"join({self.inputs[0]}, {self.inputs[1]}, on={self.on})"


@dataclass
class UnionOp(Op):
    """Concatenate two tuple streams."""

    def describe(self) -> str:
        return f"union({', '.join(self.inputs)})"


@dataclass
class FuseOp(Op):
    """Fuse conflicting extractions per (entity, attribute)."""

    strategy: str = "weighted_vote"

    def describe(self) -> str:
        return f"fuse({self.inputs[0]}, {self.strategy!r})"


@dataclass
class ResolveOp(Op):
    """Canonicalize entity names with a registered entity resolver."""

    resolver: str = ""

    def describe(self) -> str:
        return f"resolve({self.inputs[0]}, {self.resolver!r})"


@dataclass
class AskOp(Op):
    """Route tuples matching ``where`` to the crowd (HI operator).

    ``mode`` is ``validate`` (keep/drop each routed tuple by crowd verdict)
    or ``verify`` (same, but boost surviving confidence to the vote share).
    Tuples not matching ``where`` pass through untouched.
    """

    mode: str = "validate"
    where: Any = None
    redundancy: int = 3

    def describe(self) -> str:
        cond = render_expr(self.where) if self.where is not None else "true"
        return (f"ask({self.inputs[0]}, {self.mode!r}, where={cond}, "
                f"redundancy={self.redundancy})")


@dataclass
class LimitOp(Op):
    """Keep the first n tuples."""

    n: int = 0

    def describe(self) -> str:
        return f"limit({self.inputs[0]}, {self.n})"


@dataclass
class DedupOp(Op):
    """Drop duplicate tuples.

    Two tuples are duplicates when they agree on ``keys`` (all shared
    fields when ``keys`` is empty).  The first occurrence wins, so a
    higher-confidence extractor placed earlier in a union takes precedence.
    """

    keys: list[str] = field(default_factory=list)

    def describe(self) -> str:
        keys = ", ".join(self.keys) if self.keys else "*"
        return f"dedup({self.inputs[0]}, {keys})"
