"""Cost-based physical planner for the SQL serving path (DESIGN.md §11).

The naive interpreter in :mod:`repro.storage.rdbms.sql` materializes the
full join of both tables before applying WHERE and only exploits an index
for one top-level equality.  This module plans a *physical* tree instead:

* access paths — :class:`IndexLookup` (any equality conjunct of the AND
  with an index), :class:`PkLookup` (an equality on the primary key),
  :class:`RangeScan` (``<``/``<=``/``>``/``>=`` bounds over a sorted
  index), :class:`SegmentScan` (vectorized columnar scan
  over a compacted table: zone maps skip whole segments, AND-conjuncts
  evaluate column-at-a-time as selection bitmaps), :class:`FullScan`;
* joins — :class:`HashJoin` with statistics-driven build-side selection,
  :class:`IndexNestedLoopJoin` when a join column is indexed and the
  other side is small;
* predicate pushdown — WHERE conjuncts split per join side and applied
  *before* the join, with a residual :class:`Filter` on top;
* a selectivity-based cost model fed by
  :class:`~repro.storage.rdbms.stats.StatisticsManager`.

Operators hand each other **scan units**, not row dicts: ``("segment",
segment, positions)`` names frozen rows without decoding them, ``("rows",
[(rid, values), ...], None)`` carries tail (or joined) rows by reference
(:mod:`repro.storage.rdbms.table`).  Every access path emits them —
scans through the one scan kernel (:func:`select_units`), index and
primary-key probes through ``HeapTable.locate`` — :class:`Filter`
narrows them with the same column kernels, and the output stage
(:meth:`SelectPlan.execute`) picks ORDER BY / LIMIT survivors from the
key column alone and builds result dicts once, for those rows and the
projected columns only.

On top of the access paths sits one :class:`Aggregate` node folding one
:class:`AggState` — straight off the column buffers when its child is a
SegmentScan (float sums carry the running accumulator across segment
boundaries, so the addition chain is bit-identical to the naive
left-to-right fold).

Every operator preserves the naive interpreter's row *order* (rid order
for scans, left-rid-major for joins), so planner output is row-identical
to the naive path — the E19/E20 benches and the differential property
tests gate exactly that.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import CancellationToken
from repro.storage.rdbms.engine import GUARD_STRIDE, Database, Transaction
from repro.storage.rdbms.index import SortedIndex
from repro.storage.rdbms.segments import NAN_CODE, NULL_CODE, Segment, take
from repro.storage.rdbms.stats import MIN_SELECTIVITY
from repro.storage.rdbms.table import (TAIL_UNIT_ROWS, ScanUnit, unit_len,
                                       unit_rows)
from repro.storage.rdbms.types import ColumnType
from repro.storage.rdbms.sql import (
    Aggregate as AggregateExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    InPredicate,
    LikePredicate,
    Literal,
    NullPredicate,
    SelectStatement,
    SqlError,
    _COMPARE_FN,
    _feedback_keys,
    _like_to_regex,
    _resolve,
    eval_predicate,
    order_key,
)
from repro.telemetry import metrics

#: Fixed per-probe overhead charged to index operations, so a lookup is
#: never free and a full scan wins on tiny tables.
_PROBE_COST = 1.0

#: Per-row cost of reading a frozen row column-at-a-time, relative to a
#: heap-row read (typed buffers, no per-row dict build).
_COLUMNAR_DISCOUNT = 0.15


# --------------------------------------------------------- conjunct algebra


def split_conjuncts(node: Any) -> list[Any]:
    """Flatten a predicate's top-level AND tree into its conjuncts."""
    if node is None:
        return []
    if isinstance(node, BoolOp) and node.op == "and":
        out: list[Any] = []
        for operand in node.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [node]


def conjoin(conjuncts: list[Any]) -> Any:
    """Rebuild a predicate from conjuncts (None / single / AND)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BoolOp("and", tuple(conjuncts))


def column_refs(node: Any) -> list[ColumnRef]:
    """Every column reference appearing anywhere in a predicate."""
    if isinstance(node, ColumnRef):
        return [node]
    if isinstance(node, Comparison):
        return column_refs(node.left) + column_refs(node.right)
    if isinstance(node, (LikePredicate, NullPredicate, InPredicate)):
        return [node.column]
    if isinstance(node, BoolOp):
        out: list[ColumnRef] = []
        for operand in node.operands:
            out.extend(column_refs(operand))
        return out
    return []


_FLIPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

def _normalized_comparison(conjunct: Any) -> tuple[ColumnRef, str, Any] | None:
    """``col <op> literal`` in either orientation → (ref, op, literal)."""
    if not isinstance(conjunct, Comparison) or conjunct.op not in _COMPARE_FN:
        return None
    if isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal):
        return conjunct.left, conjunct.op, conjunct.right.value
    if isinstance(conjunct.right, ColumnRef) and isinstance(conjunct.left, Literal):
        op = _FLIPPED_OP.get(conjunct.op, conjunct.op)
        return conjunct.right, op, conjunct.left.value
    return None


def _eq_conjunct(node: Any) -> tuple[ColumnRef, Any] | None:
    """``col = literal`` (either orientation) → (ref, value), else None."""
    cmp = _normalized_comparison(node)
    return (cmp[0], cmp[2]) if cmp is not None and cmp[1] == "=" else None


def _range_conjunct(node: Any) -> tuple[ColumnRef, str, Any] | None:
    """``col <op> literal`` for an ordering op → (ref, op, value)."""
    cmp = _normalized_comparison(node)
    return cmp if cmp is not None and cmp[1] in _FLIPPED_OP else None


# ------------------------------------------------------ vectorized kernels


def _conjunct_column(conjunct: Any) -> ColumnRef | None:
    """The single column a conjunct tests against constants, or None when
    the conjunct cannot run as a column kernel (NOT/OR, col-col, ...)."""
    cmp = _normalized_comparison(conjunct)
    if cmp is not None:
        return cmp[0]
    if isinstance(conjunct, (LikePredicate, NullPredicate, InPredicate)):
        return conjunct.column
    return None


def _zone_map_prunes(segment: Segment, conjunct: Any) -> bool:
    """True when the zone map proves NO row of the segment satisfies the
    conjunct (conservative: unknown → False, never skip wrongly)."""
    cmp = _normalized_comparison(conjunct)
    if cmp is not None:
        ref, op, lit = cmp
        if lit is None:
            return True  # comparisons with NULL are false for every row
        col = segment.columns.get(ref.name)
        if col is None or col.count == 0:
            return False
        if col.null_count == col.count:
            return True  # only NULLs: every comparison is false
        lo, hi = col.min_value, col.max_value
        if lo is None or hi is None:
            return False  # no usable bounds (e.g. NaN-poisoned floats)
        try:
            if op == "=":
                if col.encoding == "dict" and lit not in col.dictionary:
                    return True
                return bool(lit < lo or lit > hi)
            if op == "!=":
                return bool(lo == lit and hi == lit)
            # no row beats the bound on the literal's side
            return not _COMPARE_FN[op](lo if op[0] == "<" else hi, lit)
        except TypeError:
            return False
    if isinstance(conjunct, NullPredicate):
        col = segment.columns.get(conjunct.column.name)
        if col is None:
            return False
        if conjunct.negated:  # IS NOT NULL
            return col.null_count == col.count
        return col.null_count == 0
    if isinstance(conjunct, InPredicate) and not conjunct.negated:
        if not conjunct.values:
            return True
        col = segment.columns.get(conjunct.column.name)
        if col is None or col.count == 0:
            return False
        if col.null_count and None in conjunct.values:
            return False  # NULL rows match ``IN (..., NULL)`` here
        lo, hi = col.min_value, col.max_value
        if lo is None or hi is None:
            return col.null_count == col.count
        try:
            return all(bool(v < lo or v > hi) for v in conjunct.values
                       if v is not None)
        except TypeError:
            return False
    return False


def _imprint_bitmap(col: Any, conjunct: Any, positions: Sequence[int] | None,
                    codes: bytes) -> bytearray:
    """:func:`_conjunct_bitmap` over an imprinted column (DESIGN.md §12):
    the conjunct's verdict on every code — on every value of a bucket,
    and on NaN and NULL — or a recheck, for the literal's own bucket
    (:meth:`Imprint.verdicts`, :meth:`Imprint.memberships`), applied by
    one ``bytes.translate`` (:meth:`Imprint.select`).  An incomparable
    literal raises TypeError in ``bisect``."""
    if isinstance(conjunct, LikePredicate):  # a number is never a string
        return bytearray([conjunct.negated]) * len(codes)
    imprint = col.imprint()
    if isinstance(conjunct, NullPredicate):
        table = bytearray([conjunct.negated]) * 256
        table[NULL_CODE] = not conjunct.negated
        return bytearray(codes.translate(table))
    if isinstance(conjunct, InPredicate):
        values, negated = conjunct.values, conjunct.negated
        return imprint.select(codes, imprint.memberships(values, negated),
                              partial(map, values.__contains__), col.data,
                              positions, negated)
    _, op, lit = _normalized_comparison(conjunct)
    fn = _COMPARE_FN[op]
    if lit is None:
        return bytearray(len(codes))
    return imprint.select(codes, imprint.verdicts(fn, lit),
                          lambda cells: map(fn, cells, repeat(lit)),
                          col.data, positions)


def _conjunct_bitmap(col: Any, conjunct: Any,
                     positions: Sequence[int] | None, codes: bytes | None,
                     cells: Callable[[], Sequence[Any]],
                     null_flags: Callable[[], Sequence[int] | None],
                     ) -> bytearray:
    """Selection bitmap of one kernel conjunct over the cells of the
    column segment ``col`` at ``positions`` (None: all, as stored), in
    that order.  An imprinted column reads ``codes``, its imprint's codes
    of those cells (:func:`_imprint_bitmap`); any other reads ``cells()``,
    the stored cells, and — for IS [NOT] NULL only — ``null_flags()``,
    their null flags (None: no NULLs).  One byte, 0 or 1, per cell:
    counting, finding and slicing the bitmap run in C.

    Matches :func:`repro.storage.rdbms.sql.eval_predicate` exactly on
    every cell.  May raise TypeError on incomparable operands — the
    caller falls back to row-at-a-time evaluation for the segment, which
    reproduces the naive error surface.
    """
    if codes is not None:
        return _imprint_bitmap(col, conjunct, positions, codes)
    data = cells()
    dictionary = col.dictionary  # (None: a raw column, NULL stored as None)
    cmp = _normalized_comparison(conjunct)
    if cmp is not None:
        _, op, lit = cmp
        fn = _COMPARE_FN[op]
        if lit is None:
            return bytearray(len(data))
        if dictionary is not None:
            # NULL's code, -1, indexes the verdict appended last.
            matches = [fn(entry, lit) for entry in dictionary] + [False]
            return bytearray(map(matches.__getitem__, data))
        return bytearray([v is not None and fn(v, lit) for v in data])
    if isinstance(conjunct, NullPredicate):
        flags = null_flags()
        if flags is None:
            return bytearray([conjunct.negated]) * len(data)
        if conjunct.negated:
            return bytearray(map(operator.not_, flags))
        return bytearray(flags)
    negated = conjunct.negated
    if isinstance(conjunct, LikePredicate):
        regex = _like_to_regex(conjunct.pattern)
        if dictionary is not None:
            matches = [bool(regex.match(entry)) != negated
                       for entry in dictionary] + [negated]
            return bytearray(map(matches.__getitem__, data))
        return bytearray([(bool(regex.match(v)) != negated)
                          if isinstance(v, str) else negated for v in data])
    values = conjunct.values
    if dictionary is not None:
        matches = [(entry in values) != negated for entry in dictionary] \
            + [(None in values) != negated]
        return bytearray(map(matches.__getitem__, data))
    return bytearray([(v in values) != negated for v in data])


# ------------------------------------------------------ predicate rendering


def _render_operand(operand: Any) -> str:
    if isinstance(operand, ColumnRef):
        return operand.key()
    if isinstance(operand, Literal):
        value = operand.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return str(value)
    return repr(operand)


def render_predicate(node: Any) -> str:
    """SQL-ish text for a predicate AST (used by EXPLAIN output)."""
    if node is None:
        return "TRUE"
    if isinstance(node, Comparison):
        return (f"{_render_operand(node.left)} {node.op} "
                f"{_render_operand(node.right)}")
    if isinstance(node, LikePredicate):
        keyword = "NOT LIKE" if node.negated else "LIKE"
        pattern = node.pattern.replace("'", "''")
        return f"{node.column.key()} {keyword} '{pattern}'"
    if isinstance(node, NullPredicate):
        return f"{node.column.key()} IS {'NOT ' if node.negated else ''}NULL"
    if isinstance(node, InPredicate):
        keyword = "NOT IN" if node.negated else "IN"
        values = ", ".join(_render_operand(Literal(v)) for v in node.values)
        return f"{node.column.key()} {keyword} ({values})"
    if isinstance(node, BoolOp):
        if node.op == "not":
            return f"NOT ({render_predicate(node.operands[0])})"
        parts = [
            f"({render_predicate(op)})" if isinstance(op, BoolOp)
            else render_predicate(op)
            for op in node.operands
        ]
        return f" {node.op.upper()} ".join(parts)
    return repr(node)


# ------------------------------------------------------ operator profiling


class OperatorProfile:
    """Per-operator actuals collected under ``EXPLAIN ANALYZE``.

    Blocking steps (the aggregate stage, a fold, the output stage) record
    one exact ``perf_counter`` pair; unit streams are timed and counted
    per unit — exact row counts at a cost per *unit*, not per row, so
    ANALYZE stays cheap on million-row flows.  Times are inclusive of
    children, like the estimates they sit next to.
    """

    __slots__ = ("rows", "loops", "seconds",
                 "segments_scanned", "segments_skipped", "rows_masked",
                 "index_probes", "groups")

    def __init__(self) -> None:
        self.rows = 0
        self.loops = 0
        self.seconds = 0.0
        self.segments_scanned = 0
        self.segments_skipped = 0
        self.rows_masked = 0  # dead positions of the segments scanned
        self.index_probes = 0
        self.groups = 0  # group slices an aggregate folded off segments

    def timed(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one blocking step under an exact timer pair."""
        self.loops += 1
        t0 = perf_counter()
        out = fn(*args)
        self.seconds += perf_counter() - t0
        return out

    def streamed(self, units: Iterator[ScanUnit]) -> Iterator[ScanUnit]:
        """Pass scan units through, counting their rows and the time
        spent producing them."""
        self.loops += 1
        while True:
            t0 = perf_counter()
            try:
                unit = next(units)
            except StopIteration:
                return
            finally:
                self.seconds += perf_counter() - t0
            self.rows += unit_len(*unit)
            yield unit

    def absorb_scan(self, child: "OperatorProfile") -> None:
        """Count a folded child's pruning inclusively, like its time."""
        self.segments_scanned += child.segments_scanned
        self.segments_skipped += child.segments_skipped

    def describe(self) -> str:
        if self.loops == 0 and self.rows == 0 and self.seconds == 0.0:
            return "never executed"
        parts = [f"actual rows={self.rows}", f"loops={self.loops}",
                 f"time={self.seconds * 1000.0:.2f}ms"]
        if self.index_probes:
            parts.append(f"probes={self.index_probes}")
        if self.segments_scanned or self.segments_skipped:
            parts.append(f"segments={self.segments_scanned} "
                         f"pruned={self.segments_skipped}")
        if self.rows_masked:
            parts.append(f"masked={self.rows_masked}")
        if self.groups:
            parts.append(f"groups={self.groups}")
        return " ".join(parts)


# --------------------------------------------------------- physical plan


class PlanNode:
    """A physical operator: ``units(txn)`` streams its rows as scan units
    (nothing decoded, tail rows by reference), ``rows(txn)`` the same
    rows as ``(rid, values)`` pairs for consumers that need whole rows
    (joins, projection row by row), ``fold(txn, state)`` folds them into
    an aggregate stage's :class:`AggState`, ``render()`` the EXPLAIN
    subtree.

    An operator implements ``_units``; the public entry points own the
    :class:`OperatorProfile` accounting — one ``profile is None`` test
    per open and nothing per row.
    """

    est_rows: float | None = 0.0  # None: not costed (the aggregate stage)
    cost: float = 0.0
    #: set on every node of a plan by :meth:`SelectPlan.enable_profiling`
    profile: OperatorProfile | None = None
    #: telemetry counter bumped when the planner picks this operator
    plan_counter: str | None = None
    stops_early = False  # may yield fewer rows than match: no feedback

    def units(self, txn: Transaction) -> Iterator[ScanUnit]:
        prof = self.profile
        if prof is None:
            return self._units(txn)
        return prof.streamed(self._units(txn))

    def rows(self, txn: Transaction) -> Iterator[tuple[int, dict[str, Any]]]:
        for unit in self.units(txn):
            yield from unit_rows(*unit)

    def fold(self, txn: Transaction, state: "AggState") -> int:
        """Fold this node's rows into ``state``; returns how many."""
        prof = self.profile
        if prof is None:
            return self._fold(txn, state)
        n = prof.timed(self._fold, txn, state)
        prof.rows += n
        return n

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        """The operator's rows as scan units, in output order.  Always a
        generator: nothing runs (no lock, no probe) until the first unit
        is asked for."""
        raise NotImplementedError

    def _fold(self, txn: Transaction, state: "AggState") -> int:
        """Fold into ``state``; returns the number of rows folded.  A
        node without a kernel of its own folds its units as they come:
        rows units row by row, segment positions off the columns."""
        return sum(state.add_unit(*unit) for unit in self._units(txn))

    def fold_plan(self, stmt: SelectStatement,
                  schema: Any) -> tuple[str, str] | None:
        """``(EXPLAIN name, plan counter)`` of the aggregate stage when
        this node folds ``stmt`` with a kernel of its own, or None: the
        stage is a plain ``Aggregate`` over the base fold."""
        return None

    def feedback_keys(self) -> list[tuple[str, str]]:
        """(column, predicate shape) pairs behind this node's estimate."""
        return []

    def children(self) -> list["PlanNode"]:
        return []

    def label(self) -> str:
        raise NotImplementedError

    def render(self, indent: int = 0) -> list[str]:
        text = self.label()
        if self.est_rows is not None:
            text += (f"  [rows~{max(round(self.est_rows), 0)} "
                     f"cost~{max(round(self.cost), 0)}]")
        if self.profile is not None:
            text += f"  ({self.profile.describe()})"
        lines = ["  " * indent + text]
        for child in self.children():
            lines.extend(child.render(indent + 1))
        return lines


class FullScan(PlanNode):
    """Read every row of a heap table (rid order), streaming."""

    plan_counter = "planner.plans.full_scan"

    def __init__(self, table: str) -> None:
        self.table = table

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        guard = txn.guard
        for unit in txn.scan_units(self.table):
            if guard is not None:
                guard.check()
            yield unit

    def label(self) -> str:
        return f"FullScan({self.table})"


class IndexLookup(PlanNode):
    """Equality probe of a secondary index (rows come back in rid order)."""

    plan_counter = "planner.plans.index_lookup"

    def __init__(self, table: str, column: str, value: Any,
                 kind: str) -> None:
        self.table = table
        self.column = column
        self.value = value
        self.kind = kind

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        yield from txn.lookup_units(self.table, self.column, self.value)

    def feedback_keys(self) -> list[tuple[str, str]]:
        return [(self.column, "eq")]

    def label(self) -> str:
        rendered = _render_operand(Literal(self.value))
        return (f"IndexLookup({self.table}.{self.column} = {rendered} "
                f"via {self.kind} index)")


class PkLookup(PlanNode):
    """Probe of the table's primary-key map: at most one row."""

    plan_counter = "planner.plans.pk_lookup"

    def __init__(self, table: str, column: str, value: Any) -> None:
        self.table = table
        self.column = column
        self.value = value

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        yield from txn.pk_units(self.table, self.value)

    def feedback_keys(self) -> list[tuple[str, str]]:
        return [(self.column, "eq")]

    def label(self) -> str:
        rendered = _render_operand(Literal(self.value))
        return f"PkLookup({self.table}.{self.column} = {rendered})"


class RangeScan(PlanNode):
    """Bounded scan of a sorted index; rows re-sorted to rid order so the
    output order matches a filtered full scan exactly."""

    plan_counter = "planner.plans.range_scan"

    def __init__(self, table: str, column: str, low: Any, high: Any,
                 include_low: bool, include_high: bool) -> None:
        self.table = table
        self.column = column
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        try:
            units = txn.range_units(self.table, self.column, self.low,
                                    self.high, self.include_low,
                                    self.include_high)
        except TypeError as exc:
            # Same surface as the naive evaluator comparing incomparable
            # operands row by row.
            raise SqlError(
                f"type error in range scan on {self.table}.{self.column}"
            ) from exc
        yield from units

    def feedback_keys(self) -> list[tuple[str, str]]:
        return [(self.column, "range")]

    def label(self) -> str:
        lo = "(-inf" if self.low is None else \
            ("[" if self.include_low else "(") + _render_operand(Literal(self.low))
        hi = "+inf)" if self.high is None else \
            _render_operand(Literal(self.high)) + ("]" if self.include_high else ")")
        return (f"RangeScan({self.table}.{self.column} in {lo}, {hi} "
                f"via sorted index)")


# ------------------------------------------------------------- scan kernel


class ScanPredicate:
    """A scan's WHERE, split for the scan kernel: ``vector`` conjuncts
    run as column bitmaps (and against zone maps), ``fallback`` re-checks
    survivors row-at-a-time."""

    __slots__ = ("conjuncts", "vector", "fallback", "full")

    def __init__(self, conjuncts: list[Any], schema: Any, table: str,
                 kernel: Sequence[bool] | None = None) -> None:
        """``kernel``: :meth:`kernel_flags` of the conjuncts, when a
        prepared statement holds them already."""
        if kernel is None:
            kernel = self.kernel_flags(conjuncts, schema, table)
        self.conjuncts = list(conjuncts)
        self.vector = list(compress(conjuncts, kernel))
        self.fallback = conjoin(
            [c for c, vector in zip(conjuncts, kernel) if not vector])
        self.full = conjoin(self.conjuncts)

    @staticmethod
    def kernel_flags(conjuncts: list[Any], schema: Any,
                     table: str) -> tuple[bool, ...]:
        """Per conjunct: True when it runs as a column kernel over
        ``table`` — it tests one of its columns against constants."""
        flags = []
        for conjunct in conjuncts:
            ref = _conjunct_column(conjunct)
            flags.append(ref is not None and ref.table in (None, table)
                         and schema.has_column(ref.name))
        return tuple(flags)

    def feedback_keys(self) -> list[tuple[str, str]]:
        return [key for c in self.conjuncts for key in _feedback_keys(c)]


def _segment_selection(segment: Segment, vector_conjuncts: list[Any],
                       positions: Sequence[int] | None = None,
                       ) -> Sequence[int] | None:
    """The positions (all, or of ``positions``) passing every kernel
    conjunct — each kernel reads only what the ones before it let
    through — or None when a kernel hit incomparable operands (caller
    reverts to row evaluation)."""
    if positions is not None and len(positions) == segment.count:
        positions = None
    try:
        for conjunct in vector_conjuncts:
            col = segment.columns[_conjunct_column(conjunct).name]
            imprint = col.imprint()
            bits = _conjunct_bitmap(
                col, conjunct, positions, imprint and imprint.at(positions),
                lambda: (col.data if positions is None
                         else take(col.data, positions)),
                lambda: col.null_flags(positions))
            positions = list(compress(
                range(segment.count) if positions is None else positions,
                bits))
    except TypeError:
        return None
    return range(segment.count) if positions is None else positions


def filter_unit(kind: str, unit: Any, selected: Sequence[int] | None,
                pred: ScanPredicate,
                guard: CancellationToken | None = None) -> ScanUnit:
    """What is left of one scan unit under ``pred``.

    Segment positions go through the kernel conjuncts (restricted to
    ``selected``); fallback conjuncts decode the survivors to decide, and
    only then.  Rows units — and a
    segment whose kernels hit incomparable operands, so that row-by-row
    evaluation reproduces the naive error surface — run the whole
    predicate through the row evaluator, polling ``guard`` every
    :data:`GUARD_STRIDE` rows; their value dicts pass by reference.
    """
    if kind == "segment":
        survivors = _segment_selection(unit, pred.vector, selected)
        if survivors is not None:
            fallback = pred.fallback
            if fallback is not None:
                survivors = [
                    pos for pos, (_, values)
                    in zip(survivors, unit.rows_at(survivors))
                    if eval_predicate(fallback, values)]
            return kind, unit, survivors
        unit = unit.rows_at(selected)
    full = pred.full
    if full is None:
        return "rows", unit if isinstance(unit, list) else list(unit), None
    keep = []
    for n, item in enumerate(unit):
        if guard is not None and not n % GUARD_STRIDE:
            guard.check()
        if eval_predicate(full, item[1]):
            keep.append(item)
    return "rows", keep, None


def prune_units(units: Iterable[ScanUnit], pred: ScanPredicate,
                guard: CancellationToken | None = None,
                prof: OperatorProfile | None = None) -> Iterator[ScanUnit]:
    """A table's scan units minus the segments the zone maps prove
    empty (``segments.skipped``), polling ``guard`` once per unit.

    A segment arrives as one stretch of live positions or, around tail
    rows that replaced some of its rows, several in a row: it is pruned
    and counted once.
    """
    registry = metrics.get_registry()
    # The latest segment, whether it was pruned, and the first of its
    # positions no stretch has reached yet (EXPLAIN ANALYZE's masked=
    # counts the live-position gaps: the dead positions scanned past).
    segment, pruned, reached = None, True, 0
    count_masked = prof is not None
    for kind, unit, selected in units:
        if guard is not None:
            guard.check()
        if kind == "segment":
            if unit is not segment:
                if count_masked and not pruned:
                    prof.rows_masked += segment.count - reached
                segment, reached = unit, 0
                pruned = any(_zone_map_prunes(unit, c) for c in pred.vector)
                if pruned:
                    registry.inc("segments.skipped")
                    if prof is not None:
                        prof.segments_skipped += 1
                else:
                    registry.inc("segments.scanned")
                    if prof is not None:
                        prof.segments_scanned += 1
            if pruned:
                continue
            if count_masked:
                prof.rows_masked += selected[-1] + 1 - reached - len(selected)
                reached = selected[-1] + 1
        yield kind, unit, selected
    if count_masked and not pruned:
        prof.rows_masked += segment.count - reached


def select_units(units: Iterable[ScanUnit], pred: ScanPredicate,
                 guard: CancellationToken | None = None,
                 prof: OperatorProfile | None = None,
                 walk: tuple[str, bool, int] | None = None,
                 ) -> Iterator[ScanUnit]:
    """The scan kernel: a table's scan units narrowed to the rows
    matching ``pred`` — :func:`prune_units`, then :func:`filter_unit` on
    every unit left.  Units nothing survives in are not yielded.  A top-k
    ``walk`` (order column, desc, k) stops a segment at ``k``
    (:func:`_walked`)."""
    for kind, unit, selected in prune_units(units, pred, guard, prof):
        out = _walked(unit, selected, pred, walk, guard) \
            if walk is not None and kind == "segment" else None
        if out is None:
            out = filter_unit(kind, unit, selected, pred, guard)
        if unit_len(*out):
            yield out


def _walked(segment: Segment, selected: Sequence[int], pred: ScanPredicate,
            walk: tuple[str, bool, int],
            guard: CancellationToken | None) -> ScanUnit | None:
    """:func:`filter_unit` over the rows :meth:`Imprint.top` walks, or None
    (a NaN key, incomparable operands): the caller filters the unit."""
    column, desc, k = walk

    def keep(positions: Sequence[int]) -> Sequence[int] | None:
        metrics.get_registry().inc("planner.topk.rows_walked", len(positions))
        kind, _, survivors = filter_unit("segment", segment, positions,
                                         pred, guard)
        return survivors if kind == "segment" else None

    imprint = segment.columns[column].imprint()
    numbers = imprint and imprint.top(selected, desc, k, keep)
    return None if numbers is None \
        else ("segment", segment, take(selected, numbers))


def fold_units(units: Iterable[ScanUnit], pred: ScanPredicate,
               state: "AggState", guard: CancellationToken | None = None,
               prof: OperatorProfile | None = None) -> int:
    """The scan kernel for the aggregate: fold every matching row into
    ``state`` — a segment one group slice at a time, evaluating the kernel
    conjuncts itself (fallback conjuncts select its rows first), tail rows
    one by one.  Returns the rows folded."""
    n = 0
    for kind, unit, selected in prune_units(units, pred, guard, prof):
        if kind == "segment" and pred.fallback is None:
            folded = state.add_segment(unit, selected, pred.vector)
            if folded is not None:
                n += folded
                continue
        n += state.add_unit(*filter_unit(kind, unit, selected, pred, guard))
    return n


class SegmentScan(PlanNode):
    """Columnar scan of a compacted table: the full WHERE is evaluated by
    this node (no residual filter), units stream out in rid order.

    Per segment: zone maps first (a conjunct the whole segment provably
    fails skips it without touching data), then every kernel conjunct
    becomes a selection bitmap evaluated column-at-a-time (dictionary
    predicates evaluate once per distinct string) over the positions the
    previous ones kept; the survivors travel on as positions.  Non-kernel
    conjuncts (NOT/OR, column-to-column) run row-at-a-time on survivors;
    tail rows run through the ordinary row evaluator.
    """

    plan_counter = "planner.plans.segment_scan"

    def __init__(self, table: str, pred: ScanPredicate,
                 walk: tuple[str, bool, int] | None = None) -> None:
        self.table = table
        self.pred = pred
        self.walk = walk  # a top-k walk's (see select_units)
        self.stops_early = walk is not None

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        yield from select_units(txn.scan_units(self.table), self.pred,
                                txn.guard, self.profile, self.walk)

    def _fold(self, txn: Transaction, state: "AggState") -> int:
        return fold_units(txn.scan_units(self.table), self.pred, state,
                          txn.guard, self.profile)

    def fold_plan(self, stmt: SelectStatement,
                  schema: Any) -> tuple[str, str] | None:
        return "VectorizedAggregate", "planner.plans.vectorized_agg"

    def feedback_keys(self) -> list[tuple[str, str]]:
        return self.pred.feedback_keys()

    def label(self) -> str:
        walk = "" if self.walk is None else \
            f", walk={self.walk[0]} {'desc' if self.walk[1] else 'asc'}"
        return (f"SegmentScan({self.table}, "
                f"pred={render_predicate(self.pred.full)}{walk})")


class Filter(PlanNode):
    """Apply a (residual or pushed) predicate to the child's units:
    kernel conjuncts run column-at-a-time over the positions the child
    selected, rows units through the row evaluator."""

    def __init__(self, pred: ScanPredicate, child: PlanNode,
                 role: str = "filter") -> None:
        self.pred = pred
        self.child = child
        self.role = role  # 'filter' (residual) | 'pushed'

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        for unit in self.child.units(txn):
            out = filter_unit(*unit, self.pred, txn.guard)
            if unit_len(*out):
                yield out

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        name = "Filter" if self.role == "filter" else "PushedFilter"
        return f"{name}({render_predicate(self.pred.full)})"


_Row = tuple[int, dict[str, Any]]  # (rid, values)


def _combine(left_table: str, lvalues: dict[str, Any],
             right_table: str, rvalues: dict[str, Any]) -> dict[str, Any]:
    """Joined row shaped exactly like the naive interpreter's: qualified
    keys plus unqualified (left wins on collision)."""
    row: dict[str, Any] = {}
    for k, v in lvalues.items():
        row[f"{left_table}.{k}"] = v
        row.setdefault(k, v)
    for k, v in rvalues.items():
        row[f"{right_table}.{k}"] = v
        row.setdefault(k, v)
    return row


_JoinPairs = list[tuple[tuple[int, int], dict[str, Any]]]


def hash_join_pairs(left_rows: list[_Row], right_rows: list[_Row],
                    left_table: str, right_table: str, left_col: str,
                    right_col: str, build: str = "right") -> _JoinPairs:
    """Equi-join two rid-ordered inputs into ``((left rid, right rid),
    joined row)`` pairs sorted by that key, whichever side the hash
    table is built on."""
    build_left = build == "left"
    build_rows, build_col, probe_rows, probe_col = \
        (left_rows, left_col, right_rows, right_col) if build_left \
        else (right_rows, right_col, left_rows, left_col)
    buckets: dict[Any, list[_Row]] = {}
    for brow in build_rows:
        buckets.setdefault(brow[1].get(build_col), []).append(brow)
    pairs: _JoinPairs = []
    for prow in probe_rows:
        key = prow[1].get(probe_col)
        if key is None:
            continue
        for brow in buckets.get(key, ()):
            (lrid, lvalues), (rrid, rvalues) = \
                (brow, prow) if build_left else (prow, brow)
            pairs.append(((lrid, rrid), _combine(left_table, lvalues,
                                                 right_table, rvalues)))
    if build_left:  # probing in right-rid order: restore key order
        pairs.sort(key=itemgetter(0))
    return pairs


def joined_unit(pairs: Iterable[tuple[tuple[int, int], dict[str, Any]]],
                ) -> ScanUnit:
    """Join output as one rows unit: the joined row under its left rid."""
    return "rows", [(key[0], row) for key, row in pairs], None


class HashJoin(PlanNode):
    """Equi-join building a hash table on the cheaper side.

    Output is always in (left rid, right rid) order — when the build
    side is the left input the probe-order output is re-sorted, so the
    build-side choice is invisible in results.
    """

    plan_counter = "planner.plans.hash_join"

    def __init__(self, left: PlanNode, right: PlanNode, left_table: str,
                 right_table: str, left_col: str, right_col: str,
                 build: str) -> None:
        self.left = left
        self.right = right
        self.left_table = left_table
        self.right_table = right_table
        self.left_col = left_col
        self.right_col = right_col
        self.build = build  # 'left' | 'right'

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        yield joined_unit(hash_join_pairs(
            list(self.left.rows(txn)), list(self.right.rows(txn)),
            self.left_table, self.right_table, self.left_col,
            self.right_col, self.build))

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return (f"HashJoin({self.left_table}.{self.left_col} = "
                f"{self.right_table}.{self.right_col}, build={self.build})")


class IndexNestedLoopJoin(PlanNode):
    """Probe the inner table's index once per outer row.

    The inner side has no access-path subtree — the probe *is* its
    access path; any conjuncts pushed to the inner side narrow each
    probe's units (``inner_pred``) before a row is decoded.  Output is
    re-sorted into (left rid, right rid) order when the outer side is
    the right input.
    """

    plan_counter = "planner.plans.index_nested_loop_join"

    def __init__(self, outer: PlanNode, outer_col: str, inner_table: str,
                 inner_col: str, inner_pred: ScanPredicate, outer_side: str,
                 left_table: str, right_table: str, kind: str) -> None:
        self.outer = outer
        self.outer_col = outer_col
        self.inner_table = inner_table
        self.inner_col = inner_col
        self.inner_pred = inner_pred
        self.outer_side = outer_side  # 'left' | 'right'
        self.left_table = left_table
        self.right_table = right_table
        self.kind = kind

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        pairs: _JoinPairs = []
        prof = self.profile
        inner_pred = self.inner_pred
        outer_left = self.outer_side == "left"
        for orid, ovalues in self.outer.rows(txn):
            key = ovalues.get(self.outer_col)
            if key is None:
                continue
            if prof is not None:
                prof.index_probes += 1
            for unit in txn.lookup_units(self.inner_table, self.inner_col,
                                         key):
                if inner_pred.full is not None:
                    unit = filter_unit(*unit, inner_pred, txn.guard)
                for irid, ivalues in unit_rows(*unit):
                    pairs.append(
                        ((orid, irid), _combine(self.left_table, ovalues,
                                                self.right_table, ivalues))
                        if outer_left else
                        ((irid, orid), _combine(self.left_table, ivalues,
                                                self.right_table, ovalues)))
        if not outer_left:
            pairs.sort(key=itemgetter(0))
        yield joined_unit(pairs)

    def children(self) -> list[PlanNode]:
        return [self.outer]

    def label(self) -> str:
        outer_table = self.left_table if self.outer_side == "left" \
            else self.right_table
        label = (f"IndexNestedLoopJoin({outer_table}.{self.outer_col} = "
                 f"{self.inner_table}.{self.inner_col}, "
                 f"inner={self.inner_table} via {self.kind} index")
        if self.inner_pred.full is not None:
            label += (", inner filter: "
                      f"{render_predicate(self.inner_pred.full)}")
        return label + ")"


# --------------------------------------------------------------- aggregate


def _gaps(positions: Sequence[int], i: int = 0, j: int = -1) -> list[int]:
    """What the ascending ``positions[i:j + 1]`` skip between their ends,
    by bisection: a stretch costs its gaps, not its length."""
    j %= len(positions)
    if positions[j] - positions[i] == j - i:
        return []
    if j - i == 1:
        return list(range(positions[i] + 1, positions[j]))
    mid = (i + j) // 2
    return _gaps(positions, i, mid) + _gaps(positions, mid, j)


class AggState:
    """The running state of one aggregate stage — COUNT/SUM/AVG/MIN/MAX
    per GROUP BY key — folded row by row (:meth:`add_row`) or straight
    off a segment's column buffers (:meth:`add_segment`).

    :meth:`finalize` is element-identical to the naive ``_aggregate``,
    and a fold raises what it raises (a name resolves like ``_resolve``;
    SUM over TEXT adds strings, never dictionary codes; a select item
    neither aggregated nor grouped fails once a group exists):

    * float SUM/AVG carry the running accumulator across units (``sum``
      with a ``start``), so the addition chain is the same left-to-right
      fold over rid order the naive path performs;
    * MIN/MAX keep the first extremum under the ``v < cur`` / ``v > cur``
      rules the builtins use (FLOAT columns run element-wise because
      zone-map bounds are not trustworthy under NaN);
    * group keys and output rows are ordered exactly like the naive
      ``sorted(groups.items(), ...)`` (dict insertion order breaks ties).
    """

    def __init__(self, stmt: SelectStatement) -> None:
        self.stmt = stmt
        #: group key -> one accumulator per aggregate item
        self.groups: dict[tuple, list[list[Any]]] = {}
        #: group slices folded off segments (EXPLAIN ANALYZE's groups=)
        self.slices = 0
        self._group_names = [g.name for g in stmt.group_by]
        #: (output key, function, column; None for COUNT(*)) per aggregate
        self._agg_items = [
            (item.key(), item.expr.func, item.expr.column)
            for item in stmt.items if isinstance(item.expr, AggregateExpr)
        ]
        self._names = {*self._group_names, *(
            ref.name for _, _, ref in self._agg_items if ref is not None)}
        #: a select item the naive fold rejects in every group it emits
        self._ungrouped = next((
            item for item in stmt.items
            if not isinstance(item.expr, AggregateExpr)
            and item.expr.name not in self._group_names), None)
        #: the segment folded last and its kernels' verdicts: its stretches
        #: arrive one after another
        self._verdicts: tuple[Segment, bytearray] | None = None

    # ----------------------------------------------------- accumulation

    @staticmethod
    def _new_acc(func: str) -> list[Any]:
        if func == "count":
            return [0]
        if func in ("sum", "avg"):
            return [0, 0]  # running sum (starts at int 0, like sum()), n
        return [False, None]  # have-value flag, extremum

    def _accs_for(self, key: tuple) -> list[list[Any]]:
        accs = self.groups.get(key)
        if accs is None:
            if self._ungrouped is not None:
                raise SqlError(f"column {self._ungrouped.key()!r} "
                               "must appear in GROUP BY")
            accs = self.groups[key] = [self._new_acc(func)
                                       for _, func, _ in self._agg_items]
        return accs

    def add_row(self, row: dict[str, Any]) -> None:
        accs = self._accs_for(
            tuple([_resolve(row, ref) for ref in self.stmt.group_by]))
        for acc, (_, func, ref) in zip(accs, self._agg_items):
            if ref is None:  # COUNT(*)
                acc[0] += 1
                continue
            v = _resolve(row, ref)
            if v is None:
                continue
            if func == "count":
                acc[0] += 1
            elif func == "min":
                if not acc[0]:
                    acc[0], acc[1] = True, v
                elif v < acc[1]:
                    acc[1] = v
            elif func == "max":
                if not acc[0]:
                    acc[0], acc[1] = True, v
                elif v > acc[1]:
                    acc[1] = v
            else:  # sum / avg (not +=: TEXT raises the naive sum's error)
                acc[0] = acc[0] + v
                acc[1] += 1

    def add_unit(self, kind: str, unit: Any,
                 selected: Sequence[int] | None) -> int:
        """Fold every row of one scan unit; returns how many."""
        if kind == "segment":
            return self.add_segment(unit, selected)
        for _, values in unit:
            self.add_row(values)
        return len(unit)

    def add_segment(self, segment: Segment, selected: Sequence[int],
                    vector: Sequence[Any] = ()) -> int | None:
        """Fold the ascending positions ``selected`` of one segment that
        pass the kernel conjuncts ``vector``; returns the rows folded, or
        None when a kernel hit incomparable operands or a named column is
        missing (nothing is folded: the caller selects the rows first).

        A group is a slice of :meth:`Segment.group_order`, cut to the
        ends of ``selected``.  The kernels run once per segment, over the
        whole order, and only the groups they keep a row of are visited:
        a slice clears what ``selected`` skips and folds the rest in
        position order, continuing the row fold's exact left-to-right
        chain.  Groups enter :attr:`groups` in the order of their first
        row.
        """
        if not selected:
            return 0
        if not self._names <= segment.columns.keys():
            if vector:
                return None
            for _, values in segment.rows_at(selected):
                self.add_row(values)
            return len(selected)
        order = segment.group_order(self._group_names)
        positions, bounds = order.positions, order.bounds
        bits = None  # the kernels' verdicts, one byte per row of the order
        if vector:
            if self._verdicts is None or self._verdicts[0] is not segment:
                try:
                    for conjunct in vector:
                        name = _conjunct_column(conjunct).name
                        more = _conjunct_bitmap(
                            segment.columns[name], conjunct, positions,
                            order.codes(name),
                            lambda: order.column(name)[0],
                            lambda: order.column(name)[1])
                        bits = more if bits is None \
                            else bytearray(map(operator.and_, bits, more))
                except TypeError:
                    return None
                self._verdicts = segment, bits
            bits = self._verdicts[1]
        start, stop = selected[0], selected[-1] + 1
        cut = start > 0 or stop < segment.count
        skipped = _gaps(selected)
        if skipped:
            skipped = sorted(map(order.rank().__getitem__, skipped))
        slices = []  # (first position kept, lo, hi, flags or None)
        g, groups = 0, len(bounds) - 1
        while g < groups:
            lo, hi = bounds[g], bounds[g + 1]
            if cut:  # the group's slice, cut to the stretch's ends
                lo = bisect_left(positions, start, lo, hi)
                hi = bisect_left(positions, stop, lo, hi)
            at = lo if bits is None else bits.find(True, lo, hi)
            if at < 0:
                at = bits.find(True, hi)  # on to the next group kept
                if at < 0:
                    break
                g = max(g + 1, bisect_right(bounds, at) - 1)
                continue
            g += 1
            keep = None if bits is None else bits[lo:hi]
            i, j = bisect_left(skipped, lo), bisect_left(skipped, hi)
            if i < j:
                keep = keep or bytearray([True]) * (hi - lo)
                for at in skipped[i:j]:
                    keep[at - lo] = False
                at = keep.find(True)
                at = hi if at < 0 else lo + at
            if at < hi:
                slices.append((positions[at], lo, hi, keep))
        slices.sort()
        key_cols = [segment.columns[name] for name in self._group_names]
        # per aggregate: function, column, its cells, their null flags
        folds = [(func, None, None, None) if ref is None else
                 (func, segment.columns[ref.name], *order.column(ref.name))
                 for _, func, ref in self._agg_items]
        folded = 0
        for pos, lo, hi, keep in slices:
            accs = self._accs_for(tuple([col.value_at(pos)
                                         for col in key_cols]))
            n = hi - lo if keep is None else keep.count(True)  # rows kept
            folded += n
            whole = keep is None and hi - lo == segment.count
            for acc, (func, col, data, nulls) in zip(accs, folds):
                if col is None:  # COUNT(*)
                    acc[0] += n
                    continue
                if whole and func in ("min", "max") \
                        and col.encoding != "float":  # (NaN: no bounds)
                    vals = [v for v in (col.min_value if func == "min"
                                        else col.max_value,) if v is not None]
                    m = len(vals)
                elif keep is None and nulls is not None and func != "min" \
                        and func != "max" and col.encoding in ("int", "bool"):
                    # NULL slots of a typed integer buffer hold 0: sum as is
                    vals = data[lo:hi]
                    m = hi - lo - (col.null_count if whole
                                   else nulls[lo:hi].count(True))
                else:  # the rows kept, NULLs left out
                    mask = keep if nulls is None else bytearray(map(
                        operator.gt, keep or repeat(True), nulls[lo:hi]))
                    vals = data[lo:hi] if mask is None \
                        else compress(data[lo:hi], mask)
                    m = n if nulls is None else mask.count(True)
                if func == "count":
                    acc[0] += m
                elif func in ("sum", "avg"):
                    if col.dictionary is not None:  # TEXT: raises, as naive
                        vals = map(col.dictionary.__getitem__, vals)
                    acc[0] = sum(vals, acc[0])
                    acc[1] += m
                elif m:  # the builtins keep the first extremum
                    if col.encoding in ("dict", "bool") and not whole:
                        vals = list(map(bool, vals) if col.dictionary is None
                                    else map(col.dictionary.__getitem__, vals))
                    pick = min if func == "min" else max
                    acc[1] = pick(chain((acc[1],), vals)) if acc[0] \
                        else pick(vals)
                    acc[0] = True
        self.slices += len(slices)
        return folded

    def finalize(self) -> list[dict[str, Any]]:
        if not self._group_names and not self.groups:
            # Same shape the naive path produces on an empty input:
            # one global group with COUNT 0 and NULL everything else.
            self._accs_for(())
        out: list[dict[str, Any]] = []
        for key, accs in sorted(
            self.groups.items(),
            key=lambda kv: tuple((v is None, v) for v in kv[0])
        ):
            result: dict[str, Any] = {}
            for g, value in zip(self.stmt.group_by, key):
                result[g.key()] = value
            for (out_key, func, _), acc in zip(self._agg_items, accs):
                if func == "count":
                    result[out_key] = acc[0]
                elif func == "sum":
                    result[out_key] = acc[0] if acc[1] else None
                elif func == "avg":
                    result[out_key] = acc[0] / acc[1] if acc[1] else None
                else:
                    result[out_key] = acc[1] if acc[0] else None
            out.append(result)
        return out


class Aggregate(PlanNode):
    """The aggregate stage (GROUP BY + COUNT/SUM/AVG/MIN/MAX): its child
    folds one :class:`AggState` (:meth:`PlanNode.fold`) and EXPLAIN
    names the stage after the fold — ``VectorizedAggregate`` straight
    off a :class:`SegmentScan`'s column buffers, ``Aggregate`` for any
    other child's units, folded as they come.
    """

    est_rows = None  # group counts are not estimated

    def __init__(self, stmt: SelectStatement, schema: Any,
                 child: PlanNode) -> None:
        self.stmt = stmt
        self.child = child
        self.name, self.plan_counter = child.fold_plan(stmt, schema) \
            or ("Aggregate", None)
        #: rows a plain ``Aggregate`` folded, for cardinality feedback
        self.source_rows: int | None = None

    def execute(self, txn: Transaction) -> list[dict[str, Any]]:
        """The aggregated result rows (before HAVING / ORDER BY / LIMIT)."""
        prof = self.profile
        if prof is None:
            return self._execute(txn)
        out = prof.timed(self._execute, txn)
        prof.rows += len(out)
        return out

    def _execute(self, txn: Transaction) -> list[dict[str, Any]]:
        state = AggState(self.stmt)
        folded = self.child.fold(txn, state)
        if self.plan_counter is None:
            self.source_rows = folded
        if self.profile is not None:
            self.profile.absorb_scan(self.child.profile)
            self.profile.groups += state.slices
        return state.finalize()

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(g.key() for g in self.stmt.group_by) or "()"
        items = ", ".join(i.key() for i in self.stmt.items) or "*"
        return f"{self.name}(group_by=[{keys}], items=[{items}])"


def _sort_ranks(keys: list[Any]) -> list[Any]:
    """What ORDER BY compares for each key: the reference ``(is None,
    value)`` pair — NULLs after everything else — or, when no key is
    NULL, the keys themselves, which order exactly like their pairs."""
    if None in keys:
        return [(k is None, k) for k in keys]
    return keys


_OutputStage = tuple[bool, tuple[tuple[str, str], ...] | None, str | None]


def _output_stage(stmt: SelectStatement, schema: Any,
                  aggregate_stage: bool) -> _OutputStage:
    """How :class:`SelectPlan`'s output stage reads rows, from the
    statement and its table's schema alone:

    * ``finished`` — rows reach it as finished result dicts: out of the
      aggregate stage, joined (``SELECT *`` keeps the joined row as it
      is), or projected one by one in ``_projected``;
    * ``items`` — ``(output key, source column)`` per select item when
      each one names a column of the single source table, so rows can be
      projected late, straight off the units;
    * ``order_col`` — the key ORDER BY reads off a row (None: nothing to
      order by).
    """
    order_col = order_key(stmt) if stmt.order_by is not None else None
    finished = aggregate_stage or stmt.join_table is not None
    if finished or stmt.star:
        return finished, None, order_col
    columns = {name: name for name in schema.column_names}
    try:
        items = tuple((item.key(), _resolve(columns, item.expr))
                      for item in stmt.items)
    except SqlError:
        # An unknown column surfaces per row, like the naive projection.
        return True, None, order_col
    if order_col is not None:
        # ORDER BY sees the projected row: the last item under the key
        # supplies it; with none the key is absent from every row and
        # the order is a no-op.
        order_col = next(
            (src for key, src in reversed(items) if key == order_col), None)
    return False, items, order_col


class SelectPlan:
    """A planned SELECT: the operator tree ``root`` (``source`` is its
    scan/join subtree, WHERE fully applied, below the aggregate stage if
    any) plus the statement's output stage — projection, ORDER BY and
    LIMIT, which :meth:`execute` runs over the source's scan units and
    EXPLAIN renders as pseudo stages.

    The output stage is where row dicts get built, once.  ORDER BY /
    LIMIT choose rows from the order key alone (a gathered column for
    segment positions), reproducing the reference ``_order_and_limit`` —
    its ``(is None, value)`` key, stability and tie order — so only the
    surviving rows decode, and only the columns the statement names.
    """

    def __init__(self, source: PlanNode, stmt: SelectStatement,
                 use_topk: bool, aggregate: Aggregate | None,
                 output: _OutputStage) -> None:
        self.source = source
        self.root: PlanNode = aggregate or source
        self.stmt = stmt
        self.use_topk = use_topk
        #: non-None only under EXPLAIN ANALYZE: actuals of the "output"
        #: pseudo stage (projection + order/limit)
        self.output_profile: OperatorProfile | None = None
        self._finished, self._items, self._order_col = output

    # ------------------------------------------------------------ execution

    def execute(self, txn: Transaction) -> list[dict[str, Any]]:
        """Run the plan; returns the statement's result rows.  A NaN key
        orders against nothing: meeting one, the top-k reruns as the
        reference's one pass over every row (walked segments read whole)."""
        prof = self.output_profile
        output = self._output if prof is None \
            else partial(prof.timed, self._output)
        out = output(self._units(txn))
        if out is None:
            out = output(self._units(txn, walked=False), True)
        if prof is not None:
            prof.rows += len(out)
        return out

    def _units(self, txn: Transaction,
               walked: bool = True) -> Iterator[ScanUnit]:
        """The output stage's input: aggregated, projected or source rows."""
        stmt, root = self.stmt, self.root
        if root is not self.source:
            rows = root.execute(txn)
            if stmt.having is not None:
                rows = [r for r in rows if eval_predicate(stmt.having, r)]
            return iter([("rows", [(None, row) for row in rows], None)])
        if not walked and root.stops_early:
            root = SegmentScan(root.table, root.pred)
        if self._finished and not stmt.star:
            return self._projected(root.rows(txn))
        return root.units(txn)

    def _projected(self, rows: Iterator[tuple[int, dict[str, Any]]],
                   ) -> Iterator[ScanUnit]:
        """Project rows one at a time (joined rows resolve qualified and
        ambiguous names per row), a bounded batch per unit."""
        items = self.stmt.items
        while batch := [
                (rid, {item.key(): _resolve(values, item.expr)
                       for item in items})
                for rid, values in islice(rows, TAIL_UNIT_ROWS)]:
            yield "rows", batch, None

    def _take(self, kind: str, unit: Any, selected: Sequence[int] | None,
              picks: Sequence[int] | None = None) -> list[dict[str, Any]]:
        """Result dicts of one unit's rows (all, or those at the
        ascending ``picks``) — the one place the output stage builds a
        dict, and for a segment the one place it decodes."""
        items = self._items
        if kind == "rows":
            rows = unit if picks is None else [unit[i] for i in picks]
            if self._finished:
                return [values for _, values in rows]
            if items is None:
                return [dict(values) for _, values in rows]
            return [{key: values[src] for key, src in items}
                    for _, values in rows]
        positions = selected if picks is None \
            else [selected[i] for i in picks]
        if items is None:
            return [values for _, values in unit.rows_at(positions)]
        keys = [key for key, _ in items]
        columns = unit.gather([src for _, src in items], positions)
        return [dict(zip(keys, cells)) for cells in zip(*columns)]

    def _order_keys(self, kind: str, unit: Any,
                    selected: Sequence[int] | None) -> list[Any]:
        """The ORDER BY key of each of one unit's rows."""
        col = self._order_col
        if kind == "rows":
            return [values.get(col) for _, values in unit]
        return unit.gather((col,), selected)[0]

    def _unit_best(self, kind: str, unit: Any, selected: Sequence[int] | None,
                   ) -> list[tuple[Any, int]] | None:
        """``(order key, row number)`` of one unit's first ``LIMIT`` rows
        in ORDER BY order (the reference's ``(is None, value)`` key, ties
        in row order), or None when one of its keys is NaN.  A segment
        ordered by an imprinted column sorts only the rows of the buckets
        :meth:`Imprint.top` walks; any other unit sorts every key."""
        desc, limit = self.stmt.order_desc, self.stmt.limit
        col = unit.columns.get(self._order_col) if kind == "segment" \
            else None
        imprint = col.imprint() if col is not None else None
        if imprint is not None:
            numbers = imprint.top(selected, desc, limit)
            if numbers is None:
                return None
            keys = col.gather(take(selected, numbers))
        else:
            keys = self._order_keys(kind, unit, selected)
            if kind == "rows" and any(map(operator.ne, keys, keys)):
                return None
            numbers = range(len(keys))
        pick = heapq.nlargest if desc else heapq.nsmallest
        return [(keys[at], numbers[at]) for at in pick(
            limit, range(len(keys)), key=_sort_ranks(keys).__getitem__)]

    def _output(self, units: Iterator[ScanUnit],
                one_pass: bool = False) -> list[dict[str, Any]] | None:
        """Projection + ORDER BY + LIMIT over scan units; None when the
        top-k fold met a NaN key (``one_pass`` sorts all rows at once)."""
        stmt = self.stmt
        limit = stmt.limit
        if limit == 0:
            return []  # before the source is even opened
        if self._order_col is None:
            if limit is not None and limit < 0:  # all but the last -limit
                units = list(units)
                limit = max(sum(unit_len(*u) for u in units) + limit, 0)
            out: list[dict[str, Any]] = []
            for u in units:
                if limit is not None and limit - len(out) < unit_len(*u):
                    out.extend(self._take(*u, range(limit - len(out))))
                else:
                    out.extend(self._take(*u))
                if len(out) == limit:
                    break  # a bare LIMIT stops consuming the source
            return out
        pick = heapq.nlargest if stmt.order_desc else heapq.nsmallest
        if limit is None or limit < 0 or one_pass:
            # Full sort: order row numbers by key, then lay the rows out.
            held = list(units)
            ranks = _sort_ranks(
                [k for u in held for k in self._order_keys(*u)])
            if one_pass:  # the reference's own top-k pass
                order = pick(limit, range(len(ranks)),
                             key=ranks.__getitem__)
            else:
                order = sorted(range(len(ranks)), key=ranks.__getitem__,
                               reverse=stmt.order_desc)[:limit]
            rows = [row for u in held for row in self._take(*u)]
            return [rows[i] for i in order]
        # Top-k: heapq.nsmallest / nlargest are documented equivalent to
        # sort-then-slice (and stable).  Taking each unit's own k first
        # and folding them into a running best keeps that exact — a row
        # displaced once can never come back, and ties keep source order
        # because the running best always precedes the new unit — while
        # holding only k rows' units.
        best: list[tuple[tuple[bool, Any], int, int]] = []
        live: dict[int, ScanUnit] = {}
        for number, u in enumerate(units):
            ranked = self._unit_best(*u)
            if ranked is None:
                return None
            live[number] = u
            best = pick(limit, best + [((key is None, key), number, i)
                                       for key, i in ranked],
                        key=itemgetter(0))
            live = {number: live[number] for _, number, _ in best}
        out = [{}] * len(best)
        picks: dict[int, list[tuple[int, int]]] = {}
        for slot, (_, number, i) in enumerate(best):
            picks.setdefault(number, []).append((i, slot))
        for number, chosen in picks.items():
            chosen.sort()
            rows = self._take(*live[number], [i for i, _ in chosen])
            for (_, slot), row in zip(chosen, rows):
                out[slot] = row
        return out

    def enable_profiling(self) -> "SelectPlan":
        """Instrument the whole plan for EXPLAIN ANALYZE (in place)."""
        self.output_profile = OperatorProfile()
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.profile = OperatorProfile()
            stack.extend(node.children())
        return self

    def render(self) -> list[str]:
        stmt = self.stmt
        lines: list[str] = []
        # The "output" stage times projection + order/limit together; its
        # actuals annotate the topmost pseudo stage only.
        out_prof = self.output_profile

        def push(text: str) -> None:
            nonlocal out_prof
            if out_prof is not None:
                text += f"  ({out_prof.describe()})"
                out_prof = None
            lines.append("  " * len(lines) + text)

        direction = "desc" if stmt.order_desc else "asc"
        if self.use_topk:
            push(f"TopK(key={stmt.order_by.key()}, {direction}, "
                 f"k={stmt.limit})")
        else:
            if stmt.limit is not None:
                push(f"Limit({stmt.limit})")
            if stmt.order_by is not None:
                push(f"Sort(key={stmt.order_by.key()}, {direction})")
        if self.root is self.source:
            items = "*" if stmt.star else ", ".join(i.key() for i in stmt.items)
            push(f"Project({items})")
        lines.extend(self.root.render(len(lines)))
        return lines


# --------------------------------------------------------------- planner


@dataclass(slots=True)
class _AccessChoice:
    """One candidate access path while costing a table."""

    node: PlanNode
    consumed: list[Any]
    est_rows: float
    cost: float
    rank: int  # tie-break: lower rank preferred


@dataclass(frozen=True, slots=True)
class _AccessShape:
    """What :meth:`Planner.prepare` reads off the catalog for one
    table and its conjuncts, by conjunct position: which run as column
    kernels, which can probe a hash or sorted index or the primary key,
    and which bound a sorted-index range, per column.  It holds no
    literal: each bind costs these candidates for its own."""

    table: str
    kernel: tuple[bool, ...]
    probes: tuple[tuple[int, str, str], ...]  # (position, column, kind)
    pk: tuple[int, str] | None  # (position, key column)
    ranges: tuple[tuple[str, tuple[int, ...]], ...]  # (column, positions)


@dataclass(frozen=True, slots=True)
class _JoinShape:
    """A join's literal-independent half: each conjunct's side (by
    position; None stays above the join), the ON columns, each side's
    access shape over its own conjuncts, and the kind of the index an
    index-nested-loop probe of each side would use (None: no index)."""

    sides: tuple[str | None, ...]
    left_col: str
    right_col: str
    left: _AccessShape
    right: _AccessShape
    left_index: str | None
    right_index: str | None


@dataclass(frozen=True, slots=True)
class PreparedSelect:
    """The literal-independent half of a SELECT's plan
    (:meth:`Planner.prepare`), valid while the database's
    ``catalog_version`` is ``catalog``.  Immutable: binds on any thread
    share it, and every node of a bound plan is the bind's own."""

    catalog: int
    aggregate_stage: bool
    use_topk: bool
    schema: Any  # the FROM table's
    kernel: tuple[bool, ...]  # per WHERE conjunct, over the FROM table
    access: _AccessShape | None  # a single-table statement's
    join: _JoinShape | None
    output: _OutputStage
    walk: str | None  # the imprinted column a top-k walk orders by


class Planner:
    """Builds physical plans for SELECTs (an UPDATE or DELETE finds its
    rows through the plan of the ``SELECT *`` with its WHERE).

    Planning is two phases of one planner.  :meth:`prepare` reads the
    catalog — the conjunct split, what each conjunct can probe, which run
    as column kernels, the aggregate and output stages — once per
    statement shape; :meth:`bind` reads a statement's literals, the
    data's size and the statistics: every selectivity, estimate and
    cost, the cheapest candidate.  :meth:`plan_select` is
    the two phases in a row.
    """

    def __init__(self, db: Database) -> None:
        self._db = db
        self._stats = db.statistics()

    # -------------------------------------------------------- selectivity

    def _conjunct_selectivity(self, table: str, conjunct: Any) -> float:
        """Rough selectivity of one conjunct against ``table``."""
        eq = _eq_conjunct(conjunct)
        if eq is not None and eq[1] is not None:
            return self._stats.eq_selectivity(table, eq[0].name, eq[1])
        rng = _range_conjunct(conjunct)
        if rng is not None and rng[2] is not None:
            ref, op, value = rng
            if op in ("<", "<="):
                return self._stats.range_selectivity(
                    table, ref.name, None, value, True, op == "<=")
            return self._stats.range_selectivity(
                table, ref.name, value, None, op == ">=", True)
        if isinstance(conjunct, InPredicate) and not conjunct.negated:
            total = sum(
                self._stats.eq_selectivity(table, conjunct.column.name, v)
                for v in conjunct.values
            )
            return min(max(total, MIN_SELECTIVITY), 1.0)
        return 0.5

    def _selectivity(self, table: str) -> Callable[[Any], float]:
        """:meth:`_conjunct_selectivity` over ``table``, asking the
        statistics once per conjunct however many candidates cost it (for
        the length of one plan: it keys on the conjunct's identity)."""
        memo: dict[int, float] = {}

        def selectivity(conjunct: Any) -> float:
            key = id(conjunct)
            if key not in memo:
                memo[key] = self._conjunct_selectivity(table, conjunct)
            return memo[key]

        return selectivity

    def _filtered_estimate(self, table: str, base_rows: float,
                           conjuncts: Iterable[Any],
                           selectivity: Callable[[Any], float] | None = None,
                           ) -> float:
        selectivity = selectivity or self._selectivity(table)
        est = base_rows
        for conjunct in conjuncts:
            est *= selectivity(conjunct)
        return max(est, 0.0)

    # -------------------------------------------------------- access paths

    def _prepare_access(self, table: str,
                        conjuncts: list[Any]) -> _AccessShape:
        heap = self._db._table(table)
        schema = heap.schema
        probes: list[tuple[int, str, str]] = []
        pk: tuple[int, str] | None = None
        ranges: dict[str, list[int]] = {}
        for pos, conjunct in enumerate(conjuncts):
            eq = _eq_conjunct(conjunct)
            if eq is not None and eq[1] is not None:
                column = eq[0].name
                kind = self._index_kind(table, column)
                if kind is not None:
                    probes.append((pos, column, kind))
                if pk is None and column == schema.primary_key:
                    pk = pos, column
            rng = _range_conjunct(conjunct)
            if rng is not None and rng[2] is not None \
                    and self._db.sorted_index(table, rng[0].name) is not None:
                ranges.setdefault(rng[0].name, []).append(pos)
        return _AccessShape(
            table, ScanPredicate.kernel_flags(conjuncts, schema, table),
            tuple(probes), pk,
            tuple((column, tuple(at)) for column, at in ranges.items()))

    def _index_kind(self, table: str, column: str) -> str | None:
        index = self._db._find_index(table, column)
        if index is None:
            return None
        return "sorted" if isinstance(index, SortedIndex) else "hash"

    def _bind_access(self, shape: _AccessShape, conjuncts: list[Any],
                     prefer_columnar: bool,
                     selectivity: Callable[[Any], float],
                     walk: tuple[str, bool, int] | None = None,
                     ) -> tuple[PlanNode, list[int]]:
        """The cheapest of ``shape``'s candidates for these conjuncts
        (by ``(cost, rank)``, the first of equals) and the positions of
        the conjuncts it leaves to a filter.  A ``walk`` (see
        :func:`select_units`) tests about ``k / selectivity`` rows of each
        segment plus a bucket (a 254th), at a heap-row read each; all of
        a segment with dead positions, whose live ones reach it listed."""
        table = shape.table
        heap = self._db._table(table)
        rows = len(heap)
        n = float(rows)
        choices: list[_AccessChoice] = [
            _AccessChoice(FullScan(table), [], n, n, rank=2)
        ]
        seg_rows = rows - heap.tail_size
        if seg_rows:
            pred = ScanPredicate(conjuncts, heap.schema, table, shape.kernel)
            discount = _COLUMNAR_DISCOUNT if pred.fallback is None else 1.0
            if prefer_columnar and pred.fallback is None:
                discount *= 0.5
            cost = heap.tail_size + seg_rows * discount + _PROBE_COST
            est = self._filtered_estimate(table, n, conjuncts, selectivity)
            choices.append(_AccessChoice(
                SegmentScan(table, pred), list(conjuncts), est, cost, rank=1,
            ))
            if walk is not None:
                per_segment = walk[2] * n / est if est else math.inf
                walked = sum(s.count if heap.dead_positions(s) else min(
                    s.count, per_segment + s.count / NAN_CODE)
                    for s in heap.segments)
                choices.append(_AccessChoice(
                    SegmentScan(table, pred, walk), list(conjuncts),
                    min(est, (walked + heap.tail_size) * est / n),
                    heap.tail_size + walked + _PROBE_COST, rank=1,
                ))
        for pos, column, kind in shape.probes:
            conjunct = conjuncts[pos]
            est = max(n * selectivity(conjunct), 0.0)
            choices.append(_AccessChoice(
                IndexLookup(table, column, _eq_conjunct(conjunct)[1], kind),
                [conjunct], est, est + _PROBE_COST, rank=0,
            ))
        if shape.pk is not None:
            # One row per key (NDV = row count), found in one probe;
            # listed after the indexes, so an index on the key column
            # that estimates the same single row keeps its plan.
            pos, pk = shape.pk
            est = min(n, 1.0)
            choices.append(_AccessChoice(
                PkLookup(table, pk, _eq_conjunct(conjuncts[pos])[1]),
                [conjuncts[pos]], est, est + _PROBE_COST, rank=0,
            ))
        for column, positions in shape.ranges:
            consumed = [conjuncts[pos] for pos in positions]
            bounds = self._range_bounds(consumed)
            if bounds is None:
                continue
            est = max(n * self._stats.range_selectivity(
                table, column, *bounds), 0.0)
            choices.append(_AccessChoice(
                RangeScan(table, column, *bounds), consumed,
                est, est + _PROBE_COST + math.log2(n + 2), rank=1,
            ))
        best = min(choices, key=lambda c: (c.cost, c.rank))
        node = best.node
        node.est_rows = best.est_rows
        node.cost = best.cost
        residual = [pos for pos, conjunct in enumerate(conjuncts)
                    if not any(conjunct is used for used in best.consumed)]
        metrics.get_registry().inc(node.plan_counter)
        return node, residual

    @staticmethod
    def _range_bounds(conjuncts: list[Any],
                      ) -> tuple[Any, Any, bool, bool] | None:
        """Combined (low, high, incl_low, incl_high) of one column's range
        conjuncts, or None when their literals are incomparable (it is
        all left to the filter)."""
        low: Any = None
        high: Any = None
        include_low = include_high = True
        try:
            for conjunct in conjuncts:
                _, op, value = _range_conjunct(conjunct)
                if op in (">", ">="):
                    inclusive = op == ">="
                    if low is None or value > low or (
                            value == low and include_low and not inclusive):
                        low, include_low = value, inclusive
                else:
                    inclusive = op == "<="
                    if high is None or value < high or (
                            value == high and include_high and not inclusive):
                        high, include_high = value, inclusive
        except TypeError:
            return None
        return low, high, include_low, include_high

    # --------------------------------------------------------------- joins

    def _side_of(self, conjunct: Any, stmt: SelectStatement) -> str | None:
        """'left' / 'right' when every column reference in the conjunct
        resolves to that one join input (matching the naive resolver's
        left-wins rule for ambiguous unqualified names), else None."""
        refs = column_refs(conjunct)
        if not refs:
            return None
        left_schema = self._db.schema(stmt.table)
        right_schema = self._db.schema(stmt.join_table)
        sides: set[str] = set()
        for ref in refs:
            if ref.table == stmt.table:
                side = "left"
            elif ref.table == stmt.join_table:
                side = "right"
            elif ref.table is not None:
                return None
            elif left_schema.has_column(ref.name):
                side = "left"
            elif right_schema.has_column(ref.name):
                side = "right"
            else:
                return None
            sides.add(side)
        return sides.pop() if len(sides) == 1 else None

    @staticmethod
    def join_columns(stmt: SelectStatement) -> tuple[str, str]:
        """(left column, right column) of the ON clause, normalizing the
        user writing the sides in either order (same rule as naive)."""
        left, right = stmt.join_left, stmt.join_right
        if left.table == stmt.join_table or right.table == stmt.table:
            left, right = right, left
        return left.name, right.name

    def _prepare_join(self, stmt: SelectStatement,
                      conjuncts: list[Any]) -> _JoinShape:
        left_col, right_col = self.join_columns(stmt)
        sides = tuple(self._side_of(c, stmt) for c in conjuncts)
        return _JoinShape(
            sides, left_col, right_col,
            self._prepare_access(stmt.table, _on_side(conjuncts, sides,
                                                      "left")),
            self._prepare_access(stmt.join_table, _on_side(conjuncts, sides,
                                                           "right")),
            self._index_kind(stmt.table, left_col),
            self._index_kind(stmt.join_table, right_col))

    def _bind_join(self, shape: _JoinShape, stmt: SelectStatement,
                   conjuncts: list[Any]) -> tuple[PlanNode, list[int]]:
        registry = metrics.get_registry()
        left_table, right_table = stmt.table, stmt.join_table
        left_col, right_col = shape.left_col, shape.right_col
        left_conjuncts = _on_side(conjuncts, shape.sides, "left")
        right_conjuncts = _on_side(conjuncts, shape.sides, "right")
        residual = [pos for pos, side in enumerate(shape.sides)
                    if side is None]
        registry.inc("planner.conjuncts.pushed",
                     len(left_conjuncts) + len(right_conjuncts))

        def side_node(access: _AccessShape, side_conjuncts: list[Any]) \
                -> tuple[PlanNode, float]:
            table = access.table
            selectivity = self._selectivity(table)
            node, kept = self._bind_access(access, side_conjuncts, False,
                                           selectivity)
            side_residual = [side_conjuncts[pos] for pos in kept]
            est = self._filtered_estimate(table, node.est_rows,
                                          side_residual, selectivity)
            if side_residual:
                pred = ScanPredicate(side_residual, self._db.schema(table),
                                     table, [access.kernel[p] for p in kept])
                node = Filter(pred, node, role="pushed")
                node.est_rows, node.cost = est, node.child.cost
            return node, max(est, 0.0)

        left_node, left_est = side_node(shape.left, left_conjuncts)
        right_node, right_est = side_node(shape.right, right_conjuncts)

        build = "right" if right_est <= left_est else "left"
        hash_cost = left_node.cost + right_node.cost + left_est + right_est
        hash_join = HashJoin(left_node, right_node, left_table, right_table,
                             left_col, right_col, build)
        out_est = self._join_cardinality(left_table, left_col, left_est,
                                         right_table, right_col, right_est)
        hash_join.est_rows, hash_join.cost = out_est, hash_cost

        best: PlanNode = hash_join
        inlj_right = self._inlj_candidate(
            stmt, outer=left_node, outer_est=left_est, outer_col=left_col,
            outer_side="left", inner=shape.right, inner_col=right_col,
            kind=shape.right_index, inner_conjuncts=right_conjuncts,
            out_est=out_est)
        inlj_left = self._inlj_candidate(
            stmt, outer=right_node, outer_est=right_est, outer_col=right_col,
            outer_side="right", inner=shape.left, inner_col=left_col,
            kind=shape.left_index, inner_conjuncts=left_conjuncts,
            out_est=out_est)
        for candidate in (inlj_right, inlj_left):
            if candidate is not None and candidate.cost < best.cost:
                best = candidate
        registry.inc(best.plan_counter)
        return best, residual

    def _join_cardinality(self, left_table: str, left_col: str,
                          left_est: float, right_table: str, right_col: str,
                          right_est: float) -> float:
        """Standard equi-join estimate: |L| * |R| / max(ndv(l), ndv(r))."""
        ndv = max(
            self._ndv(left_table, left_col),
            self._ndv(right_table, right_col),
            1,
        )
        return left_est * right_est / ndv

    def _ndv(self, table: str, column: str) -> int:
        column_stats = self._stats.stats(table).column(column)
        return column_stats.distinct if column_stats is not None else 0

    def _inlj_candidate(self, stmt: SelectStatement, outer: PlanNode,
                        outer_est: float, outer_col: str, outer_side: str,
                        inner: _AccessShape, inner_col: str,
                        kind: str | None, inner_conjuncts: list[Any],
                        out_est: float) -> IndexNestedLoopJoin | None:
        if kind is None:
            return None
        inner_table = inner.table
        inner_rows = float(self._db.table_size(inner_table))
        bucket = inner_rows / max(self._ndv(inner_table, inner_col), 1)
        node = IndexNestedLoopJoin(
            outer, outer_col, inner_table, inner_col,
            ScanPredicate(inner_conjuncts, self._db.schema(inner_table),
                          inner_table, inner.kernel), outer_side,
            left_table=stmt.table, right_table=stmt.join_table, kind=kind)
        node.est_rows = out_est
        node.cost = outer.cost + outer_est * (_PROBE_COST + bucket)
        return node

    # -------------------------------------------------------------- SELECT

    def prepare(self, stmt: SelectStatement) -> PreparedSelect:
        """The literal-independent half of ``stmt``'s plan, read off the
        catalog as it is now (its version is read first, so a change
        racing this call makes the result stale, never wrong).

        Raises:
            SqlError: HAVING without GROUP BY or aggregates.
            KeyError: unknown table.
        """
        catalog = self._db.catalog_version
        conjuncts = split_conjuncts(stmt.where)
        aggregate_stage = bool(stmt.group_by) or any(
            isinstance(i.expr, AggregateExpr) for i in stmt.items)
        if not aggregate_stage and stmt.having is not None:
            raise SqlError("HAVING requires GROUP BY or aggregates")
        access = join = None
        if stmt.join_table is None:
            access = self._prepare_access(stmt.table, conjuncts)
        else:
            join = self._prepare_join(stmt, conjuncts)
        schema = self._db.schema(stmt.table)
        use_topk = (stmt.order_by is not None and stmt.limit is not None
                    and not aggregate_stage)
        output = _output_stage(stmt, schema, aggregate_stage)
        finished, _, order_col = output
        walk = order_col if use_topk and access is not None \
            and not finished and schema.has_column(order_col) \
            and schema.column(order_col).col_type is not ColumnType.TEXT \
            else None
        return PreparedSelect(
            catalog, aggregate_stage, use_topk, schema,
            access.kernel if access is not None
            else ScanPredicate.kernel_flags(conjuncts, schema, stmt.table),
            access, join, output, walk)

    def bind(self, prepared: PreparedSelect,
             stmt: SelectStatement) -> SelectPlan:
        """The physical plan of ``stmt``, a statement of the shape
        ``prepared`` was prepared from: its estimates, choices, feedback
        keys, ``planner.plans.*`` counts and EXPLAIN text are those of
        :meth:`plan_select`, which is :meth:`prepare` then this."""
        registry = metrics.get_registry()
        conjuncts = split_conjuncts(stmt.where)
        selectivity = self._selectivity(stmt.table)
        if prepared.join is None:
            walk = (prepared.walk, stmt.order_desc, stmt.limit) \
                if prepared.walk is not None and stmt.limit >= 0 else None
            node, residual = self._bind_access(
                prepared.access, conjuncts, prepared.aggregate_stage,
                selectivity, walk)
        else:
            node, residual = self._bind_join(prepared.join, stmt, conjuncts)
        if residual:
            rest = [conjuncts[pos] for pos in residual]
            est = node.est_rows
            if stmt.join_table is None:
                est = self._filtered_estimate(stmt.table, est, rest,
                                              selectivity)
            # Over a join every unit is a rows unit (joined dicts): only
            # the predicate's row form runs, whatever the schema says.
            node = Filter(
                ScanPredicate(rest, prepared.schema, stmt.table,
                              [prepared.kernel[pos] for pos in residual]),
                node)
            node.est_rows, node.cost = est, node.child.cost
        aggregate = None
        if prepared.aggregate_stage:
            aggregate = Aggregate(stmt, prepared.schema, node)
            if aggregate.plan_counter is not None:
                registry.inc(aggregate.plan_counter)
        if prepared.use_topk:
            registry.inc("planner.plans.topk")
        return SelectPlan(node, stmt, prepared.use_topk, aggregate,
                          prepared.output)

    def plan_select(self, stmt: SelectStatement) -> SelectPlan:
        """Physical plan for a SELECT's row-sourcing (and EXPLAIN tree):
        :meth:`prepare`, then :meth:`bind`.

        Raises:
            SqlError: HAVING without GROUP BY or aggregates.
        """
        return self.bind(self.prepare(stmt), stmt)

    def explain(self, stmt: SelectStatement) -> list[str]:
        """EXPLAIN text lines for a SELECT (plans, does not execute)."""
        return self.plan_select(stmt).render()


def _on_side(conjuncts: list[Any], sides: tuple[str | None, ...],
             side: str) -> list[Any]:
    """The conjuncts a join pushes to ``side``."""
    return [c for c, at in zip(conjuncts, sides) if at == side]
