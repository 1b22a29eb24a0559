"""Table statistics for the cost-based planner (DESIGN.md §11).

The planner's cost model needs three things per table: how many rows it
has, how selective an equality predicate on a column is (≈ 1 / distinct
values), and how selective a range predicate is (read off a small
equal-depth histogram).  :class:`StatisticsManager` owns those numbers
for one :class:`~repro.storage.rdbms.engine.Database`.  Every pass over
a table reads a committed snapshot (:meth:`Database.begin_snapshot`): it
holds no engine lock past the snapshot's begin, never counts an open
writer's rows, and is stamped with the snapshot's version of the table —
the database's own commit version, which the query-result cache keys on
too:

* **incremental maintenance**: a drift of at most
  :data:`STALENESS_FRACTION` of the analyzed row count folds the live
  row count in and keeps the distributions (no pass, no lock);
* **one column pass** otherwise (:func:`_column_pass`): the values of
  the columns asked for, gathered off the snapshot's scan units (no row
  is built) — every row, or above :data:`SAMPLE_THRESHOLD` rows a seeded
  sample, with null counts and min/max kept exact by the zone maps.  A
  plan's estimate runs it for one column at that column's first read
  (:class:`LazyColumns`), so the columns no predicate names are never
  read; an explicit :meth:`StatisticsManager.analyze` runs it for all;
* **cardinality feedback**: the SQL layer reports estimated-vs-actual
  row counts after planned executions (exact per-operator actuals under
  ``EXPLAIN ANALYZE``, cheap result-derived counts otherwise) through
  :meth:`StatisticsManager.record_predicate_feedback`; a misestimate
  beyond the feedback ratio marks the offending columns pending, and the
  next ``stats()`` call runs the pass over just those columns — the
  optimizer heals itself from its own telemetry without waiting for
  drift.

Statistics are advisory: plans stay *correct* on arbitrarily stale
numbers (residual filters re-check every predicate), only their cost
ranking degrades.
"""

from __future__ import annotations

import bisect
import random
import threading
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.storage.rdbms.segments import take
from repro.storage.rdbms.table import HeapTable, gather_column
from repro.telemetry import metrics
from repro.telemetry.feedback import CardinalityFeedback

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> stats)
    from repro.storage.rdbms.engine import Database

#: Equal-depth histogram resolution (quantile points per column).
HISTOGRAM_BUCKETS = 16

#: Most-common-value entries kept per column.  Only values that are more
#: frequent than a uniform distribution would predict are stored, so a
#: uniform column keeps an empty MCV list and the 1/distinct estimate.
MCV_ENTRIES = 8

#: Fallback selectivities when a column has no usable statistics.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3

#: Floor so no estimate ever reaches exactly zero rows (a zero-cost plan
#: would win every comparison regardless of reality).
MIN_SELECTIVITY = 1e-4

#: Drift, as a fraction of the analyzed row count, that ``stats()``
#: absorbs by folding in the row count instead of a new pass.
STALENESS_FRACTION = 0.25

#: Tables above this many rows are analyzed from a sample ...
SAMPLE_THRESHOLD = 100_000

#: ... of this many positions.
SAMPLE_SIZE = 20_000


@dataclass
class ColumnStats:
    """Distribution summary for one column.

    ``histogram`` holds ``HISTOGRAM_BUCKETS + 1`` quantile points of the
    sorted non-null values (an equal-depth sketch): the fraction of
    values ``<= x`` is approximated by where ``x`` lands among the
    points.
    """

    distinct: int = 0
    null_count: int = 0
    total: int = 0
    min_value: Any = None
    max_value: Any = None
    histogram: tuple = ()
    #: ((value, fraction-of-total), ...) for over-represented values —
    #: what lets an equality estimate see skew the 1/distinct model
    #: cannot (the cardinality-feedback loop relies on this: a targeted
    #: re-ANALYZE rebuilds the MCV list and the next plan's estimate for
    #: the hot literal corrects).
    mcv: tuple = ()

    @property
    def non_null_fraction(self) -> float:
        if self.total <= 0:
            return 1.0
        return (self.total - self.null_count) / self.total

    def eq_selectivity(self, value: Any = None) -> float:
        """Estimated fraction of rows matching ``col = literal``.

        With a known ``value``, the MCV list answers exactly for hot
        values, and the remaining mass spread over the remaining
        distinct values answers for everything else.  Without one
        (``None`` never appears as an equality literal), the uniform
        ``1/distinct`` estimate applies.
        """
        if self.distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if value is not None and self.mcv:
            for mcv_value, fraction in self.mcv:
                if mcv_value == value:
                    return max(fraction, MIN_SELECTIVITY)
            rest = self.non_null_fraction - sum(f for _, f in self.mcv)
            rest_distinct = self.distinct - len(self.mcv)
            if rest_distinct > 0:
                return max(rest / rest_distinct, MIN_SELECTIVITY)
        return max(self.non_null_fraction / self.distinct, MIN_SELECTIVITY)

    def le_fraction(self, value: Any, inclusive: bool) -> float:
        """Estimated fraction of non-null values ``<= value`` (or ``<``)."""
        if not self.histogram:
            return DEFAULT_RANGE_SELECTIVITY
        points = self.histogram
        try:
            if inclusive:
                pos = bisect.bisect_right(points, value)
            else:
                pos = bisect.bisect_left(points, value)
        except TypeError:
            return DEFAULT_RANGE_SELECTIVITY
        return pos / len(points)

    def range_selectivity(self, low: Any, high: Any,
                          include_low: bool, include_high: bool) -> float:
        """Estimated fraction of rows in the given (half-open) bounds."""
        if not self.histogram:
            return DEFAULT_RANGE_SELECTIVITY
        hi_frac = 1.0 if high is None else self.le_fraction(high, include_high)
        lo_frac = 0.0 if low is None else self.le_fraction(low, not include_low)
        frac = (hi_frac - lo_frac) * self.non_null_fraction
        return min(max(frac, MIN_SELECTIVITY), 1.0)


class LazyColumns(Mapping):
    """Column name -> :class:`ColumnStats` of an analyzed table, each
    built by ``build(name)`` on its first read and kept: a plan asks for
    the columns its predicates name, and no other column is read.  Two
    first reads at once may both build; each is equal, and either stays.
    """

    def __init__(self, names: Sequence[str],
                 build: Callable[[str], ColumnStats],
                 built: dict[str, ColumnStats] | None = None) -> None:
        self._names = tuple(names)
        self._build = build
        self._built = dict(built or {})

    def __getitem__(self, name: str) -> ColumnStats:
        stats = self._built.get(name)
        if stats is None:
            if name not in self._names:
                raise KeyError(name)
            stats = self._built[name] = self._build(name)
        return stats

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def replaced(self, rebuilt: dict[str, ColumnStats]) -> "LazyColumns":
        """These columns with ``rebuilt``'s stats in place of theirs."""
        return LazyColumns(self._names, self._build,
                           {**self._built, **rebuilt})


@dataclass
class TableStats:
    """Statistics for one table at one analyzed point in time."""

    table: str
    row_count: int = 0
    analyzed_rows: int = 0
    version: int = 0
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def _build_column_stats(values: Sequence[Any]) -> ColumnStats:
    """Summarize one column's values (including ``None`` entries)."""
    total = len(values)
    non_null = [v for v in values if v is not None]
    stats = ColumnStats(total=total, null_count=total - len(non_null))
    if not non_null:
        return stats
    try:
        counts = Counter(non_null)
    except TypeError:
        stats.distinct = len({repr(v) for v in non_null})
        return stats
    stats.distinct = len(counts)
    # Keep only values over-represented vs uniform: count * distinct >
    # non-null total means the value is more frequent than 1/distinct.
    n_non_null = len(non_null)
    stats.mcv = tuple(
        (value, count / total)
        for value, count in counts.most_common(MCV_ENTRIES)
        if count * stats.distinct > n_non_null
    )
    try:
        ordered = sorted(non_null)
    except TypeError:
        # Mixed incomparable types: keep the distinct count, skip the
        # order statistics (range estimates fall back to the default).
        return stats
    stats.min_value = ordered[0]
    stats.max_value = ordered[-1]
    n = len(ordered)
    points = tuple(
        ordered[min(round(i * (n - 1) / HISTOGRAM_BUCKETS), n - 1)]
        for i in range(HISTOGRAM_BUCKETS + 1)
    )
    stats.histogram = points
    return stats


def _tail(view: HeapTable) -> list[tuple[int, dict[str, Any]]]:
    """The row-store tail of ``view``, ``(rid, values)`` in rid order: the
    rows units of its scan."""
    return [pair for kind, unit, _ in view.scan_units() if kind == "rows"
            for pair in unit]


def _column_pass(view: HeapTable, names: Sequence[str],
                 seed: str | None = None) -> dict[str, ColumnStats]:
    """The one pass over a committed ``view``: ``names``' values, gathered
    off its scan units, summarized — every row in rid order, or, given a
    ``seed``, :data:`SAMPLE_SIZE` positions of the segments (in table
    order) and then the tail (in rid order), with exact null counts and
    bounds.  A segment's zone maps cover its dead positions too: the
    bounds stay valid (wider at worst), the null counts give theirs back.
    """
    if seed is None:
        units = list(view.scan_units())
        return {name: _build_column_stats(gather_column(units, name))
                for name in names}
    count = len(view)
    positions = sorted(random.Random(seed).sample(
        range(count), min(SAMPLE_SIZE, count)))
    segments = [s for s in view.segments if s.count]
    tail = _tail(view)
    picked: list[tuple[str, Any, Any]] = []
    base = 0
    for segment in segments:
        live = view.live_positions(segment)
        at = positions[bisect.bisect_left(positions, base):
                       bisect.bisect_left(positions, base + len(live))]
        picked.append(("segment", segment, take(live, [p - base for p in at])))
        base += len(live)
    picked.append(("rows", [tail[p - base] for p in
                            positions[bisect.bisect_left(positions, base):]],
                   None))
    columns: dict[str, ColumnStats] = {}
    for name in names:
        sample = gather_column(picked, name)
        cs = columns[name] = _build_column_stats(sample)
        zones = [s.columns[name] for s in segments]
        present = [v for v in (values.get(name) for _, values in tail)
                   if v is not None]
        cs.total = count
        cs.null_count = len(tail) - len(present) + sum(
            zone.null_count - sum(map(zone.is_null, view.dead_positions(s)))
            for s, zone in zip(segments, zones))
        lows = [z.min_value for z in zones if z.min_value is not None]
        if lows or present:  # (a zone map has both bounds or neither)
            cs.min_value = min(lows + present)
            cs.max_value = max([z.max_value for z in zones
                                if z.max_value is not None] + present)
        seen = len(sample) - sample.count(None)
        if cs.distinct and cs.distinct >= seen / 10:
            # High-cardinality sample: scale the distinct count up by the
            # sampling fraction (capped at the non-null total).  Low-
            # cardinality samples are kept as-is — a uniform sample of
            # 20k rows almost surely saw every value of a small domain.
            non_null = count - cs.null_count
            frac = seen / max(non_null, 1)
            cs.distinct = min(non_null,
                              max(cs.distinct, round(cs.distinct / frac)))
    return columns


class StatisticsManager:
    """Per-table statistics, each read from a committed snapshot.

    Obtained via :meth:`Database.statistics`; one instance per database.
    Thread-safe: the stats cache is guarded by one lock; a pass reads a
    snapshot nobody writes to, outside every lock.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        self.feedback = CardinalityFeedback()
        self._lock = threading.Lock()
        self._stats: dict[str, TableStats] = {}

    def version(self, table: str) -> int:
        """The table's committed version — what a snapshot begun now
        holds for it, and what the result cache keys on: it grows at
        every commit and schema change of ``table``, from one sequence
        for the whole database (0: no such table)."""
        return self._db._table_versions.get(table, 0)

    # --------------------------------------------------------------- stats

    def analyze(self, table: str) -> TableStats:
        """The column pass over every column of ``table`` as a snapshot
        begun now holds it — sampled above :data:`SAMPLE_THRESHOLD` rows.

        Raises:
            KeyError: unknown table.
        """
        return self._analyze(table, every_column=True)

    def _analyze(self, table: str, every_column: bool) -> TableStats:
        """:meth:`analyze`; or, short of ``every_column``, ``table``'s
        row count and version alone, with :class:`LazyColumns` that run
        the pass over one column at its first read (:meth:`_column`)."""
        snapshot = self._db.begin_snapshot()
        view = snapshot._heap(table)
        count = len(view)
        sampled = count > SAMPLE_THRESHOLD
        seed = f"analyze:{table}:{count}" if sampled else None
        names = view.schema.column_names
        stats = TableStats(
            table=table, row_count=count, analyzed_rows=count,
            version=snapshot.version_of(table), columns=LazyColumns(
                names, partial(self._column, table, seed),
                _column_pass(view, names, seed) if every_column else None))
        with self._lock:
            self._stats[table] = stats
        metrics.get_registry().inc(
            "planner.analyze.sampled" if sampled else "planner.analyze.full")
        return stats

    def _column(self, table: str, seed: str | None,
                name: str) -> ColumnStats:
        """The column pass over one column of ``table`` (sampled with
        ``seed``, its analysis's) as a snapshot begun now holds it: the
        state it was analyzed at, or a later committed one — statistics
        are advisory, and nothing pins a snapshot for a column no plan
        may ever ask for."""
        view = self._db.begin_snapshot()._heap(table)
        return _column_pass(view, [name], seed)[name]

    def stats(self, table: str) -> TableStats:
        """Current statistics, refreshed as cheaply as staleness allows.

        Unchanged version → cached as-is.  Small drift → the live row
        count folded in, distributions reused (incremental path: no
        snapshot and no lock, it runs for the first plan after every
        commit).  Large drift or never analyzed → row count and version
        now, each column's pass at its first read (:meth:`_analyze`).

        Raises:
            KeyError: unknown table.
        """
        pending = self.feedback.pending(table)
        if pending:
            refreshed = self._feedback_reanalyze(table, pending)
            if refreshed is not None:
                return refreshed
        with self._lock:
            cached = self._stats.get(table)
        version = self.version(table)
        if cached is not None and cached.version == version:
            return cached
        rows = self._db.table_size(table)
        if cached is None or cached.analyzed_rows <= 0 or \
                abs(rows - cached.analyzed_rows) \
                > STALENESS_FRACTION * cached.analyzed_rows:
            return self._analyze(table, every_column=False)
        stats = replace(cached, row_count=rows, version=version)
        with self._lock:
            self._stats[table] = stats
        metrics.get_registry().inc("planner.analyze.incremental")
        return stats

    # ------------------------------------------------------------ feedback

    def record_predicate_feedback(self, table: str,
                                  keys: list[tuple[str, str]],
                                  est_rows: float, actual_rows: int) -> None:
        """Report one planned execution's estimated-vs-actual source
        cardinality, attributed to the (column, shape) pairs of the
        predicate.  Crossing the feedback ratio marks the columns
        pending; the next ``stats()`` call re-analyzes just them."""
        version = self.version(table)
        registry = metrics.get_registry()
        for column, shape in keys:
            if self.feedback.record(table, column, shape,
                                    est_rows, actual_rows, version):
                registry.inc("planner.feedback.misestimates")
        registry.inc("planner.feedback.observations")

    def _feedback_reanalyze(self, table: str,
                            pending: tuple[str, ...]) -> TableStats | None:
        """The column pass over just the pending columns of ``table``.

        Their rebuilt :class:`ColumnStats` are spliced into the cached
        table statistics (other columns keep their distributions).
        Returns None when a full ANALYZE is the right tool instead —
        never-analyzed table, unknown table, or no pending column actually
        in the schema — after clearing the pending marks so ``stats()``
        proceeds.
        """
        snapshot = self._db.begin_snapshot()
        version = snapshot.version_of(table)
        with self._lock:
            analyzed = table in self._stats
        try:
            view = snapshot._heap(table)
        except KeyError:
            view = None
        targets = [c for c in pending
                   if view is not None and view.schema.has_column(c)]
        if not analyzed or not targets:
            self.feedback.resolve(table, pending, version)
            return None
        rebuilt = _column_pass(view, targets)
        with self._lock:
            stats = self._stats[table] = TableStats(
                table=table, row_count=len(view), analyzed_rows=len(view),
                version=version,
                columns=self._stats[table].columns.replaced(rebuilt))
        self.feedback.resolve(table, pending, version)
        metrics.get_registry().inc("planner.analyze.feedback")
        return stats

    # --------------------------------------------------------- estimation

    def eq_selectivity(self, table: str, column: str,
                       value: Any = None) -> float:
        column_stats = self.stats(table).column(column)
        if column_stats is None or column_stats.total == 0:
            return DEFAULT_EQ_SELECTIVITY
        return column_stats.eq_selectivity(value)

    def range_selectivity(self, table: str, column: str, low: Any, high: Any,
                          include_low: bool, include_high: bool) -> float:
        column_stats = self.stats(table).column(column)
        if column_stats is None or column_stats.total == 0:
            return DEFAULT_RANGE_SELECTIVITY
        return column_stats.range_selectivity(low, high,
                                              include_low, include_high)
