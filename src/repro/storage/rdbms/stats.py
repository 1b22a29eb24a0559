"""Table statistics for the cost-based planner (DESIGN.md §11).

The planner's cost model needs three things per table: how many rows it
has, how selective an equality predicate on a column is (≈ 1 / distinct
values), and how selective a range predicate is (read off a small
equal-depth histogram).  :class:`StatisticsManager` owns those numbers
for one :class:`~repro.storage.rdbms.engine.Database`:

* a **version counter** per table, bumped by a commit listener on every
  data-writing commit and schema change — this is what invalidates both
  stale statistics and the query-result cache;
* **incremental maintenance**: when a table has drifted only a little
  since the last full pass, the (always exact) live row count is folded
  in and the distributions are kept — no scan;
* a **full ANALYZE fallback**: once the drift exceeds
  ``staleness_fraction`` of the analyzed row count (or the table was
  never analyzed), one full scan rebuilds distinct counts, min/max, and
  the histograms;
* a **sampled ANALYZE** for big tables: above ``sample_threshold`` rows
  the pass reads a fixed-size uniform sample (deterministically seeded
  on table name + row count, so repeated runs agree) for histograms and
  distinct counts, while null counts and min/max stay *exact* — they
  come from columnar-segment zone maps plus a walk of the (small)
  row-store tail.

* **cardinality feedback**: the SQL layer reports estimated-vs-actual
  row counts after planned executions (exact per-operator actuals under
  ``EXPLAIN ANALYZE``, cheap result-derived counts otherwise) through
  :meth:`StatisticsManager.record_predicate_feedback`; a misestimate
  beyond the feedback ratio marks the offending columns pending, and the
  next ``stats()`` call runs a *targeted* re-ANALYZE of just those
  columns — the optimizer heals itself from its own telemetry without
  waiting for drift.

Statistics are advisory: plans stay *correct* on arbitrarily stale
numbers (residual filters re-check every predicate), only their cost
ranking degrades.
"""

from __future__ import annotations

import bisect
import random
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

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


@dataclass
class TableStats:
    """Statistics for one table at one analyzed point in time."""

    table: str
    row_count: int = 0
    analyzed_rows: int = 0
    version: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def _build_column_stats(values: list[Any]) -> ColumnStats:
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


class StatisticsManager:
    """Per-table statistics, versioned by the commit-listener stream.

    Obtained via :meth:`Database.statistics`; one instance per database.
    Thread-safe: the version map and the stats cache are guarded by one
    lock, and ANALYZE scans copy rows under the engine's mutate lock.
    """

    def __init__(self, db: "Database",
                 staleness_fraction: float = 0.25,
                 sample_threshold: int = 100_000,
                 sample_size: int = 20_000,
                 feedback_ratio: float = 4.0) -> None:
        self._db = db
        self._staleness = staleness_fraction
        self._sample_threshold = sample_threshold
        self._sample_size = sample_size
        self.feedback = CardinalityFeedback(ratio_threshold=feedback_ratio)
        self._lock = threading.Lock()
        self._versions: dict[str, int] = {}
        self._stats: dict[str, TableStats] = {}
        db.add_commit_listener(self._on_commit)

    # ------------------------------------------------------------ versions

    def _on_commit(self, tables: frozenset[str]) -> None:
        with self._lock:
            for table in tables:
                self._versions[table] = self._versions.get(table, 0) + 1

    def version(self, table: str) -> int:
        """Monotone counter: bumps on every commit/schema change of
        ``table``.  The result cache keys on this."""
        with self._lock:
            return self._versions.get(table, 0)

    # --------------------------------------------------------------- stats

    def analyze(self, table: str) -> TableStats:
        """Statistics pass: full scan, or sampled above the threshold.

        Raises:
            KeyError: unknown table.
        """
        db = self._db
        with self._lock:
            version = self._versions.get(table, 0)
        with db._mutate_lock:
            schema = db.schema(table)
            heap = db._table(table)
            count = len(heap)
            if count > self._sample_threshold:
                stats = self._analyze_sampled(table, heap, schema, count,
                                              version)
                with self._lock:
                    self._stats[table] = stats
                metrics.get_registry().inc("planner.analyze.sampled")
                return stats
            columns: dict[str, list[Any]] = {c: [] for c in schema.column_names}
            for row in heap.scan():
                for name in columns:
                    columns[name].append(row.values.get(name))
        stats = TableStats(
            table=table, row_count=count, analyzed_rows=count, version=version,
            columns={name: _build_column_stats(vals)
                     for name, vals in columns.items()},
        )
        with self._lock:
            self._stats[table] = stats
        metrics.get_registry().inc("planner.analyze.full")
        return stats

    def _analyze_sampled(self, table: str, heap: Any, schema: Any,
                         count: int, version: int) -> TableStats:
        """One sampled pass (caller holds the engine mutate lock).

        Histograms and distinct counts come from ``sample_size`` uniformly
        sampled positions; null counts and min/max are exact (zone maps
        per segment, value walk over the tail).  The RNG seed is derived
        from the table name and row count, so the same table state always
        yields the same sample.
        """
        rng = random.Random(f"analyze:{table}:{count}")
        k = min(self._sample_size, count)
        positions = sorted(rng.sample(range(count), k))
        names = list(schema.column_names)
        samples: dict[str, list[Any]] = {name: [] for name in names}
        null_counts = {name: 0 for name in names}
        bounds: dict[str, list[Any]] = {name: [None, None] for name in names}

        def fold(mm: list[Any], lo: Any, hi: Any) -> None:
            try:
                if lo is not None and (mm[0] is None or lo < mm[0]):
                    mm[0] = lo
                if hi is not None and (mm[1] is None or hi > mm[1]):
                    mm[1] = hi
            except TypeError:
                pass  # mixed incomparable types: bounds stay partial

        pos_index = 0
        base = 0
        # Enumerate segments + tail directly rather than via scan_units():
        # sampling needs a deterministic enumeration of every row, not
        # global rid order, and scan_units() collapses sharded tables
        # (whose per-shard rid ranges interleave) into one merged
        # decoded-rows unit — losing the zone-map fast path entirely.
        units: list[tuple[str, Any]] = [
            ("segment", s) for s in heap.segments if s.count]
        if heap.tail_size:
            units.append(("rows", heap._tail_rows()))
        for kind, unit in units:
            if kind == "segment":
                # Zone maps cover the dead positions too: bounds stay
                # valid (wider at worst), null counts give theirs back.
                dead = heap.dead_positions(unit)
                live = heap.live_positions(unit)
                for name in names:
                    col = unit.columns[name]
                    null_counts[name] += col.null_count \
                        - sum(map(col.is_null, dead))
                    fold(bounds[name], col.min_value, col.max_value)
                end = base + len(live)
                while pos_index < k and positions[pos_index] < end:
                    p = live[positions[pos_index] - base]
                    for name in names:
                        samples[name].append(unit.columns[name].value_at(p))
                    pos_index += 1
                base = end
                continue
            for _, values in unit:
                for name in names:
                    v = values.get(name)
                    if v is None:
                        null_counts[name] += 1
                    else:
                        fold(bounds[name], v, v)
                if pos_index < k and positions[pos_index] == base:
                    for name in names:
                        samples[name].append(values.get(name))
                    pos_index += 1
                base += 1
        columns: dict[str, ColumnStats] = {}
        for name in names:
            cs = _build_column_stats(samples[name])
            sample_non_null = sum(1 for v in samples[name] if v is not None)
            cs.total = count
            cs.null_count = null_counts[name]
            non_null_total = count - null_counts[name]
            if bounds[name][0] is not None:
                cs.min_value = bounds[name][0]
            if bounds[name][1] is not None:
                cs.max_value = bounds[name][1]
            if cs.distinct and sample_non_null:
                if cs.distinct >= sample_non_null / 10:
                    # High-cardinality sample: scale the distinct count up
                    # by the sampling fraction (capped at the non-null
                    # total).  Low-cardinality samples are kept as-is —
                    # a uniform sample of 20k rows almost surely saw
                    # every value of a small domain.
                    frac = sample_non_null / max(non_null_total, 1)
                    cs.distinct = min(
                        non_null_total,
                        max(cs.distinct, round(cs.distinct / frac)))
            columns[name] = cs
        return TableStats(table=table, row_count=count, analyzed_rows=count,
                          version=version, columns=columns)

    def stats(self, table: str) -> TableStats:
        """Current statistics, refreshed as cheaply as staleness allows.

        Unchanged version → cached as-is.  Small drift → exact live row
        count folded in, distributions reused (incremental path).  Large
        drift or never analyzed → full :meth:`analyze`.

        Raises:
            KeyError: unknown table.
        """
        pending = self.feedback.pending(table)
        if pending:
            refreshed = self._feedback_reanalyze(table, pending)
            if refreshed is not None:
                return refreshed
        with self._lock:
            version = self._versions.get(table, 0)
            cached = self._stats.get(table)
        if cached is not None and cached.version == version:
            return cached
        live_rows = self._db.table_size(table)
        if cached is not None and cached.analyzed_rows > 0:
            drift = abs(live_rows - cached.analyzed_rows)
            if drift <= self._staleness * cached.analyzed_rows:
                with self._lock:
                    cached.row_count = live_rows
                    cached.version = version
                metrics.get_registry().inc("planner.analyze.incremental")
                return cached
        return self.analyze(table)

    # ------------------------------------------------------------ feedback

    def record_predicate_feedback(self, table: str,
                                  keys: list[tuple[str, str]],
                                  est_rows: float, actual_rows: int) -> None:
        """Report one planned execution's estimated-vs-actual source
        cardinality, attributed to the (column, shape) pairs of the
        predicate.  Crossing the feedback ratio marks the columns
        pending; the next ``stats()`` call re-analyzes just them."""
        with self._lock:
            version = self._versions.get(table, 0)
        registry = metrics.get_registry()
        for column, shape in keys:
            if self.feedback.record(table, column, shape,
                                    est_rows, actual_rows, version):
                registry.inc("planner.feedback.misestimates")
        registry.inc("planner.feedback.observations")

    def _feedback_reanalyze(self, table: str,
                            pending: tuple[str, ...]) -> TableStats | None:
        """Targeted re-ANALYZE of the pending columns of ``table``.

        One scan collects only the offending columns and splices their
        rebuilt :class:`ColumnStats` into the cached table statistics
        (other columns keep their distributions).  Returns None when a
        full ANALYZE is the right tool instead — never-analyzed table,
        unknown table, or no pending column actually in the schema —
        after clearing the pending marks so ``stats()`` proceeds.
        """
        db = self._db
        with self._lock:
            version = self._versions.get(table, 0)
            cached = self._stats.get(table)
        try:
            schema = db.schema(table)
        except KeyError:
            self.feedback.resolve(table, pending, version)
            return None
        targets = [c for c in pending if schema.has_column(c)]
        if cached is None or not targets:
            self.feedback.resolve(table, pending, version)
            return None
        with db._mutate_lock:
            heap = db._table(table)
            count = len(heap)
            collected: dict[str, list[Any]] = {c: [] for c in targets}
            for row in heap.scan():
                values = row.values
                for name in targets:
                    collected[name].append(values.get(name))
        rebuilt = {name: _build_column_stats(vals)
                   for name, vals in collected.items()}
        with self._lock:
            cached = self._stats.get(table)
            if cached is None:
                stats = None
            else:
                columns = dict(cached.columns)
                columns.update(rebuilt)
                stats = TableStats(table=table, row_count=count,
                                   analyzed_rows=count, version=version,
                                   columns=columns)
                self._stats[table] = stats
        self.feedback.resolve(table, pending, version)
        metrics.get_registry().inc("planner.analyze.feedback")
        return stats

    # --------------------------------------------------------- estimation

    def row_count(self, table: str) -> int:
        """Exact live row count (always current, never estimated)."""
        return self._db.table_size(table)

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
