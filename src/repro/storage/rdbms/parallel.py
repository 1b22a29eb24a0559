"""Parallel shard execution over the cluster backends (DESIGN.md §14).

When a table is sharded (``CREATE TABLE ... SHARD BY (col) SHARDS n``)
and the database carries an execution backend (``Database.exec_backend``),
the planner swaps its chosen scan for the operators in this module.
Each wraps the planner's own scan kernel, ``AggState`` and
``hash_join_pairs`` in the one :func:`exchange` that fans work out:

* :class:`ParallelScan` — exchange(scan kernel) + a rid heap-merge of
  the per-shard streams, byte-identical to the single-shard plan; shards
  a shard-key equality/IN predicate pins away are pruned at plan time.
  Under an aggregate it folds instead — exchange(scan kernel → partial
  ``AggState``) + ``merge`` in shard order, EXPLAIN's
  ``ParallelAggregate`` — when ``AggState.mergeable`` says the merged
  fold is exact (FLOAT sums and FLOAT group keys keep the serial fold);
* :class:`ParallelHashJoin` — shard-local hash join when both sides are
  co-partitioned on the join key, else broadcast of the
  statistics-smaller side to every shard of the fanned side.

Workers are module-level functions over picklable tasks (segments,
conjunct ASTs and row dicts all pickle), so the same code runs on the
serial, thread and process backends.  They ship ``(rid, values)`` rows
back — merging shards by rid is row-at-a-time by nature — which the
operators re-batch into rows units.  Each operator preserves the naive
interpreter's row order exactly — the sharded differential suite and the
E22 bench gate that invariant.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.errors import StaleSnapshotError
from repro.storage.rdbms import planner as _planner
from repro.storage.rdbms.engine import Transaction
from repro.storage.rdbms.sharding import ShardSpec
from repro.storage.rdbms.sql import InPredicate, SelectStatement
from repro.storage.rdbms.table import ScanUnit, unit_len
from repro.telemetry import metrics
from repro.telemetry.tracing import get_tracer

#: Rough per-task row budget: segments stay whole (they are already
#: frozen units), tail row lists are sliced, small units coalesce.
CHUNK_TARGET_ROWS = 16_384


# ---------------------------------------------------------- shard pruning


def _conjunct_shards(conjunct: Any, spec: ShardSpec,
                     table: str) -> set[int] | None:
    """Shards that can hold rows satisfying one conjunct, or None when
    the conjunct does not constrain the shard key."""
    eq = _planner._eq_conjunct(conjunct)
    if eq is not None:
        ref, value = eq
        if ref.table in (None, table) and ref.name == spec.key:
            if value is None:
                return set()  # ``col = NULL`` matches no row
            return {spec.shard_of(value)}
        return None
    if isinstance(conjunct, InPredicate) and not conjunct.negated:
        ref = conjunct.column
        if ref.table in (None, table) and ref.name == spec.key:
            # NULL in the value list matches NULL-keyed rows here (the
            # evaluator's ``value in values``), and those rows live in
            # shard_of(None) — which the comprehension already includes.
            return {spec.shard_of(v) for v in conjunct.values}
    return None


def allowed_shards(conjuncts: list[Any], spec: ShardSpec,
                   table: str) -> list[int]:
    """Shards that can contain matching rows (ascending); conjuncts that
    do not pin the shard key leave the set untouched."""
    allowed = set(range(spec.count))
    for conjunct in conjuncts:
        shards = _conjunct_shards(conjunct, spec, table)
        if shards is not None:
            allowed &= shards
    return sorted(allowed)


# ---------------------------------------------------------------- workers
#
# Every worker answers in one shape: ``out`` (rows / partial state / join
# pairs), wall ``seconds``, and per fanned input a ``(rows, segments
# scanned, segments skipped)`` triple.


@dataclass
class ShardTask:
    """(A slice of) one shard's units under the scan's predicate; ``stmt``
    is set when the shard folds into a partial aggregate."""

    shard: int
    units: list[ScanUnit]
    pred: _planner.ScanPredicate
    stmt: SelectStatement | None = None


@dataclass
class JoinShardTask:
    """One shard's join: a side is a :class:`ShardTask` when it fans out
    (scan this shard's units), the broadcast side's rows otherwise."""

    shard: int
    left: ShardTask | list[tuple[int, dict[str, Any]]]
    right: ShardTask | list[tuple[int, dict[str, Any]]]
    tables: tuple[str, str]
    cols: tuple[str, str]


def _result(out: Any, t0: float,
            fanned: list[tuple[int, _planner.OperatorProfile]],
            ) -> dict[str, Any]:
    return {"out": out, "seconds": perf_counter() - t0,
            "fanned": [(n, prof.segments_scanned, prof.segments_skipped)
                       for n, prof in fanned]}


def run_scan_chunk(task: ShardTask) -> dict[str, Any]:
    """Worker: scan one chunk of one shard, applying the full predicate."""
    t0 = perf_counter()
    prof = _planner.OperatorProfile()
    rows = list(_planner.scan_rows(task.units, task.pred, prof=prof))
    return _result(rows, t0, [(len(rows), prof)])


def run_agg_shard(task: ShardTask) -> dict[str, Any]:
    """Worker: fold one shard into a partial aggregate state."""
    t0 = perf_counter()
    prof = _planner.OperatorProfile()
    state = _planner.AggState(task.stmt)
    n = _planner.fold_units(task.units, task.pred, state, prof=prof)
    return _result(state, t0, [(n, prof)])


def run_join_shard(task: JoinShardTask) -> dict[str, Any]:
    """Worker: hash-join one shard, output keyed (left rid, right rid)."""
    t0 = perf_counter()
    inputs = []
    fanned = []
    for side in (task.left, task.right):
        if isinstance(side, ShardTask):
            scanned = run_scan_chunk(side)
            fanned += scanned["fanned"]
            side = scanned["out"]
        inputs.append(side)
    pairs = _planner.hash_join_pairs(*inputs, *task.tables, *task.cols)
    return {"out": pairs, "seconds": perf_counter() - t0, "fanned": fanned}


# ---------------------------------------------------------------- exchange


class ShardScan(_planner.PlanNode):
    """Pseudo-child rendering the fanned-out per-shard work.

    Fanned operators execute N worker tasks but must render ONE plan
    line, so the exchange sums worker actuals into this node's profile
    (rows summed, loops = shards that executed, time = summed worker
    seconds).  Nothing ever opens it, so a fully pruned fan-out leaves
    the profile untouched, which describe() renders as ``never
    executed``.
    """

    def __init__(self, table: str, total: int, live: int,
                 side: str | None = None) -> None:
        self.table = table
        self.total = total
        self.live = live
        self.side = side  # join fan sides label which input fans out

    def absorb(self, seconds: float, actuals: tuple[int, int, int],
               new_shard: bool) -> None:
        """Fold one worker result's actuals into this node's profile."""
        prof = self.profile
        if prof is None:
            return
        if new_shard:
            prof.loops += 1
        rows, scanned, skipped = actuals
        prof.rows += rows
        prof.seconds += seconds
        prof.segments_scanned += scanned
        prof.segments_skipped += skipped

    def label(self) -> str:
        prefix = f"ShardScan({self.table}" if self.side is None \
            else f"ShardScan({self.side}={self.table}"
        return (f"{prefix}, shards={self.live}/{self.total} "
                f"pruned={self.total - self.live})")


def _chunk_shard_units(units: list[ScanUnit]) -> list[list[ScanUnit]]:
    """Split one shard's unit list into ~CHUNK_TARGET_ROWS-row tasks,
    preserving unit order (per-shard rid order)."""
    chunks: list[list[ScanUnit]] = []
    cur: list[ScanUnit] = []
    cur_rows = 0
    for kind, unit, selected in units:
        n = unit_len(kind, unit, selected)
        if cur and cur_rows + n > CHUNK_TARGET_ROWS:
            chunks.append(cur)
            cur, cur_rows = [], 0
        if kind == "rows" and n > CHUNK_TARGET_ROWS:
            if cur:
                chunks.append(cur)
                cur, cur_rows = [], 0
            for i in range(0, n, CHUNK_TARGET_ROWS):
                chunks.append([("rows", unit[i:i + CHUNK_TARGET_ROWS], None)])
            continue
        cur.append((kind, unit, selected))
        cur_rows += n
    if cur:
        chunks.append(cur)
    return chunks


def _checked_shard_units(txn: Transaction, table: str,
                         spec: ShardSpec) -> list[list[ScanUnit]]:
    """The transaction's per-shard units, verified against the planned spec.

    Snapshot readers take no locks, so a reshard can commit between
    snapshot acquisition and planning; executing a plan pruned under the
    new routing over units partitioned under the old one would drop rows
    silently.  Any disagreement (different key, count, or the table
    unsharded entirely) raises :class:`StaleSnapshotError`, which the
    statement executor answers with a fresh snapshot + fresh plan.
    """
    if txn.shard_spec(table) != spec:
        metrics.get_registry().inc("parallel.stale_layouts")
        raise StaleSnapshotError(
            f"shard layout of {table!r} changed between snapshot and plan")
    return txn.sharded_scan_units(table)


def exchange(txn: Transaction, shards: list[int], fans: list[Any],
             make_task: Callable[[int, list[list[ScanUnit]]], Any],
             worker: Callable[[Any], dict[str, Any]],
             prof: _planner.OperatorProfile | None,
             chunk: bool = False,
             ) -> tuple[list[Any], Iterator[tuple[Any, dict[str, Any]]]]:
    """Fan work out over the live ``shards`` of one or two co-partitioned
    inputs — the one place that decides how.

    Each of ``fans`` carries ``table``, ``spec`` (the layout the plan
    assumed), ``pred`` and the ``shard_scan`` rendering its actuals.  Per
    live shard, each fan's units (stale-layout checked) lose the
    segments zone maps prove empty *before* anything is pickled — what
    keeps a shard-pruned point query competitive with the index path —
    and become ``make_task(shard, [units per fan])``; a shard with an
    empty fan gets no task.  ``chunk`` slices a single fan's units into
    ~:data:`CHUNK_TARGET_ROWS`-row tasks, round-robined so every shard
    progresses under the backend's bounded submit-ahead window.

    Returns ``(tasks, results)``: ``results`` lazily yields ``(task,
    worker result)`` in task order (abandoned, the remaining tasks never
    run), polls the cancellation token between results and folds each
    result's actuals into the fans' ShardScans.
    """
    registry = metrics.get_registry()
    total = fans[0].spec.count
    registry.inc("parallel.shards.scanned", len(shards))
    registry.inc("parallel.shards.pruned", total - len(shards))
    if prof is not None:
        prof.shards_total += total
        prof.shards_pruned += total - len(shards)
    if not shards:
        return [], iter(())
    layouts = [_checked_shard_units(txn, fan.table, fan.spec)
               for fan in fans]
    per_shard: list[list[Any]] = []
    total_rows = 0
    for shard in shards:
        unit_lists = [
            list(_planner.prune_units(layout[shard], fan.pred,
                                      prof=fan.shard_scan.profile,
                                      count=False))
            for fan, layout in zip(fans, layouts)]
        if not all(unit_lists):
            continue  # an empty fanned input scans / joins to nothing
        total_rows += sum(unit_len(*unit)
                          for units in unit_lists for unit in units)
        groups = [[c] for c in _chunk_shard_units(unit_lists[0])] \
            if chunk else [unit_lists]
        per_shard.append([make_task(shard, group) for group in groups])
    tasks = [task for tier in zip_longest(*per_shard)
             for task in tier if task is not None]
    # Tiny fan-outs run inline at the coordinator: a single task has no
    # parallelism to win, and for a handful of rows the pool's pickle +
    # dispatch latency dominates the work itself — exactly the shape of
    # a shard-pruned point query.  Inline is a lazy ``map``, so LIMIT
    # early-exit behaves like the backend path.
    inline = len(tasks) == 1 or total_rows * 2 <= CHUNK_TARGET_ROWS
    results = map(worker, tasks) if inline else \
        txn._db.exec_backend.map_stream(worker, tasks, chunk_size=1)
    guard = txn.guard

    def absorbed() -> Iterator[tuple[Any, dict[str, Any]]]:
        started: set[int] = set()
        for task, result in zip(tasks, results):
            if guard is not None:
                guard.check()
            new_shard = task.shard not in started
            started.add(task.shard)
            for fan, actuals in zip(fans, result["fanned"]):
                fan.shard_scan.absorb(result["seconds"], actuals, new_shard)
            yield task, result

    return tasks, absorbed()


# ------------------------------------------------------------- operators


class ParallelScan(_planner.PlanNode):
    """Fan a sharded table's scan out on the execution backend.

    Plan-time shard pruning drops shards a shard-key equality or IN
    conjunct proves empty; the rest go through :func:`exchange` as
    per-shard chunk tasks running the scan kernel.  Each shard's chunks
    arrive in rid order, and a ``heapq.merge`` over the per-shard streams
    restores global rid order — row- and byte-identical to the serial
    scan.  Streaming end to end: chunks buffer per shard (bounded by
    the backend window) and the merge is cut into a rows unit per
    worker result, so a LIMIT abandons the merge without materializing
    the table.  An aggregate directly on top folds
    instead: one task per shard fills a partial ``AggState``, merged in
    shard order — or, for a statement ``AggState.mergeable`` rejects,
    the serial fold over the rid-ordered rows.
    """

    plan_counter = "planner.plans.parallel_scan"

    def __init__(self, table: str, pred: _planner.ScanPredicate,
                 spec: ShardSpec, shards: list[int], schema: Any) -> None:
        self.table = table
        self.pred = pred
        self.schema = schema
        self.spec = spec
        self.shards = shards  # live (un-pruned) shards, ascending
        self.shard_scan = ShardScan(table, spec.count, len(shards))

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        tasks, stream = exchange(
            txn, self.shards, [self],
            lambda shard, units: ShardTask(shard, units[0], self.pred),
            run_scan_chunk, self.profile, chunk=True)
        # Only shards WITH tasks get a stream below, so none can be
        # forced to drain every other shard's chunks looking for its own.
        buffers: dict[int, deque] = {task.shard: deque() for task in tasks}
        fetched = False  # a worker result arrived since the last unit

        def shard_rows(shard: int) -> Iterator[tuple[int, dict[str, Any]]]:
            nonlocal fetched
            # The per-shard generators share the result stream:
            # whichever the merge pulls next drains it into the buffers
            # until its own chunk arrives.
            with get_tracer().span("rdbms.shard_scan", table=self.table,
                                   shard=shard):
                buf = buffers[shard]
                while True:
                    if buf:
                        yield from buf.popleft()
                        continue
                    try:
                        task, result = next(stream)
                    except StopIteration:
                        return
                    buffers[task.shard].append(result["out"])
                    fetched = True

        # One rows unit per stretch of the merge the results in hand can
        # feed: a consumer that stops early never asks for the next task.
        batch: list[tuple[int, dict[str, Any]]] = []
        for row in heapq.merge(*(shard_rows(s) for s in sorted(buffers)),
                               key=itemgetter(0)):
            if fetched:
                fetched = False
                if batch:
                    yield "rows", batch, None
                    batch = []
            batch.append(row)
        if batch:
            yield "rows", batch, None

    def _fold(self, txn: Transaction, state: _planner.AggState) -> int:
        if not _planner.AggState.mergeable(state.stmt, self.schema):
            return super()._fold(txn, state)
        _, stream = exchange(
            txn, self.shards, [self],
            lambda shard, units: ShardTask(shard, units[0], self.pred,
                                           state.stmt),
            run_agg_shard, self.profile)
        n = 0
        for _, result in stream:
            state.merge(result["out"])
            (rows, _, _), = result["fanned"]
            n += rows
        return n

    def fold_plan(self, stmt: SelectStatement,
                  schema: Any) -> tuple[str, str] | None:
        if not _planner.AggState.mergeable(stmt, schema):
            return None
        return "ParallelAggregate", "planner.plans.parallel_agg"

    def feedback_keys(self) -> list[tuple[str, str]]:
        return self.pred.feedback_keys()

    def children(self) -> list[_planner.PlanNode]:
        return [self.shard_scan]

    def label(self) -> str:
        return (f"ParallelScan({self.table}, "
                f"pred={_planner.render_predicate(self.pred.full)}, "
                f"shards={len(self.shards)}/{self.spec.count})")


def plan_parallel_scan(planner: "_planner.Planner", table: str,
                       conjuncts: list[Any],
                       chosen: "_planner._AccessChoice",
                       ) -> ParallelScan | None:
    """A :class:`ParallelScan` replacing the ``chosen`` access path when
    the table is sharded and the database carries an execution backend;
    None keeps the serial path (always for index point lookups: the
    probe beats fan-out for tiny row counts).  The parallel node
    consumes ALL conjuncts — its workers apply the full predicate."""
    db = planner._db
    backend = db.exec_backend
    heap = db._table(table)
    spec = heap.shard_spec
    if backend is None or spec is None or spec.count <= 1 \
            or chosen.node.beats_fan_out:
        return None
    shards = allowed_shards(conjuncts, spec, table)
    node = ParallelScan(
        table, _planner.ScanPredicate(conjuncts, heap.schema, table),
        spec, shards, heap.schema)
    # A path that consumed no conjunct estimated the unfiltered table.
    node.est_rows = chosen.est_rows if chosen.consumed \
        else planner._filtered_estimate(table, chosen.est_rows, conjuncts)
    # Fan-out splits the chosen scan's work across shards; pruning
    # drops the pinned-away fraction entirely.
    node.cost = chosen.cost * (len(shards) / spec.count) \
        / min(getattr(backend, "max_workers", 1) or 1, spec.count) \
        + _planner._PROBE_COST
    node.shard_scan.est_rows = node.est_rows
    node.shard_scan.cost = node.cost
    return node


# ------------------------------------------------------------ parallel join


@dataclass
class _JoinSide:
    """Plan-time description of one join input."""

    table: str
    col: str
    pred: _planner.ScanPredicate
    fan: bool  # fans over its shards vs broadcast to every task
    node: _planner.PlanNode | None  # planned node for the broadcast side
    spec: ShardSpec | None  # layout the plan assumed, for fan sides
    shard_scan: ShardScan | None = None  # renders a fan side's actuals


class ParallelHashJoin(_planner.PlanNode):
    """Equi-join fanned out per shard on the execution backend.

    ``mode='co'``: both inputs are sharded on their join column with
    equal shard counts, so matching keys are guaranteed to live in the
    same shard index (the canonical key encoding folds ``1``/``1.0``/
    ``True`` together exactly like SQL ``=``) and each shard joins
    locally.  ``mode='broadcast'``: only the fan side is partitioned;
    the other side's planned subtree executes once coordinator-side and
    its rows ship to every shard task.  Workers run the same
    ``hash_join_pairs`` as :class:`HashJoin`; the coordinator heap-merges
    their (left rid, right rid)-keyed lists — byte-identical to it.
    """

    plan_counter = "planner.plans.parallel_join"

    def __init__(self, left: _JoinSide, right: _JoinSide, mode: str,
                 spec_count: int, shards: list[int]) -> None:
        self.left = left
        self.right = right
        self.mode = mode  # 'co' | 'broadcast'
        self.spec_count = spec_count
        self.shards = shards

    def _units(self, txn: Transaction) -> Iterator[ScanUnit]:
        sides = (self.left, self.right)
        # The broadcast side (if any) runs once, here, and ships whole.
        shipped = next((list(s.node.rows(txn)) for s in sides
                        if not s.fan and self.shards), None)

        def make_task(shard: int, unit_lists: list) -> JoinShardTask:
            units = iter(unit_lists)
            left, right = (ShardTask(shard, next(units), s.pred) if s.fan
                           else shipped for s in sides)
            return JoinShardTask(shard, left, right,
                                 (self.left.table, self.right.table),
                                 (self.left.col, self.right.col))

        _, stream = exchange(txn, self.shards, [s for s in sides if s.fan],
                             make_task, run_join_shard, self.profile)
        yield _planner.joined_unit(heapq.merge(
            *[result["out"] for _, result in stream], key=itemgetter(0)))

    def children(self) -> list[_planner.PlanNode]:
        sides = (self.left, self.right)
        return [s.shard_scan for s in sides if s.fan] \
            + [s.node for s in sides if not s.fan]

    def label(self) -> str:
        if self.mode == "co":
            detail = "co-partitioned"
        else:
            detail = f"broadcast={'right' if self.left.fan else 'left'}"
        return (f"ParallelHashJoin({self.left.table}.{self.left.col} = "
                f"{self.right.table}.{self.right.col}, {detail}, "
                f"shards={len(self.shards)}/{self.spec_count})")


def plan_parallel_join(db: Any, join: _planner.HashJoin,
                       left_conjuncts: list[Any],
                       right_conjuncts: list[Any],
                       left_est: float, right_est: float,
                       ) -> ParallelHashJoin | None:
    """A :class:`ParallelHashJoin` replacing the planned serial ``join``
    when at least one input is sharded and the database carries a
    backend; None keeps the HashJoin."""
    if db.exec_backend is None:
        return None
    lspec = db._table(join.left_table).shard_spec
    rspec = db._table(join.right_table).shard_spec
    co = (lspec is not None and rspec is not None
          and lspec.count == rspec.count and lspec.count > 1
          and lspec.key == join.left_col and rspec.key == join.right_col)
    left_shards = allowed_shards(left_conjuncts, lspec, join.left_table) \
        if lspec is not None else []
    right_shards = allowed_shards(right_conjuncts, rspec, join.right_table) \
        if rspec is not None else []
    if co:
        fan_left = fan_right = True
        shards = sorted(set(left_shards) & set(right_shards))
    else:
        # Broadcast: fan over a sharded side; when both are sharded but
        # not co-partitioned, broadcast the statistics-smaller side.
        left_ok = lspec is not None and lspec.count > 1
        right_ok = rspec is not None and rspec.count > 1
        if not (left_ok or right_ok):
            return None
        fan_left = left_est >= right_est if left_ok and right_ok else left_ok
        fan_right = not fan_left
        shards = left_shards if fan_left else right_shards

    count = (lspec if fan_left else rspec).count

    def side(name, table, col, conjuncts, fan, node, spec):
        pred = _planner.ScanPredicate(conjuncts, db._table(table).schema,
                                      table)
        if not fan:
            return _JoinSide(table, col, pred, False, node, None)
        scan = ShardScan(table, count, len(shards), side=name)
        scan.est_rows = join.est_rows
        return _JoinSide(table, col, pred, True, None, spec, scan)

    node = ParallelHashJoin(
        side("left", join.left_table, join.left_col, left_conjuncts,
             fan_left, join.left, lspec),
        side("right", join.right_table, join.right_col, right_conjuncts,
             fan_right, join.right, rspec),
        "co" if co else "broadcast", count, shards)
    node.est_rows = join.est_rows
    node.cost = join.cost
    return node
