"""What the e2e benchmark reports, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one list of workloads and
metrics (names, units, directions, bounds); nothing here repeats it.  Which
end-to-end metric a layer metric is expected to move, on which workload, is
prose: README.md, "Per-layer metrics".
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ROUNDS = 3  # every timed phase is three equal rounds
# The issue's workload-specific end-to-end metrics: plain wall clock, too
# unsteady in this sandbox for the driver's contract (README), so they are
# ``workload.*`` rows of the per-layer list there.  compare.py judges them
# with the issue's bounds, beside the driver's five; 0 is "exact for a seed".
ISSUE_BOUNDS = {
    "workload.docs_per_s": 0.10,
    "workload.reopen_p50_s": 0.10,
    "workload.freshness_p50_ms": 0.10,
    "workload.freshness_p95_ms": 0.15,
    "workload.queries_per_s": 0.10,
    "workload.query_p50_ms": 0.10,
    "workload.query_p95_ms": 0.15,
    "workload.read_after_commit_p50_ms": 0.10,
    "workload.write_p50_ms": 0.15,
    "workload.wal_bytes_per_fact": 0.0,
    "workload.stored_bytes_per_corpus_byte": 0.0,
}
EXACT = tuple(name for name, bound in ISSUE_BOUNDS.items() if not bound)


@functools.cache
def contract() -> dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def names(section: str) -> tuple[str, ...]:
    """Names under ``workloads``, ``end_to_end`` or ``per_layer``, in order."""
    return tuple(entry["name"] for entry in contract()[section])


@functools.cache
def units() -> dict[str, str]:
    return {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
            for m in contract()[section]}


# Ambient-registry counter -> per-layer metric (delta over the traced window).
COUNTERS: dict[str, str] = {
    "extraction.docs": "extraction.docs.n",
    "extraction.extractions": "extraction.extractions.n",
    "cache.hits": "cache.hits.n",
    "cache.misses": "cache.misses.n",
    "integration.resolve.mentions": "integration.resolve.mentions.n",
    "dge.pairs_scored": "integration.pairs_scored.n",
    "dge.clusters_split": "integration.clusters_split.n",
    "dge.fused_rows_written": "integration.fused_rows_written.n",
    "system.facts.flagged": "debugger.flagged.n",
    "cq.delta_rows_checked": "userlayer.monitoring.delta_rows_checked.n",
    "dge.rows_pushed": "userlayer.monitoring.notifications.n",
    "dge.deltas_in": "core.streaming.deltas_in.n",
    "dge.docs_in": "core.streaming.docs_in.n",
    "dge.docs_deadlettered": "core.streaming.deadlettered.n",
    "serving.admitted": "core.serving.admitted.n",
    "serving.rejected": "core.serving.rejected.n",
    "serving.timed_out": "core.serving.timed_out.n",
    "rdbms.txn.commits": "storage.rdbms.engine.commits.n",
    "rdbms.rows.inserted": "storage.rdbms.engine.rows_inserted.n",
    "rdbms.wal.bytes": "storage.rdbms.wal.bytes",
    "rdbms.wal.records": "storage.rdbms.wal.records.n",
    "rdbms.mvcc.snapshot_builds": "storage.rdbms.mvcc.snapshot_builds.n",
    "rdbms.mvcc.snapshot_reuses": "storage.rdbms.mvcc.snapshot_reuses.n",
    "planner.cache.hits": "storage.rdbms.qcache.hits.n",
    "planner.cache.misses": "storage.rdbms.qcache.misses.n",
    "planner.cache.invalidations": "storage.rdbms.qcache.invalidations.n",
    "planner.plans.index_lookup": "storage.rdbms.planner.plans.index_lookup.n",
    "planner.plans.segment_scan": "storage.rdbms.planner.plans.segment_scan.n",
    "planner.plans.topk": "storage.rdbms.planner.plans.topk.n",
    "planner.plans.vectorized_agg":
        "storage.rdbms.planner.plans.vectorized_agg.n",
    "planner.plans.full_scan": "storage.rdbms.planner.plans.full_scan.n",
    "rdbms.index.lookups": "storage.rdbms.index.lookups.n",
    "rdbms.index.rows_fetched": "storage.rdbms.index.rows_fetched.n",
    "segments.rows_frozen": "storage.rdbms.segments.rows_frozen.n",
    "segments.melted": "storage.rdbms.segments.melted.n",
    "segments.scanned": "storage.rdbms.segments.scanned.n",
    "segments.skipped": "storage.rdbms.segments.skipped.n",
    "rdbms.lock.waits": "storage.rdbms.lockmgr.waits.n",
    "rdbms.lock.wait_seconds": "storage.rdbms.lockmgr.wait_s",
}
