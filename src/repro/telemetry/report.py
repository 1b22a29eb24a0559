"""Trace/metrics reporting: load a telemetry file, summarize, render.

``summarize_trace`` turns a flat span list into the numbers a performance
investigation starts from: the top-k slowest spans and a per-layer time
breakdown.  Layer attribution uses *self time* (a span's duration minus
its children's), so an outer ``system.generate`` span does not absorb the
executor/RDBMS time it merely contains.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable

from repro.telemetry.tracing import Span

# First dotted component of a span/metric name -> Figure-1 layer.
LAYER_BY_PREFIX = {
    "system": "user",
    "executor": "processing",
    "extraction": "processing",
    "integration": "processing",
    "cache": "storage",
    "mapreduce": "cluster",
    "rdbms": "storage",
    "planner": "storage",
    "segments": "storage",
}


def layer_of(name: str) -> str:
    """Figure-1 layer of a dotted span/metric name (``other`` if unknown)."""
    return LAYER_BY_PREFIX.get(name.split(".", 1)[0], "other")


def summarize_trace(spans: Iterable[Span], top_k: int = 10) -> dict[str, Any]:
    """Aggregate a span list into a report dict.

    Returns keys: ``span_count``, ``trace_count``, ``roots`` (names of
    parentless spans), ``total_seconds`` (sum of root durations),
    ``top_spans`` (``[{name, span_id, duration, attributes}]``, slowest
    first), ``layer_seconds`` (self-time per layer), ``errors`` (names of
    spans with error status).
    """
    spans = list(spans)
    child_time: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )

    layer_seconds: dict[str, float] = {}
    for span in spans:
        self_time = max(span.duration - child_time.get(span.span_id, 0.0), 0.0)
        layer = layer_of(span.name)
        layer_seconds[layer] = layer_seconds.get(layer, 0.0) + self_time

    roots = [s for s in spans if s.parent_id is None]
    slowest = sorted(spans, key=lambda s: s.duration, reverse=True)[:top_k]
    return {
        "span_count": len(spans),
        "trace_count": len({s.trace_id for s in spans}),
        "roots": [s.name for s in roots],
        "total_seconds": sum(s.duration for s in roots),
        "top_spans": [
            {
                "name": s.name,
                "span_id": s.span_id,
                "duration": s.duration,
                "attributes": s.attributes,
            }
            for s in slowest
        ],
        "layer_seconds": dict(
            sorted(layer_seconds.items(), key=lambda kv: kv[1], reverse=True)
        ),
        "errors": [s.name for s in spans if s.status == "error"],
    }


def render_report(summary: dict[str, Any],
                  snapshot: dict[str, Any] | None = None,
                  max_metrics: int = 25) -> str:
    """Human-readable text for a ``summarize_trace`` result.

    With a metrics ``snapshot``, appends the counters (all of them up to
    ``max_metrics``, largest first) and any histograms.
    """
    root_counts: dict[str, int] = {}
    for name in summary["roots"]:
        root_counts[name] = root_counts.get(name, 0) + 1
    roots = ", ".join(
        name if count == 1 else f"{name} x{count}"
        for name, count in root_counts.items()
    )
    lines = [
        f"spans: {summary['span_count']} across "
        f"{summary['trace_count']} trace(s); "
        f"roots: {roots or '(none)'}",
        f"total traced time: {summary['total_seconds']:.4f}s",
        "",
        "per-layer self time:",
    ]
    total = sum(summary["layer_seconds"].values()) or 1.0
    for layer, seconds in summary["layer_seconds"].items():
        lines.append(
            f"  {layer:<12} {seconds:10.4f}s  {100.0 * seconds / total:5.1f}%"
        )
    lines += ["", f"top {len(summary['top_spans'])} slowest spans:"]
    for entry in summary["top_spans"]:
        lines.append(f"  {entry['duration']:10.4f}s  {entry['name']}")
    if summary["errors"]:
        lines += ["", f"spans with errors: {', '.join(summary['errors'])}"]
    if snapshot is not None:
        counters = sorted(snapshot.get("counters", {}).items(),
                          key=lambda kv: kv[1], reverse=True)
        all_counters = snapshot.get("counters", {})

        def family_present(prefix: str) -> bool:
            """A counter family exists even when its lookups are zero
            (e.g. only evictions incremented) — the
            line must then print ``n/a``, never divide by zero."""
            return any(name == prefix or name.startswith(prefix + ".")
                       for name in all_counters)

        if family_present("cache"):
            # Dedicated line: the hit rate is the number a caching session
            # is judged by, and the counters may not crack the top list.
            hits = all_counters.get("cache.hits", 0.0)
            lookups = hits + all_counters.get("cache.misses", 0.0)
            rate = (f"{100.0 * hits / lookups:.1f}% hit rate"
                    if lookups else "hit rate n/a")
            lines += [
                "",
                f"extraction cache: cache.hits={hits:.0f} "
                f"cache.misses={all_counters.get('cache.misses', 0.0):.0f} "
                f"({rate})",
            ]
        if family_present("planner.cache"):
            query_hits = all_counters.get("planner.cache.hits", 0.0)
            query_lookups = query_hits \
                + all_counters.get("planner.cache.misses", 0.0)
            rate = (f"{100.0 * query_hits / query_lookups:.1f}% hit rate"
                    if query_lookups else "hit rate n/a")
            lines += [
                "",
                f"query result cache: hits={query_hits:.0f} "
                f"misses={all_counters.get('planner.cache.misses', 0.0):.0f} "
                f"({rate}) declined="
                f"{all_counters.get('planner.cache.declined', 0.0):.0f}",
            ]
        if family_present("planner.prepared"):
            # A hit is a SELECT text of a known shape: bound, not lexed,
            # parsed or prepared.
            shape_hits = all_counters.get("planner.prepared.hits", 0.0)
            shape_misses = all_counters.get("planner.prepared.misses", 0.0)
            lookups = shape_hits + shape_misses
            rate = (f"{100.0 * shape_hits / lookups:.1f}% hit rate"
                    if lookups else "hit rate n/a")
            lines.append(f"prepared statements: hits={shape_hits:.0f} "
                         f"misses={shape_misses:.0f} ({rate})")
        if family_present("rdbms.mvcc"):
            builds = all_counters.get("rdbms.mvcc.snapshot_builds", 0.0)
            reuses = all_counters.get("rdbms.mvcc.snapshot_reuses", 0.0)
            takes = builds + reuses
            rate = (f"{100.0 * reuses / takes:.1f}% reuse rate"
                    if takes else "reuse rate n/a")
            # index_builds: indexes snapshots loaded from their views
            # where no D reached back to them; history_rows: the rids of
            # write history the database keeps, readers or not
            history = snapshot.get("gauges", {}).get(
                "rdbms.mvcc.history_rows", 0.0)
            lines += [
                "",
                f"mvcc snapshots: read_txns="
                f"{all_counters.get('rdbms.mvcc.read_txns', 0.0):.0f} "
                f"builds={builds:.0f} reuses={reuses:.0f} ({rate}) "
                f"index_builds="
                f"{all_counters.get('rdbms.mvcc.index_builds', 0.0):.0f} "
                f"history_rows={history:.0f}",
            ]
        if family_present("serving"):
            lines += [
                "",
                f"serving: admitted="
                f"{all_counters.get('serving.admitted', 0.0):.0f} "
                f"rejected={all_counters.get('serving.rejected', 0.0):.0f} "
                f"timed_out="
                f"{all_counters.get('serving.timed_out', 0.0):.0f} "
                f"drained={all_counters.get('serving.drained', 0.0):.0f} "
                f"txn_retries="
                f"{all_counters.get('rdbms.txn.retries', 0.0):.0f}",
            ]
        if family_present("segments"):
            seg_scanned = all_counters.get("segments.scanned", 0.0)
            seg_skipped = all_counters.get("segments.skipped", 0.0)
            visited = seg_scanned + seg_skipped
            rate = (f"{100.0 * seg_skipped / visited:.1f}% zone-map skip rate"
                    if visited else "zone-map skip rate n/a")
            lines += [
                "",
                f"columnar segments: scanned={seg_scanned:.0f} "
                f"skipped={seg_skipped:.0f} "
                f"({rate}) "
                f"frozen_rows="
                f"{all_counters.get('segments.rows_frozen', 0.0):.0f} "
                f"masked_rows="
                f"{all_counters.get('segments.rows_masked', 0.0):.0f} "
                f"group_orders_built="
                f"{all_counters.get('segments.group_orders_built', 0.0):.0f} "
                f"imprints_built="
                f"{all_counters.get('segments.imprints_built', 0.0):.0f} "
                f"cells_rechecked="
                f"{all_counters.get('planner.kernel.cells_rechecked', 0.0):.0f}",
            ]
            # per table: frozen rows deleted or superseded since they
            # froze, waiting for the next compaction
            dead = [f"{name.removeprefix('segments.dead_rows.')}={value:.0f}"
                    for name, value in sorted(
                        snapshot.get("gauges", {}).items())
                    if name.startswith("segments.dead_rows.") and value]
            if dead:
                lines.append(f"  dead rows awaiting compaction: "
                             f"{', '.join(dead)}")
        lines += ["", "metrics (counters):"]
        for name, value in counters[:max_metrics]:
            rendered = f"{value:.0f}" if value == int(value) else f"{value:.4f}"
            lines.append(f"  {name:<40} {rendered}")
        if len(counters) > max_metrics:
            lines.append(f"  ... {len(counters) - max_metrics} more")
        histograms = snapshot.get("histograms", {})
        if histograms:
            lines += ["", "metrics (histograms):"]
            for name, h in sorted(histograms.items()):
                lines.append(
                    f"  {name:<40} count={h['count']} sum={h['sum']:.1f} "
                    f"min={h['min']} max={h['max']}"
                )
    return "\n".join(lines)


def _prom_name(name: str) -> str:
    """Dotted metric name -> Prometheus-legal metric name."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: dict[str, Any] | None) -> str:
    """Prometheus text exposition (version 0.0.4) for a registry snapshot.

    Counters add a ``_total`` suffix, histograms emit cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``, matching what a
    scrape endpoint would serve.  Accepts None/empty snapshots (renders
    nothing but stays valid exposition text).
    """
    snapshot = snapshot or {}
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(h["buckets"], h["counts"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(float(bound))}"}} '
                f"{cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{metric}_sum {_prom_value(h['sum'])}")
        lines.append(f"{metric}_count {h['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def render_top(previous: dict[str, Any] | None, current: dict[str, Any],
               interval_seconds: float | None = None,
               slow_entries: list[dict[str, Any]] | None = None) -> str:
    """One frame of ``repro top``: a snapshot-diff operations view.

    With a ``previous`` snapshot and the seconds between the two, lines
    show per-second rates over the interval; without one, cumulative
    totals.  ``slow_entries`` (from the slow-query log) render as the
    current slow-query tail.
    """
    cur = current.get("counters", {})
    prev = (previous or {}).get("counters", {})

    def delta(name: str) -> float:
        return cur.get(name, 0.0) - prev.get(name, 0.0)

    def rate(value: float) -> str:
        if interval_seconds and interval_seconds > 0:
            return f"{value / interval_seconds:10.1f}/s"
        return f"{value:10.0f}"

    def hit_line(label: str, hits: float, misses: float) -> str:
        lookups = hits + misses
        pct = (f"{100.0 * hits / lookups:5.1f}%" if lookups else "  n/a ")
        return (f"  {label:<18} {pct}  "
                f"(hits {hits:.0f} / misses {misses:.0f})")

    mode = (f"delta over {interval_seconds:.1f}s"
            if previous is not None and interval_seconds else "cumulative")
    lines = [f"repro top — {mode}"]
    lines.append(f"  {'queries':<18} {rate(delta('system.queries'))}")
    lines.append(hit_line("result cache",
                          delta("planner.cache.hits"),
                          delta("planner.cache.misses")))
    lines.append(hit_line("prepared shapes",
                          delta("planner.prepared.hits"),
                          delta("planner.prepared.misses")))
    lines.append(hit_line("extraction cache",
                          delta("cache.hits"), delta("cache.misses")))
    wal_bytes = delta("rdbms.wal.bytes")
    lines.append(f"  {'WAL':<18} {rate(wal_bytes)} bytes  "
                 f"({delta('rdbms.wal.records'):.0f} records)")
    lines.append(f"  {'lock waits':<18} {delta('rdbms.lock.waits'):10.0f}  "
                 f"({delta('rdbms.lock.wait_seconds'):.3f}s waited)")
    snap_builds = delta("rdbms.mvcc.snapshot_builds")
    snap_reuses = delta("rdbms.mvcc.snapshot_reuses")
    if snap_builds or snap_reuses or delta("rdbms.mvcc.read_txns"):
        # (as on the stats line: loaded where no D reached back; the
        # write history kept, readers or not)
        history = current.get("gauges", {}).get("rdbms.mvcc.history_rows",
                                                0.0)
        lines.append(f"  {'mvcc snapshots':<18} "
                     f"{rate(delta('rdbms.mvcc.read_txns'))} reads  "
                     f"(builds {snap_builds:.0f} / reuses {snap_reuses:.0f}"
                     f" / indexes loaded "
                     f"{delta('rdbms.mvcc.index_builds'):.0f}, history held "
                     f"{history:.0f} rows)")
    admitted = delta("serving.admitted")
    rejected = delta("serving.rejected")
    timed_out = delta("serving.timed_out")
    if admitted or rejected or timed_out:
        lines.append(f"  {'admission':<18} {rate(admitted)} admitted  "
                     f"(rejected {rejected:.0f} / "
                     f"timed out {timed_out:.0f} / "
                     f"txn retries {delta('rdbms.txn.retries'):.0f})")
    seg_scanned = delta("segments.scanned")
    seg_skipped = delta("segments.skipped")
    if seg_scanned or seg_skipped:
        lines.append(f"  {'segments':<18} scanned {seg_scanned:.0f} / "
                     f"pruned {seg_skipped:.0f}")
    captured = delta("slowlog.captured")
    lines.append(f"  {'slow queries':<18} {captured:10.0f}")
    if slow_entries:
        lines.append("  slow-query tail:")
        for entry in slow_entries:
            sql = entry.get("sql", "?")
            if len(sql) > 60:
                sql = sql[:57] + "..."
            lines.append(f"    {entry.get('seconds', 0.0):8.3f}s  {sql}")
    return "\n".join(lines)


def load_telemetry(path: str) -> tuple[list[Span], dict[str, Any] | None]:
    """Read a ``--telemetry`` JSONL file.

    Returns:
        (spans, metrics snapshot) — all metrics records in the file merged
        under the registry rules (each CLI invocation appends the totals
        of its own fresh registry, so counters add up to session totals),
        or None if none was written.
    """
    from repro.telemetry.metrics import MetricsRegistry

    spans: list[Span] = []
    merged: MetricsRegistry | None = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("kind", "span")
            if kind == "span":
                spans.append(Span.from_dict(record))
            elif kind == "metrics":
                if merged is None:
                    merged = MetricsRegistry()
                merged.merge(record["snapshot"])
    return spans, merged.snapshot() if merged is not None else None
