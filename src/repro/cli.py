"""Command-line interface — the user layer's sophisticated-user mode.

"The part 'User Services' contains all common data exploitation modes,
such as command-line interface (for sophisticated users), keyword search,
structured querying, etc."

Subcommands operate on a workspace directory (created on first use):

* ``ingest <dir>`` — ingest every ``*.txt`` page of a directory as a new
  snapshot of the corpus;
* ``generate <program.xlog>`` — run a declarative IE program and land
  the difference from its last run (over the built-in extractors, below);
* ``sql "<query>"`` — structured querying over the derived facts;
* ``search "<keywords>"`` — keyword search over the raw pages;
* ``suggest "<keywords>"`` — show structured reformulation candidates;
* ``explain "<select>"`` — the planner's physical plan for a query
  (``EXPLAIN ANALYZE SELECT ...`` via ``sql`` adds per-operator actuals);
* ``explain <entity> <attribute>`` — provenance of stored facts;
* ``stream [--query SQL] [--follow]`` — the streaming DGE loop: seed from
  the corpus, then (with ``--follow``) incrementally re-extract/re-resolve/
  re-fuse the pages the raw store wrote since the last poll, pushing
  standing-query notifications from the fused-row deltas;
* ``slowlog list|show|clear`` — the workspace's slow-query log;
* ``top <telemetry.jsonl>`` — periodic operations view (qps, cache hit
  rates, WAL throughput, lock waits, slow-query tail);
* ``stats <telemetry.jsonl> [--prom|--json]`` — trace/metrics report,
  Prometheus text exposition, or the raw merged snapshot.

Every command registers the built-in extractors, the generic wiki ones
(``infobox``, ``links``), which cover the common case of wiki-flavoured
corpora without any code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro import telemetry
from repro.cache.store import LRUExtractionCache
from repro.cluster.backends import BackendError
from repro.cluster.simulator import TaskFailedError
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.docmodel.corpus import DirectoryCorpus
from repro.errors import QueryTimeoutError, ReproError
from repro.storage.rdbms.sql import SqlError
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.links import LinkExtractor
from repro.telemetry.report import load_telemetry, render_prometheus, \
    render_report, render_top, summarize_trace
from repro.telemetry.slowlog import SlowQueryLog
from repro.userlayer.visualize import table

#: Exit code for execution failures (dead backend, exhausted retries, a
#: failed simulated task) — distinct from argparse's 2 and success's 0.
EXIT_EXECUTION_FAILURE = 3

#: Exit code for queries that ran out of time (deadline, lock-wait
#: timeout, shutdown cancellation) — distinct from execution failure so
#: callers can retry timeouts without re-examining the statement.
EXIT_QUERY_TIMEOUT = 4


def _build_system(workspace: str,
                  backend: str | None = None,
                  workers: int | None = None,
                  cache: str | None = None,
                  fail_fast: bool = False) -> StructureManagementSystem:
    system = StructureManagementSystem(workspace=workspace, backend=backend,
                                       backend_workers=workers, cache=cache,
                                       fail_fast=fail_fast)
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.registry.register_extractor("links", LinkExtractor())
    return system


def cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a directory of .txt pages into the workspace."""
    system = _build_system(args.workspace)
    corpus = DirectoryCorpus(args.directory)
    count = system.ingest(corpus)
    print(f"ingested {count} pages into {args.workspace}")
    system.close()
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Run (or EXPLAIN) a declarative IE program file."""
    system = _build_system(args.workspace, backend=args.backend,
                           workers=args.workers, cache=args.cache,
                           fail_fast=args.fail_fast)
    with open(args.program, "r", encoding="utf-8") as f:
        source = f.read()
    if args.explain:
        print(system.explain_program(source))
        system.close()
        return 0
    report = system.generate(source, optimize=not args.no_optimize)
    print(f"stored {report.facts_stored} facts, "
          f"retracted {report.facts_retracted}, "
          f"{report.facts_unchanged} unchanged "
          f"({report.facts_flagged} flagged); "
          f"scanned {report.chars_scanned} chars; "
          f"asked {report.hi_questions} HI questions")
    if report.failed_docs:
        print(f"quarantined {report.failed_docs} document(s) after "
              f"retries — inspect with 'repro deadletter list'")
    if report.backend_name != "inline":
        print(f"backend {report.backend_name}: "
              f"{report.real_parallel_seconds:.3f}s parallel extraction")
    if args.cache is not None:
        print(f"cache: {report.cache_hits} hits, "
              f"{report.cache_misses} misses")
    system.close()
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    """Run a SQL query over the derived facts and print a table."""
    system = _build_system(args.workspace, backend=args.backend,
                           workers=args.workers)
    rows = system.query(args.query)
    print(table(rows, limit=args.limit))
    system.close()
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Freeze a table's committed rows into columnar segments."""
    system = _build_system(args.workspace)
    try:
        summary = system.compact(args.table)
    except KeyError:
        print(f"unknown table {args.table!r}", file=sys.stderr)
        system.close()
        return 2
    print(f"compacted {summary['table']}: {summary['rows_frozen']} rows "
          f"frozen into {summary['segments_created']} new segment(s); "
          f"{summary['segment_count']} segment(s) total")
    system.close()
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """Keyword-search the raw pages; print ranked hits."""
    system = _build_system(args.workspace)
    for hit in system.keyword(args.query, k=args.limit):
        print(f"{hit.score:8.3f}  {hit.doc_id}  {hit.snippet[:80]}")
    system.close()
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    """Print ranked structured reformulations of keywords."""
    system = _build_system(args.workspace)
    translator = system.translator()
    candidates = translator.translate(args.query, k=args.limit)
    if not candidates:
        print("no structured reformulations found")
    for i, candidate in enumerate(candidates):
        print(f"[{i}] ({candidate.score:.2f}) {candidate.description}")
        print(f"    {candidate.sql}")
    system.close()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """With one argument, print the planner's physical plan for a SELECT;
    with two, print the provenance of facts about (entity, attribute)."""
    if len(args.target) > 2:
        print("explain takes a SQL query or an entity + attribute pair",
              file=sys.stderr)
        return 2
    system = _build_system(args.workspace)
    if len(args.target) == 1:
        print(system.explain_sql(args.target[0]))
    else:
        print(system.explain(args.target[0], args.target[1]))
    system.close()
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a telemetry JSONL file (spans + metrics snapshot).

    ``--prom`` renders the merged metrics snapshot as Prometheus text
    exposition; ``--json`` dumps it raw for scripts.
    """
    spans, snapshot = load_telemetry(args.telemetry_file)
    if args.prom:
        sys.stdout.write(render_prometheus(snapshot))
        return 0
    if args.json:
        print(json.dumps(snapshot or {}, indent=2, sort_keys=True))
        return 0
    if not spans and snapshot is None:
        print(f"no telemetry records in {args.telemetry_file}")
        return 1
    print(render_report(summarize_trace(spans, top_k=args.top), snapshot))
    return 0


def cmd_slowlog(args: argparse.Namespace) -> int:
    """Inspect or clear the workspace's slow-query log."""
    log = SlowQueryLog(os.path.join(args.workspace, "slowlog"))
    try:
        if args.action == "clear":
            dropped = log.clear()
            print(f"cleared {dropped} slow-query entr"
                  f"{'y' if dropped == 1 else 'ies'}")
            return 0
        entries = log.entries()
        if not entries:
            print("slow-query log is empty")
            return 0
        if args.action == "list":
            print(table([
                {"#": i, "seconds": f"{e.get('seconds', 0.0):.3f}",
                 "rows": e.get("rows", 0),
                 "sql": e.get("sql", "?")[:60]}
                for i, e in enumerate(entries)
            ], limit=args.limit))
            return 0
        # show: one full entry, annotated plan included
        index = args.index if args.index is not None else len(entries) - 1
        if not 0 <= index < len(entries):
            print(f"no slow-query entry {index} "
                  f"(log has {len(entries)})", file=sys.stderr)
            return 2
        entry = dict(entries[index])
        plan = entry.pop("plan", None)
        metrics_delta = entry.pop("metrics_delta", None)
        for key in ("ts", "sql", "seconds", "rows", "threshold"):
            if key in entry:
                print(f"{key:<14} {entry[key]}")
        versions = entry.get("stats_versions")
        if versions:
            print(f"{'stats':<14} " + " ".join(
                f"{t}=v{v}" for t, v in sorted(versions.items())))
        if plan:
            print("plan:")
            for line in plan:
                print(f"  {line}")
        if metrics_delta:
            print("metrics delta during capture:")
            for name, value in sorted(metrics_delta.items()):
                print(f"  {name:<40} {value:.0f}")
        return 0
    finally:
        log.close()


def cmd_top(args: argparse.Namespace) -> int:
    """Periodic operations view over a telemetry JSONL file.

    Each frame re-reads the file's merged metrics snapshot and shows the
    delta since the previous frame (first frame: cumulative totals).
    With a workspace slow-query log present, the tail rides along.
    """
    previous = None
    for frame in range(args.count):
        if frame:
            time.sleep(args.interval)
        try:
            _, snapshot = load_telemetry(args.telemetry_file)
        except FileNotFoundError:
            print(f"no telemetry file at {args.telemetry_file}",
                  file=sys.stderr)
            return 1
        snapshot = snapshot or {}
        slow_entries = None
        if os.path.isdir(os.path.join(args.workspace, "slowlog")):
            log = SlowQueryLog(os.path.join(args.workspace, "slowlog"))
            slow_entries = log.tail(limit=5)
            log.close()
        print(render_top(previous, snapshot,
                         interval_seconds=args.interval if frame else None,
                         slow_entries=slow_entries))
        if frame != args.count - 1:
            print()
        previous = snapshot
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent extraction cache."""
    root = args.cache if args.cache is not None \
        else os.path.join(args.workspace, "cache")
    if not os.path.isdir(root):  # nothing is cached; create nothing
        print(f"no extraction cache under {root}: 0 entries")
        return 0
    cache = LRUExtractionCache(root)
    if args.action == "stats":
        for key, value in cache.stats().items():
            print(f"{key:12} {value}")
    else:  # clear
        entries = len(cache)
        cache.clear()
        print(f"cleared {entries} cached entries under {root}")
    cache.close()
    return 0


def cmd_deadletter(args: argparse.Namespace) -> int:
    """Inspect, re-drive, or clear quarantined (poison) documents."""
    system = _build_system(args.workspace, backend=args.backend,
                           workers=args.workers, cache=args.cache)
    try:
        if args.action == "list":
            entries = system.deadletter.entries()
            if not entries:
                print("dead-letter store is empty")
                return 0
            print(table([
                {"doc_id": e.doc_id, "extractor": e.extractor,
                 "error_type": e.error_type, "attempts": e.attempts,
                 "error": e.error[:60]}
                for e in entries
            ], limit=args.limit))
            return 0
        if args.action == "clear":
            dropped = system.deadletter.clear()
            print(f"cleared {dropped} dead-letter entr"
                  f"{'y' if dropped == 1 else 'ies'}")
            return 0
        # retry
        if args.program is None:
            print("deadletter retry needs --program <file.xlog>",
                  file=sys.stderr)
            return 2
        with open(args.program, "r", encoding="utf-8") as f:
            source = f.read()
        retried, still_failed = system.retry_deadletter(source)
        print(f"retried {retried} document(s); "
              f"{retried - still_failed} recovered, "
              f"{still_failed} still quarantined")
        return 0
    finally:
        system.close()


def cmd_stream(args: argparse.Namespace) -> int:
    """Run the streaming DGE loop over the workspace corpus.

    Each invocation cold-starts the pipeline: ``fused_facts`` is rebuilt
    from the current corpus (cheap — extraction hits the persistent cache),
    and any ``--query`` standing queries fire on the fused rows as they
    land.  With ``--follow``, the command then follows the raw store's log
    and pushes only the pages written since the last round through incremental
    extraction -> entity resolution -> fusion, tailing notifications as
    they fire — the O(delta) path.
    """
    from repro.core.streaming import DocDelta
    from repro.userlayer.monitoring import ContinuousQuery

    system = _build_system(args.workspace, cache=args.cache)
    try:
        pipeline = system.streaming_pipeline(queue_size=args.queue_size)
        store, cursor = system.storage.raw, 0
        for i, sql in enumerate(args.query or []):
            system.monitoring.register(ContinuousQuery(
                f"stream-{i}", sql,
                callback=lambda qid, row: print(
                    f"[{qid}] {json.dumps(row, sort_keys=True, default=str)}"),
            ))
        rounds = args.rounds if args.follow else 1
        done = 0
        try:
            while rounds is None or done < rounds:
                if done:
                    time.sleep(args.interval)
                added, changed, cursor = store.changes_since(cursor)
                delta = DocDelta(tuple(map(store.checkout, added)),
                                 tuple(map(store.checkout, changed)))
                if len(delta):
                    written = pipeline.process(delta)
                    stats = pipeline.stats
                    label = "delta" if done else "seed"
                    print(f"{label}: +{len(delta.added)} "
                          f"~{len(delta.changed)} -{len(delta.removed)} "
                          f"doc(s) -> {written} fused row(s) changed "
                          f"({stats.pairs_scored} pairs scored, "
                          f"{stats.clusters_split} cluster splits)")
                elif not args.follow:
                    print("corpus empty; nothing to stream")
                done += 1
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        system.close()


def cmd_facts(args: argparse.Namespace) -> int:
    """Browse stored facts as a table."""
    system = _build_system(args.workspace)
    rows = system.query(
        f"SELECT entity, attribute, value_text, value_num, confidence "
        f"FROM {FACTS_TABLE} ORDER BY entity LIMIT {args.limit}"
    )
    print(table(rows, limit=args.limit))
    system.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Structured management of unstructured data (CIDR'09)",
    )
    parser.add_argument("--workspace", default="./repro-workspace",
                        help="workspace directory (default ./repro-workspace)")
    parser.add_argument("--backend", choices=["serial", "thread", "process"],
                        default=None,
                        help="real parallel execution backend for extraction "
                             "(default: inline)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for --backend thread/process "
                             "(default: CPU count)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="persistent extraction cache directory; warm "
                             "re-runs only extract changed documents "
                             "(default: off)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="record spans and a metrics snapshot to this "
                             "JSONL file (inspect with 'repro stats PATH')")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first extraction failure instead "
                             "of retrying and quarantining poison documents")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest a directory of .txt pages")
    p.add_argument("directory")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("generate", help="run a declarative IE program")
    p.add_argument("program", help="path to an .xlog program file")
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument("--explain", action="store_true",
                   help="show plans instead of executing")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("sql", help="run a SQL query over the facts")
    p.add_argument("query")
    p.add_argument("--limit", type=int, default=50)
    p.set_defaults(fn=cmd_sql)

    p = sub.add_parser("compact",
                       help="freeze committed rows into columnar segments")
    p.add_argument("table", nargs="?", default="facts",
                   help="table to compact (default: facts)")
    p.set_defaults(fn=cmd_compact)

    p = sub.add_parser("search", help="keyword search over raw pages")
    p.add_argument("query")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("suggest", help="structured reformulations of keywords")
    p.add_argument("query")
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(fn=cmd_suggest)

    p = sub.add_parser(
        "explain",
        help="query plan for a SELECT, or provenance of facts",
    )
    p.add_argument(
        "target", nargs="+", metavar="SQL | ENTITY ATTRIBUTE",
        help="one arg: a SELECT to plan; two args: entity + attribute",
    )
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("stream",
                       help="run the streaming DGE loop over the workspace")
    p.add_argument("--query", action="append", metavar="SQL",
                   help="standing query over fused_facts; notifications "
                        "print as they fire (repeatable)")
    p.add_argument("--follow", action="store_true",
                   help="keep following the raw store's log of pages")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between --follow polls (default 2)")
    p.add_argument("--rounds", type=int, default=None,
                   help="stop --follow after N polls (default: until ^C)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="bounded stage-queue size (default 64)")
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("facts", help="browse stored facts")
    p.add_argument("--limit", type=int, default=25)
    p.set_defaults(fn=cmd_facts)

    p = sub.add_parser("cache", help="inspect or clear the extraction cache")
    p.add_argument("action", choices=["stats", "clear"])
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("deadletter",
                       help="inspect, retry, or clear quarantined documents")
    p.add_argument("action", choices=["list", "retry", "clear"])
    p.add_argument("--program", default=None,
                   help="xlog program file 'retry' re-runs over the corpus")
    p.add_argument("--limit", type=int, default=50)
    p.set_defaults(fn=cmd_deadletter)

    p = sub.add_parser("stats", help="summarize a telemetry JSONL file")
    p.add_argument("telemetry_file")
    p.add_argument("--top", type=int, default=10,
                   help="how many slowest spans to show")
    p.add_argument("--prom", action="store_true",
                   help="render the metrics snapshot as Prometheus text "
                        "exposition instead of the report")
    p.add_argument("--json", action="store_true",
                   help="dump the merged metrics snapshot as JSON")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("slowlog",
                       help="inspect or clear the slow-query log")
    p.add_argument("action", choices=["list", "show", "clear"])
    p.add_argument("index", nargs="?", type=int, default=None,
                   help="entry number for 'show' (default: latest)")
    p.add_argument("--limit", type=int, default=50)
    p.set_defaults(fn=cmd_slowlog)

    p = sub.add_parser("top",
                       help="periodic operations view over telemetry")
    p.add_argument("telemetry_file")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between frames (default 2)")
    p.add_argument("--count", type=int, default=1,
                   help="frames to print before exiting (default 1)")
    p.set_defaults(fn=cmd_top)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Execution failures (:class:`BackendError`, :class:`TaskFailedError`,
    SQL errors, deadlock-retry exhaustion) print a one-line message and
    exit :data:`EXIT_EXECUTION_FAILURE` instead of dumping a traceback —
    with ``--fail-fast`` this is the normal way a poisoned run ends.
    Query timeouts (deadline, lock-wait timeout, shutdown cancellation)
    exit :data:`EXIT_QUERY_TIMEOUT` so scripts can retry them blindly.
    A reader that closes stdout early (``repro sql ... | head``) ends the
    command quietly, with exit code 0.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.telemetry is None:
            code = args.fn(args)
        else:
            session = telemetry.enable(jsonl_path=args.telemetry)
            try:
                code = args.fn(args)
            finally:
                session.finish()
                telemetry.disable()
                print(f"telemetry written to {args.telemetry}",
                      file=sys.stderr)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the flush at exit
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except QueryTimeoutError as exc:
        print(f"repro: query timed out: {exc}", file=sys.stderr)
        return EXIT_QUERY_TIMEOUT
    except (SqlError, ReproError) as exc:
        print(f"repro: query failed: {exc}", file=sys.stderr)
        return EXIT_EXECUTION_FAILURE
    except (BackendError, TaskFailedError) as exc:
        print(f"repro: execution failed: {exc}", file=sys.stderr)
        return EXIT_EXECUTION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
