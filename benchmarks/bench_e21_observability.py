"""E21 — observability: EXPLAIN ANALYZE accuracy, overhead, slowlog, feedback.

The observability claim of the PR: per-operator profiling, the
slow-query log, and cardinality feedback are *free when off* and cheap
when on — and the numbers they report are exact, not approximations of
row flow.

Checked invariants (recorded as ``gates``; ``check_gates.py``
re-validates them):
  * EXPLAIN ANALYZE actual row counts match the naive-interpreter oracle
    exactly on every statement of the E19 query mix plus a grouped
    aggregate (both the annotated top operator and the Execution summary
    line) — exact, gated at every scale;
  * with the threshold at 0 the slow-query log captures 100% of issued
    statements; with it effectively infinite it captures none — exact;
  * a deliberately stale-stats misestimation (q-error >= 4) produces a
    feedback entry, triggers a targeted re-ANALYZE of the offending
    column, and the re-planned estimate lands within 2x of the actual —
    exact;
  * running the mix with the slow-query log attached (threshold high
    enough that nothing captures) costs < 2% over running it with
    observability off entirely, and EXPLAIN ANALYZE (full per-operator
    instrumentation) costs < 15% over the plain planned execution of the
    same statements.  Both compare the medians of >= 7 interleaved rounds
    (each round times every arm on every statement, GC paused); an A/A
    arm (observability off, timed twice per round) gives the noise floor.
    A timing gate whose floor exceeds its bound cannot be judged on this
    machine: it is recorded with its floor under ``timing_unresolved``,
    never with a loosened bound.  ``--smoke`` records the exact gates
    only.

Run standalone (writes ``results/BENCH_e21.json``)::

    PYTHONPATH=src python benchmarks/bench_e21_observability.py
    PYTHONPATH=src python benchmarks/bench_e21_observability.py --smoke

or via pytest: ``pytest benchmarks/bench_e21_observability.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import statistics
import sys
import time

from _tables import assert_gates, gate, write_table

from bench_e19_query_serving import SCORE_MAX, build_db, workloads
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import execute_sql
from repro.telemetry.feedback import q_error
from repro.telemetry.slowlog import SlowQueryLog

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e21.json")

OFF_OVERHEAD_GATE = 0.02     # slowlog attached, nothing capturing
ANALYZE_OVERHEAD_GATE = 0.15  # full per-operator instrumentation
FEEDBACK_RATIO_GATE = 4.0    # misestimate that must trigger feedback
CORRECTED_WITHIN = 2.0       # post-feedback q-error bar

_ACTUAL_ROWS = re.compile(r"actual rows=(\d+)")
_EXECUTION = re.compile(r"^Execution: (\d+) rows")


def bench_mix(num_items: int) -> list[str]:
    """The E19 query mix plus an aggregate (stage-profile coverage)."""
    return [w["sql"] for w in workloads(num_items)] + [
        "SELECT category, COUNT(*) AS n, SUM(value) AS total FROM items "
        f"WHERE score < {SCORE_MAX // 4} GROUP BY category",
    ]


# ----------------------------------------------------- ANALYZE accuracy


def check_analyze_accuracy(db, mix: list[str]) -> list[dict]:
    """EXPLAIN ANALYZE actuals vs the naive interpreter, per query: the
    top operator's ``actual rows=`` and the Execution line's count."""
    out = []
    for sql in mix:
        oracle = execute_sql(db, sql, use_planner=False)
        plan_rows = execute_sql(db, f"EXPLAIN ANALYZE {sql}")
        lines = [r["plan"] for r in plan_rows]
        top_actual = None
        for line in lines:
            m = _ACTUAL_ROWS.search(line)
            if m:
                top_actual = int(m.group(1))
                break
        summary = None
        for line in lines:
            m = _EXECUTION.match(line)
            if m:
                summary = int(m.group(1))
        out.append({"sql": sql, "rows": len(oracle),
                    "top_actual": top_actual, "summary": summary,
                    "exact": top_actual == summary == len(oracle),
                    "plan": "\n".join(lines)})
    return out


# ------------------------------------------------------------- overhead


def bench_overhead(db, mix: list[str], rounds: int) -> dict:
    """Observability-off vs slowlog-attached vs EXPLAIN ANALYZE, plus an
    A/A arm (observability off, a second time) for the noise floor.

    Rounds interleave: each round times every arm on every statement of
    the mix (the arm that goes first rotates), GC paused, and sums an
    arm's times into its round total.
    An arm's time is the median of its round totals; an overhead is one
    median over another, minus 1; the floor is the A/A arm's distance
    from the off arm, in the same units.
    """
    plain_cache = QueryResultCache(db)
    again_cache = QueryResultCache(db)
    watched_cache = QueryResultCache(
        db, slowlog=SlowQueryLog(threshold_seconds=1e9))

    def clear_caches():
        plain_cache.clear()   # measure execution, not cache hits
        again_cache.clear()
        watched_cache.clear()

    arms = {
        "off": lambda sql: plain_cache.execute(sql),
        "off_again": lambda sql: again_cache.execute(sql),
        "watched": lambda sql: watched_cache.execute(sql),
        "plain": lambda sql: execute_sql(db, sql),
        "analyze": lambda sql: execute_sql(db, f"EXPLAIN ANALYZE {sql}"),
    }
    totals: dict[str, list[float]] = {name: [] for name in arms}
    # one untimed warm-up pass per arm
    for fn in arms.values():
        for sql in mix:
            clear_caches()
            fn(sql)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        names = list(arms)
        for r in range(rounds):
            spent = dict.fromkeys(arms, 0.0)
            for i, sql in enumerate(mix):
                # rotate which arm runs first on a statement: the first
                # run after another statement is the slow one
                turn = (r + i) % len(names)
                for name in names[turn:] + names[:turn]:
                    fn = arms[name]
                    clear_caches()
                    started = time.perf_counter()
                    fn(sql)
                    spent[name] += time.perf_counter() - started
            for name, seconds in spent.items():
                totals[name].append(seconds)
    finally:
        if gc_was_enabled:
            gc.enable()
    median = {name: statistics.median(values)
              for name, values in totals.items()}
    return {
        "rounds": rounds,
        "off_seconds": median["off"],
        "off_again_seconds": median["off_again"],
        "noise_floor": abs(median["off_again"] / median["off"] - 1.0),
        "watched_seconds": median["watched"],
        "watched_overhead": median["watched"] / median["off"] - 1.0,
        "plain_seconds": median["plain"],
        "analyze_seconds": median["analyze"],
        "analyze_overhead": median["analyze"] / median["plain"] - 1.0,
    }


# -------------------------------------------------------------- slowlog


def check_slowlog(db, mix: list[str]) -> dict:
    """Threshold 0 captures everything; effectively-inf captures nothing."""
    capture_all = SlowQueryLog(threshold_seconds=0.0, annotate=False)
    capture_none = SlowQueryLog(threshold_seconds=1e9, annotate=False)
    all_cache = QueryResultCache(db, slowlog=capture_all)
    none_cache = QueryResultCache(db, slowlog=capture_none)
    for sql in mix:
        all_cache.execute(sql)
        none_cache.execute(sql)
    captured = len(capture_all.entries())
    missed = len(capture_none.entries())
    # One annotated capture: the entry must carry an ANALYZE plan.
    annotated = SlowQueryLog(threshold_seconds=0.0)
    annotated.observe(db, mix[0], seconds=1.0, rows=0)
    entry = annotated.entries()[-1]
    assert "plan" in entry and any(
        "actual rows=" in line for line in entry["plan"]
    ), "annotated slowlog entry is missing its ANALYZE plan"
    return {"issued": len(mix), "captured_at_zero": captured,
            "captured_below_threshold": missed, "annotated": True}


# ------------------------------------------------------------- feedback


def check_feedback() -> dict:
    """Stale stats -> misestimate -> targeted re-ANALYZE -> corrected."""
    from repro.storage.rdbms.engine import Database
    from repro.storage.rdbms.types import Column, ColumnType, TableSchema

    fdb = Database()
    fdb.create_table(TableSchema(
        "events",
        (Column("event_id", ColumnType.INT, nullable=False),
         Column("kind", ColumnType.TEXT),
         Column("val", ColumnType.FLOAT)),
        primary_key="event_id",
    ))
    # Uniform base: 5000 rows over 100 kinds, then ANALYZE...
    fdb.run(lambda t: t.insert_many("events", [
        {"event_id": i, "kind": f"k{i % 100}", "val": float(i)}
        for i in range(5000)
    ]))
    stats = fdb.statistics()
    stats.analyze("events")
    # ...then a skewed tail small enough (20%) to dodge drift refresh.
    fdb.run(lambda t: t.insert_many("events", [
        {"event_id": 5000 + i, "kind": "hot", "val": 1.0}
        for i in range(1000)
    ]))

    def hot_estimate() -> float:
        rows = execute_sql(
            fdb, "EXPLAIN SELECT COUNT(*) AS n FROM events "
                 "WHERE kind = 'hot'")
        for r in rows:
            m = re.search(r"rows~(\d+)", r["plan"])
            if m:
                return float(m.group(1))
        raise AssertionError("no row estimate in plan")

    est_before = hot_estimate()
    actual = execute_sql(
        fdb, "SELECT COUNT(*) AS n FROM events WHERE kind = 'hot'"
    )[0]["n"]
    ratio_before = q_error(est_before, actual)
    entries = [e.as_dict() for e in stats.feedback.entries()]
    est_after = hot_estimate()  # stats() saw the pending column, re-analyzed
    ratio_after = q_error(est_after, actual)
    return {
        "feedback_recorded": any(
            e["column"] == "kind" and e["misestimates"] >= 1
            for e in entries),
        "actual_rows": actual,
        "estimate_before": est_before,
        "estimate_after": est_after,
        "q_error_before": ratio_before,
        "q_error_after": ratio_after,
        "feedback_entries": entries,
    }


# ------------------------------------------------------------------ run


def run_bench(num_items: int = 20_000, rounds: int = 7,
              smoke: bool = False) -> dict:
    db = build_db(num_items)
    mix = bench_mix(num_items)

    accuracy = check_analyze_accuracy(db, mix)
    overhead = bench_overhead(db, mix, rounds)
    slowlog = check_slowlog(db, mix)
    feedback = check_feedback()

    write_table(
        "e21_observability",
        f"E21: observability overhead ({num_items} items, median of "
        f"{rounds} interleaved rounds; A/A noise floor "
        f"{100 * overhead['noise_floor']:.2f}%)",
        ["variant", "seconds", "overhead"],
        [["observability off", overhead["off_seconds"], "-"],
         ["observability off (A/A)", overhead["off_again_seconds"],
          f"{100 * overhead['noise_floor']:.2f}%"],
         ["slowlog attached", overhead["watched_seconds"],
          f"{100 * overhead['watched_overhead']:.2f}%"],
         ["plain planned", overhead["plain_seconds"], "-"],
         ["EXPLAIN ANALYZE", overhead["analyze_seconds"],
          f"{100 * overhead['analyze_overhead']:.2f}%"]],
    )

    # exact gates hold at any size; the timing ones are left out of
    # --smoke, which times one round of a tiny mix
    gates = [gate(f"analyze_rows_exact[{i}]", int(a["exact"]), "==", 1)
             for i, a in enumerate(accuracy)]
    gates += [
        gate("slowlog_captured_at_zero_minus_issued",
             slowlog["captured_at_zero"] - slowlog["issued"], "==", 0),
        gate("slowlog_captured_below_threshold",
             slowlog["captured_below_threshold"], "==", 0),
        gate("feedback_recorded", int(feedback["feedback_recorded"]),
             "==", 1),
        gate("feedback_q_error_before", feedback["q_error_before"], ">=",
             FEEDBACK_RATIO_GATE),
        gate("feedback_q_error_after", feedback["q_error_after"], "<=",
             CORRECTED_WITHIN),
    ]
    unresolved = []
    if not smoke:
        floor = overhead["noise_floor"]
        for name, actual, bound in (
                ("slowlog_attached_overhead", overhead["watched_overhead"],
                 OFF_OVERHEAD_GATE),
                ("explain_analyze_overhead", overhead["analyze_overhead"],
                 ANALYZE_OVERHEAD_GATE)):
            entry = dict(gate(name, actual, "<", bound), noise_floor=floor)
            (gates if floor <= bound else unresolved).append(entry)

    payload = {
        "experiment": "e21_observability",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "num_items": num_items,
        "accuracy": [{k: a[k] for k in ("sql", "rows", "top_actual",
                                        "summary", "exact")}
                     for a in accuracy],
        "overhead": overhead,
        "slowlog": slowlog,
        "feedback": {k: v for k, v in feedback.items()
                     if k != "feedback_entries"},
        "gates": gates,
        "timing_unresolved": unresolved,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")
    for entry in unresolved:
        print(f"unresolved: {entry['name']} {100 * entry['actual']:+.2f}% "
              f"against < {100 * entry['threshold']:.0f}%, noise floor "
              f"{100 * entry['noise_floor']:.2f}%")

    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e21_smoke():
    """Small-scale E21: the exact gates (accuracy, slowlog, feedback)."""
    payload = run_bench(num_items=2000, rounds=1, smoke=True)
    assert payload["gates"] and all(g["pass"] for g in payload["gates"])
    assert payload["slowlog"]["captured_below_threshold"] == 0


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=20_000,
                        help="rows in the items table")
    parser.add_argument("--rounds", type=int, default=7,
                        help="interleaved timing rounds (medians are "
                             "compared; at least 7 for the timing gates)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no timing assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        args.items = min(args.items, 2000)
        args.rounds = 1
    elif args.rounds < 7:
        parser.error("--rounds must be at least 7 outside --smoke")
    payload = run_bench(num_items=args.items, rounds=args.rounds,
                        smoke=args.smoke)
    o = payload["overhead"]
    print(f"slowlog attached (nothing capturing): "
          f"{100 * o['watched_overhead']:+.2f}%")
    print(f"EXPLAIN ANALYZE instrumentation: "
          f"{100 * o['analyze_overhead']:+.2f}%")
    f = payload["feedback"]
    print(f"feedback: estimate {f['estimate_before']:.0f} -> "
          f"{f['estimate_after']:.0f} (actual {f['actual_rows']}, "
          f"q-error {f['q_error_before']:.1f} -> "
          f"{f['q_error_after']:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
