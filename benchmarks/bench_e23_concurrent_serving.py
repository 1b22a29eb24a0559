"""E23 — concurrent serving: MVCC snapshot reads under writer contention.

The robustness claim of the PR: SELECTs run lock-free against a
commit-point snapshot while writers keep strict 2PL, so a read-heavy
serving workload keeps answering — correctly and without collapsing —
while ingest and compaction churn the same table; and the
serving layer shuts down gracefully under load.

Checked invariants (recorded as machine-readable ``gates``):
  * **snapshot consistency** — every concurrent reader observes the
    writer's invariant (the ledger total never changes mid-transfer) in
    every single read, across compaction;
  * **row identity** — after the run, the contended table is
    row-identical to a serialized oracle that replays the writer's
    committed script single-threaded;
  * **zero reader lock waits** — the mutator is the only thread that
    touches the lock manager, so the ``rdbms.lock.waits`` delta over the
    mixed phase must be exactly 0 (readers never enter the queue), and a
    reader completes instantly even against a held X lock;
  * **reader p99 ≤ 2× idle** — reader tail latency with the mutator
    running vs the same reader pool beside the mutator's loop with its
    writes and compactions taken out (idle), the two phases alternating
    in :data:`ROUNDS` rounds in one process, each p99 taken over all of
    its phase's reads, with the interpreter's switch interval at
    :data:`SWITCH_INTERVAL` (at its default 5 ms the p99 of two
    CPU-bound readers is one switch interval in either phase, or not, at
    random) (non-smoke only);
  * **compaction under the readers** — the mutator compacts at least
    once in every mixed round (non-smoke only);
  * **no cliff after a commit** — on an indexed table at two sizes a
    decade apart, built once and timed in :data:`ROUNDS` alternating
    rounds, with a one-row commit between every read, the first read
    after a commit costs ≤ 2× a warm read at each size and the larger
    size ≤ 2× the smaller (the snapshot's indexes are carried across the
    commit, not reloaded from the table: it was ~110× and linear in
    table size; the larger size non-smoke only);
  * **graceful drain** — ``system.close()`` under a live query load
    drains in-flight queries, sheds new arrivals with typed errors, and
    a post-drain reopen of the same workspace recovers a consistent
    facts table.

Run standalone (writes ``results/BENCH_e23.json``)::

    PYTHONPATH=src python benchmarks/bench_e23_concurrent_serving.py
    PYTHONPATH=src python benchmarks/bench_e23_concurrent_serving.py --smoke

or via pytest: ``pytest benchmarks/bench_e23_concurrent_serving.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time

from _tables import write_table

from repro.core.system import StructureManagementSystem
from repro.errors import AdmissionRejected, QueryTimeoutError
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e23.json")

ACCOUNTS = 64
BALANCE = 1_000
TOTAL = ACCOUNTS * BALANCE


def build_ledger() -> Database:
    db = Database()
    db.create_table(TableSchema(
        "ledger",
        (Column("id", ColumnType.INT, nullable=False),
         Column("balance", ColumnType.INT)),
        primary_key="id",
    ))
    db.run(lambda t: t.insert_many(
        "ledger", [{"id": i, "balance": BALANCE} for i in range(ACCOUNTS)]))
    db.compact("ledger")  # start with frozen segments in the snapshot mix
    return db


def _apply_transfer(db: Database, a: int, b: int, amount: int) -> None:
    def transfer(txn):
        ra = txn.get_by_pk("ledger", a)
        rb = txn.get_by_pk("ledger", b)
        txn.update("ledger", ra.rid, {"balance": ra.values["balance"] - amount})
        txn.update("ledger", rb.rid, {"balance": rb.values["balance"] + amount})
    db.run(transfer)


def _reader_pass(db: Database, reads: int, latencies: list[float],
                 bad_totals: list[int]) -> None:
    """One reader thread: alternating aggregate / point reads, timed."""
    for i in range(reads):
        t0 = time.perf_counter()
        if i % 2 == 0:
            rows = execute_sql(db, "SELECT SUM(balance) AS s FROM ledger")
            total = rows[0]["s"]
            if total != TOTAL:
                bad_totals.append(total)
        else:
            execute_sql(db, f"SELECT balance FROM ledger WHERE id = {i % ACCOUNTS}")
        latencies.append(time.perf_counter() - t0)


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))]


#: Idle and mixed reader phases (and the two commit-cliff sizes)
#: alternate this many times: drift in the machine's state over a run
#: (scheduling, other tenants) lands on both.
ROUNDS = 5
#: The interpreter's switch interval while the reader phases run (s): a
#: reader that waits for the interpreter lock waits about this long, not
#: the default 5 ms, so a read's wall-clock time is its own work and the
#: waits on the writer, not one time slice of another reader.
SWITCH_INTERVAL = 1e-4
#: The mixed phase's mutator compacts after every this-many transfers of
#: a round, the round's first included.
COMPACT_EVERY = 4


def bench_mixed_workload(reads_per_reader: int, readers: int) -> dict:
    """Idle vs contended reader latencies + consistency + oracle identity."""
    db = build_ledger()
    registry = metrics.get_registry()

    def run_readers(reads: int, latencies: list[float],
                    bad: list[int]) -> None:
        threads = [threading.Thread(
            target=_reader_pass, args=(db, reads, latencies, bad))
            for _ in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    # The mixed phase: a single mutator thread transfers and compacts in
    # a deterministic script (one generator across rounds) while the
    # reader pool re-runs.  Being single-threaded it never waits for a
    # lock, so ANY rdbms.lock.waits delta would come from readers.  A
    # round commits a handful of transfers, so the mutator compacts after
    # the first of each round and then every COMPACT_EVERY-th.  The idle
    # phase runs the same loop with its writes and compactions taken out:
    # a thread that sleeps and wakes as often hands the interpreter lock
    # between the readers as often in both phases, so their p99s differ
    # by the writes, not by the switch interval.
    script: list[tuple[int, int, int]] = []
    rng = random.Random(23)
    mutator_errors: list[BaseException] = []
    compactions: list[int] = []  # per mixed round

    def mutator(stop: threading.Event, writes: bool) -> None:
        transfers = 0
        try:
            while not stop.is_set():
                if writes:
                    a, b = rng.sample(range(ACCOUNTS), 2)
                    amount = rng.randrange(1, 20)
                    _apply_transfer(db, a, b, amount)
                    script.append((a, b, amount))
                    if transfers % COMPACT_EVERY == 0:
                        db.compact("ledger")
                        compactions[-1] += 1
                transfers += 1
                time.sleep(0.0005)  # a steady ingest trickle, not a saturating loop
        except BaseException as exc:  # pragma: no cover - diagnostic
            mutator_errors.append(exc)

    def run_phase(reads: int, latencies: list[float], bad: list[int],
                  writes: bool) -> None:
        stop = threading.Event()
        mutator_thread = threading.Thread(target=mutator,
                                          args=(stop, writes))
        mutator_thread.start()
        run_readers(reads, latencies, bad)
        stop.set()
        mutator_thread.join()

    idle_latencies: list[float] = []
    idle_bad: list[int] = []
    mixed_latencies: list[float] = []
    mixed_bad: list[int] = []
    waits_before = registry.get("rdbms.lock.waits")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        for round_ in range(ROUNDS):
            reads = (reads_per_reader * (round_ + 1) // ROUNDS
                     - reads_per_reader * round_ // ROUNDS)
            # idle: the same reader pool and loop, no write
            run_phase(reads, idle_latencies, idle_bad, writes=False)
            compactions.append(0)
            run_phase(reads, mixed_latencies, mixed_bad, writes=True)
    finally:
        sys.setswitchinterval(switch)
    waits_delta = registry.get("rdbms.lock.waits") - waits_before
    assert not mutator_errors, f"mutator failed: {mutator_errors[0]!r}"

    # Phase 3: readers against a *held* exclusive lock — pre-MVCC this
    # deadlocked the serving path into the lock queue; now it must
    # return the committed value instantly.
    txn = db.begin()
    row = txn.get_by_pk("ledger", 0)
    held_value = row.values["balance"]
    txn.update("ledger", row.rid, {"balance": held_value - 1})
    t0 = time.perf_counter()
    blocked_rows = execute_sql(db, "SELECT balance FROM ledger WHERE id = 0")
    blocked_read_seconds = time.perf_counter() - t0
    read_past_lock_ok = blocked_rows == [{"balance": held_value}]
    txn.abort()

    # Serialized oracle: replay the committed script single-threaded and
    # compare the full table row-for-row.
    oracle = Database()
    oracle.create_table(TableSchema(
        "ledger",
        (Column("id", ColumnType.INT, nullable=False),
         Column("balance", ColumnType.INT)),
        primary_key="id",
    ))
    oracle.run(lambda t: t.insert_many(
        "ledger", [{"id": i, "balance": BALANCE} for i in range(ACCOUNTS)]))
    for a, b, amount in script:
        _apply_transfer(oracle, a, b, amount)
    sql = "SELECT id, balance FROM ledger ORDER BY id"
    identical = execute_sql(db, sql) == execute_sql(oracle, sql)

    return {
        "readers": readers,
        "reads_per_reader": reads_per_reader,
        "rounds": ROUNDS,
        "committed_transfers": len(script),
        "compactions_per_round": compactions,
        "idle_p99_seconds": _p99(idle_latencies),
        "mixed_p99_seconds": _p99(mixed_latencies),
        "p99_degradation": (_p99(mixed_latencies) / _p99(idle_latencies)
                            if _p99(idle_latencies) > 0 else 1.0),
        "idle_inconsistent_reads": len(idle_bad),
        "mixed_inconsistent_reads": len(mixed_bad),
        "reader_lock_waits": waits_delta,
        "read_past_held_lock_ok": read_past_lock_ok,
        "blocked_read_seconds": blocked_read_seconds,
        "oracle_identical": identical,
    }


CLIFF_GROUP_ROWS = 60  # what one read returns, at either size


def _cliff_table(rows: int) -> Database:
    """An indexed, compacted table of ``rows`` rows in groups of
    :data:`CLIFF_GROUP_ROWS`."""
    db = Database()
    db.create_table(TableSchema(
        "events",
        (Column("id", ColumnType.INT, nullable=False),
         Column("grp", ColumnType.INT),
         Column("v", ColumnType.INT)),
        primary_key="id",
    ))
    groups = rows // CLIFF_GROUP_ROWS
    for at in range(0, rows, 50_000):
        db.run(lambda t: t.insert_many("events", [
            {"id": i, "grp": i % groups, "v": 0}
            for i in range(at, min(at + 50_000, rows))]))
    db.create_index("events", "grp")
    db.compact("events")
    return db


def bench_commit_cliff(sizes: tuple[int, ...], reads: int) -> list[dict]:
    """Warm indexed read vs the first read after a one-row commit, at
    each of ``sizes``: the tables are built once and timed in
    :data:`ROUNDS` alternating rounds in one process, the medians taken
    over all of each size's reads."""
    arms = []
    for rows in sizes:
        db, rng = _cliff_table(rows), random.Random(rows)
        arms.append({"rows": rows, "db": db, "rng": rng, "commits": 0,
                     "warm": [], "after_commit": []})

    def read(arm: dict) -> float:
        grp = arm["rng"].randrange(arm["rows"] // CLIFF_GROUP_ROWS)
        t0 = time.perf_counter()
        found = execute_sql(arm["db"],
                            f"SELECT id, v FROM events WHERE grp = {grp}")
        seconds = time.perf_counter() - t0
        assert len(found) == CLIFF_GROUP_ROWS
        return seconds

    for arm in arms:
        read(arm)  # loads the snapshot's index once: the cold start
    for round_ in range(ROUNDS):
        for arm in arms:
            db = arm["db"]
            for _ in range(reads * (round_ + 1) // ROUNDS
                           - reads * round_ // ROUNDS):
                arm["commits"] += 1
                n, key = arm["commits"], arm["rng"].randrange(arm["rows"])
                execute_sql(db, f"UPDATE events SET v = {n} WHERE id = {key}")
                arm["after_commit"].append(read(arm))
                arm["warm"].append(read(arm))  # nothing committed since
                assert execute_sql(
                    db, f"SELECT v FROM events WHERE id = {key}") == [{"v": n}]
    return [{"rows": arm["rows"], "reads": reads,
             "warm_read_seconds": statistics.median(arm["warm"]),
             "first_read_after_commit_seconds":
                 statistics.median(arm["after_commit"])}
            for arm in arms]


def bench_graceful_drain(queries_per_worker: int) -> dict:
    """Close the system under a live query load; reopen and recheck."""
    workspace = tempfile.mkdtemp(prefix="e23-serving-")
    try:
        system = StructureManagementSystem(workspace=workspace,
                                           max_concurrent_queries=4,
                                           max_queued_queries=8)
        facts = [{"fact_id": i, "entity": f"e{i % 7}", "attribute": "size",
                  "value_text": None, "value_num": float(i),
                  "confidence": 1.0, "doc_id": f"d{i}"}
                 for i in range(500)]
        system.db.run(lambda t: t.insert_many("facts", facts))

        shed: list[str] = []
        unexpected: list[BaseException] = []
        served = [0]

        def worker():
            for i in range(queries_per_worker):
                try:
                    system.query(
                        "SELECT COUNT(*) AS n FROM facts WHERE "
                        f"value_num >= {i % 400}")
                    served[0] += 1
                except (AdmissionRejected, QueryTimeoutError) as exc:
                    # Typed shedding/cancellation is the *expected* way
                    # in-flight work ends during a drain.
                    shed.append(type(exc).__name__)
                except BaseException as exc:  # pragma: no cover
                    unexpected.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let the load ramp, then pull the plug under it
        t0 = time.perf_counter()
        system.close()
        drain_seconds = time.perf_counter() - t0
        for t in threads:
            t.join()
        drained_clean = (not unexpected
                         and system.gate.stats()["active"] == 0)

        reopened = StructureManagementSystem(workspace=workspace)
        count = reopened.query("SELECT COUNT(*) AS n FROM facts")[0]["n"]
        total = reopened.query(
            "SELECT SUM(value_num) AS s FROM facts")[0]["s"]
        reopened.close()
        reopen_ok = count == 500 and total == sum(float(i)
                                                  for i in range(500))
        return {
            "queries_served": served[0],
            "queries_shed": len(shed),
            "unexpected_errors": [repr(e) for e in unexpected],
            "drain_seconds": drain_seconds,
            "drained_clean": drained_clean,
            "reopen_consistent": reopen_ok,
        }
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


def _gate(name: str, actual: float, op: str, threshold: float) -> dict:
    ops = {">=": actual >= threshold, "<=": actual <= threshold,
           "==": actual == threshold}
    return {"name": name, "actual": float(actual), "op": op,
            "threshold": threshold, "pass": ops[op]}


def run_bench(reads_per_reader: int = 300, readers: int = 2,
              queries_per_worker: int = 200, smoke: bool = False) -> dict:
    mixed = bench_mixed_workload(reads_per_reader, readers)
    cliff = bench_commit_cliff((60_000,) if smoke else (60_000, 600_000),
                               40 if smoke else 200)
    drain = bench_graceful_drain(queries_per_worker)

    gates = [
        _gate("snapshot_consistency",
              mixed["mixed_inconsistent_reads"]
              + mixed["idle_inconsistent_reads"], "==", 0.0),
        _gate("oracle_row_identity",
              1.0 if mixed["oracle_identical"] else 0.0, "==", 1.0),
        _gate("reader_lock_waits", mixed["reader_lock_waits"], "==", 0.0),
        _gate("read_past_held_lock",
              1.0 if mixed["read_past_held_lock_ok"] else 0.0, "==", 1.0),
        _gate("drain_clean", 1.0 if drain["drained_clean"] else 0.0,
              "==", 1.0),
        _gate("reopen_consistent",
              1.0 if drain["reopen_consistent"] else 0.0, "==", 1.0),
    ]
    if not smoke:
        gates.append(_gate("p99_degradation", mixed["p99_degradation"],
                           "<=", 2.0))
        gates.append(_gate("mixed_compactions_per_round_min",
                           min(mixed["compactions_per_round"]), ">=", 1.0))
    for arm in cliff:
        arm["after_commit_over_warm"] = (
            arm["first_read_after_commit_seconds"] / arm["warm_read_seconds"])
        gates.append(_gate(
            f"first_read_after_commit_over_warm_{arm['rows'] // 1000}k",
            arm["after_commit_over_warm"], "<=", 2.0))
    if len(cliff) > 1:
        gates.append(_gate(
            "first_read_after_commit_larger_over_smaller",
            cliff[-1]["first_read_after_commit_seconds"]
            / cliff[0]["first_read_after_commit_seconds"], "<=", 2.0))

    write_table(
        "e23_concurrent_serving",
        f"E23: reader latency idle vs under writer/compact churn "
        f"({readers} readers x {reads_per_reader} reads per phase in "
        f"{ROUNDS} alternating rounds, "
        f"{mixed['committed_transfers']} transfers committed)",
        ["metric", "value"],
        [["idle p99 (s)", mixed["idle_p99_seconds"]],
         ["mixed p99 (s)", mixed["mixed_p99_seconds"]],
         ["p99 degradation", mixed["p99_degradation"]],
         ["inconsistent reads", mixed["mixed_inconsistent_reads"]],
         ["reader lock waits", mixed["reader_lock_waits"]],
         ["oracle identical", mixed["oracle_identical"]],
         *([f"{arm['rows'] // 1000}k rows: warm / first read after a "
            "commit (ms)",
            f"{arm['warm_read_seconds'] * 1e3:.3f} / "
            f"{arm['first_read_after_commit_seconds'] * 1e3:.3f}"]
           for arm in cliff),
         ["drain clean", drain["drained_clean"]],
         ["reopen consistent", drain["reopen_consistent"]]],
    )

    payload = {
        "experiment": "e23_concurrent_serving",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "mixed_workload": mixed,
        "commit_cliff": cliff,
        "graceful_drain": drain,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    for gate in gates:
        assert gate["pass"], (
            f"{gate['name']}: {gate['actual']:.3f} violates "
            f"{gate['op']} {gate['threshold']}"
        )
    return payload


# --------------------------------------------------------------- pytest


def test_e23_smoke():
    """Small-scale E23: consistency/identity/drain invariants, no timing."""
    payload = run_bench(reads_per_reader=40, readers=2,
                        queries_per_worker=30, smoke=True)
    mixed = payload["mixed_workload"]
    assert mixed["oracle_identical"]
    assert mixed["mixed_inconsistent_reads"] == 0
    assert mixed["reader_lock_waits"] == 0
    assert payload["graceful_drain"]["drained_clean"]
    assert payload["graceful_drain"]["reopen_consistent"]


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reads", type=int, default=300,
                        help="reads per reader thread per phase")
    parser.add_argument("--readers", type=int, default=2,
                        help="reader threads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no timing assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        args.reads = min(args.reads, 40)
    payload = run_bench(reads_per_reader=args.reads, readers=args.readers,
                        queries_per_worker=30 if args.smoke else 200,
                        smoke=args.smoke)
    mixed = payload["mixed_workload"]
    print(f"idle p99 {mixed['idle_p99_seconds'] * 1000:.2f} ms "
          f"mixed p99 {mixed['mixed_p99_seconds'] * 1000:.2f} ms "
          f"({mixed['p99_degradation']:.2f}x), "
          f"{mixed['committed_transfers']} transfers committed, "
          f"reader lock waits {mixed['reader_lock_waits']:.0f}")
    for arm in payload["commit_cliff"]:
        print(f"{arm['rows']} rows: warm read "
              f"{arm['warm_read_seconds'] * 1000:.3f} ms, first read after "
              f"a commit {arm['first_read_after_commit_seconds'] * 1000:.3f} "
              f"ms ({arm['after_commit_over_warm']:.2f}x)")
    drain = payload["graceful_drain"]
    print(f"drain: {drain['queries_served']} served / "
          f"{drain['queries_shed']} shed, clean={drain['drained_clean']}, "
          f"reopen consistent={drain['reopen_consistent']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
