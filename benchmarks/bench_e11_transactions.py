"""E11 — Transactional storage for concurrently edited structure.

Paper anchor: Section 4, storage layer — "if the system allows concurrent
editing by multiple users on the final structure, then this structure may
be best stored in an RDBMS, to ensure fast and correct concurrency
control"; Part III "handles transaction management and crash recovery."

Reported series:
  (a) committed-edit throughput vs concurrent editor threads, the
      median of alternating rounds of 6,000-edit windows (and the
      serializability check: final counters exactly equal the number of
      committed increments);
  (b) crash-recovery: committed work survives, in-flight work does not;
      and reopen times — after many one-row commits, after one large
      commit and a compact (both replayed, as a crash leaves the log),
      after a checkpoint of that state, after a clean close of it, and
      after a clean close of it with two hash indexes, loaded from the
      checkpoint's index images against rebuilt from the rows, and with
      the first read after it — a count, a lookup on an indexed column,
      every row — which pays for what the open left encoded;
  (c) WAL fsync durability cost;
  (d) one 5,000-row insert transaction: the lock-table entries it holds
      at commit (its inserts' rids are one claim, not an entry each) and
      its wall time.

Gate (``results/BENCH_e11.json``, re-validated by ``check_gates.py``): a
reopen after a clean close of the compacted 20,000-row table takes at most
half the time of a reopen that replays its log.
"""

import json
import os
import statistics
import threading
import time

from _tables import RESULTS_DIR, assert_gates, gate, write_table

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema


def _edit_table_schema():
    return TableSchema(
        "wiki_facts",
        (Column("id", ColumnType.INT, nullable=False),
         Column("edits", ColumnType.INT),
         Column("body", ColumnType.TEXT)),
        primary_key="id",
    )


def _seed_rows(db, n=32):
    def work(txn):
        for i in range(n):
            txn.insert("wiki_facts", {"id": i, "edits": 0, "body": f"fact {i}"})
    db.run(work)


#: E11a commits this many edits at each editor count, split between the
#: editors — a window of a quarter to one second, so one window does not
#: hinge on a few thread switches — in ROUNDS rounds that alternate the
#: editor counts; each count reports its median round.
EDITS = 6_000
ROUNDS = 3
EDITORS = (1, 2, 4, 8)


def _edits_per_second(threads):
    """One E11a window: ``threads`` editors commit EDITS edits between
    them; asserts that every edit counted (serializable)."""
    edits_per_thread = EDITS // threads
    db = Database()
    db.create_table(_edit_table_schema())
    _seed_rows(db)

    def editor(thread_id):
        for j in range(edits_per_thread):
            target = (thread_id * 7 + j) % 32

            def bump(txn, target=target):
                row = txn.get_by_pk("wiki_facts", target)
                txn.update("wiki_facts", row.rid,
                           {"edits": row.values["edits"] + 1})
            db.run(bump)

    started = time.perf_counter()
    workers = [threading.Thread(target=editor, args=(t,))
               for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    total_edits = sum(
        r.values["edits"] for r in db.run(lambda t: t.scan("wiki_facts")))
    assert total_edits == threads * edits_per_thread  # serializable
    return total_edits / elapsed


def test_e11_concurrent_edit_throughput(benchmark):
    rounds = {threads: [] for threads in EDITORS}
    for _ in range(ROUNDS):
        for threads in EDITORS:
            rounds[threads].append(_edits_per_second(threads))
    rows_out = [[threads, statistics.median(rates)]
                for threads, rates in rounds.items()]
    write_table(
        "e11_throughput",
        "E11: committed-edit throughput vs concurrent editors "
        f"(row-level 2PL, in-memory; median of {ROUNDS} rounds of "
        f"{EDITS:,} edits)",
        ["editor threads", "edits committed / sec"],
        rows_out,
    )

    db = Database()
    db.create_table(_edit_table_schema())
    _seed_rows(db)

    def one_edit():
        def bump(txn):
            row = txn.get_by_pk("wiki_facts", 0)
            txn.update("wiki_facts", row.rid,
                       {"edits": row.values["edits"] + 1})
        db.run(bump)

    benchmark(one_edit)


def _reopen_ms(directory, opens=5, then=lambda db: None):
    """Median wall time of opening ``directory`` (and ``then`` of the
    opened database), in milliseconds.  Each opened database is
    abandoned, as a crash leaves it: a close would checkpoint a log that
    holds records after its last checkpoint."""
    times = []
    for _ in range(opens):
        started = time.perf_counter()
        then(Database(directory))
        times.append((time.perf_counter() - started) * 1000.0)
    return round(statistics.median(times), 1)


def _compacted(directory, rows):
    """One ``rows``-row commit and a compact, then a crash."""
    db = Database(directory)
    db.create_table(_edit_table_schema())
    db.run(lambda t: t.insert_many("wiki_facts", [
        {"id": i, "edits": i % 7, "body": f"fact {i}"} for i in range(rows)]))
    db.compact("wiki_facts")
    return db


def _reopen_times(tmp_path, rows=20_000, commits=5_000):
    """Reopen after ``commits`` one-row commits and after one ``rows``-row
    commit and a compact, both replayed; after a checkpoint of that state;
    and after a clean close of it: the log a reopen redoes, against the
    one record it loads."""
    many = str(tmp_path / "one-row-commits")
    db = Database(many)
    db.create_table(_edit_table_schema())
    for i in range(commits):
        db.run(lambda t, i=i: t.insert(
            "wiki_facts", {"id": i, "edits": 0, "body": f"fact {i}"}))
    bulk = str(tmp_path / "one-commit")
    _compacted(bulk, rows)
    replayed = _reopen_ms(bulk)
    checkpointed = str(tmp_path / "checkpointed")
    _compacted(checkpointed, rows).checkpoint()
    closed = str(tmp_path / "closed")
    _compacted(closed, rows).close()
    indexed = str(tmp_path / "indexed")
    db = _compacted(indexed, rows)
    for column in ("edits", "body"):
        db.create_index("wiki_facts", column)
    db.close()

    def rebuild(db):
        for key in list(db._indexes):
            db._rebuild_index(*key)

    def reads(sql):
        return lambda db: execute_sql(db, sql)

    return [[f"reopen ms after {commits:,} one-row commits", _reopen_ms(many)],
            [f"reopen ms after one {rows:,}-row commit + compact", replayed],
            ["reopen ms after a checkpoint of that state",
             _reopen_ms(checkpointed)],
            ["reopen ms after a clean close of that state",
             _reopen_ms(closed)],
            ["... with two hash indexes, loaded from their images",
             _reopen_ms(indexed)],
            ["... with two hash indexes, rebuilt from the rows",
             _reopen_ms(indexed, then=rebuild)],
            ["... with two hash indexes, + SELECT COUNT(*)",
             _reopen_ms(indexed, then=reads(
                 "SELECT COUNT(*) AS n FROM wiki_facts"))],
            ["... with two hash indexes, + first lookup on body",
             _reopen_ms(indexed, then=reads(
                 "SELECT * FROM wiki_facts WHERE body = 'fact 7'"))],
            ["... with two hash indexes, + SELECT * of every row",
             _reopen_ms(indexed, then=reads("SELECT * FROM wiki_facts"))]]


def test_e11_crash_recovery(benchmark, tmp_path):
    db = Database(str(tmp_path / "db"))
    db.create_table(_edit_table_schema())
    _seed_rows(db, n=8)
    committed_edits = 25
    for i in range(committed_edits):
        def bump(txn, i=i):
            row = txn.get_by_pk("wiki_facts", i % 8)
            txn.update("wiki_facts", row.rid,
                       {"edits": row.values["edits"] + 1})
        db.run(bump)
    dangling = db.begin()
    row = dangling.get_by_pk("wiki_facts", 0)
    dangling.update("wiki_facts", row.rid, {"edits": 9999})
    # CRASH: abandon the database object without commit or clean shutdown
    recovered = Database(str(tmp_path / "db"))
    reopens = _reopen_times(tmp_path)
    total = sum(
        r.values["edits"] for r in recovered.run(lambda t: t.scan("wiki_facts"))
    )
    write_table(
        "e11b_recovery",
        "E11b: crash recovery — committed edits survive, in-flight do not; "
        "reopen time (median of 5 opens)",
        ["metric", "value"],
        [["committed edits before crash", committed_edits],
         ["edits after recovery", total],
         ["in-flight edit visible", "no" if total == committed_edits else "YES"],
         *reopens],
    )
    assert total == committed_edits
    replayed, closed = reopens[1][1], reopens[3][1]
    gates = [gate("clean_close_reopen_over_replay_reopen",
                  round(closed / replayed, 3), "<=", 0.5)]
    bulk = _bulk_insert()
    write_table(
        "e11d_bulk_insert",
        "E11d: one 5,000-row insert transaction (in memory)",
        ["metric", "value"], [list(item) for item in bulk.items()])
    with open(os.path.join(RESULTS_DIR, "BENCH_e11.json"), "w",
              encoding="utf-8") as f:
        json.dump({"experiment": "e11_transactions",
                   "reopen_ms": dict(reopens), "bulk_insert": bulk,
                   "gates": gates},
                  f, indent=2, sort_keys=True)
    assert_gates(gates)
    benchmark(lambda: Database(str(tmp_path / "db")))


def _bulk_insert(rows=5_000, runs=5):
    """Lock-table entries one ``rows``-row insert transaction holds when
    it commits, and its median wall time (begin to commit, in memory)."""
    entries, times = set(), []
    for _ in range(runs):
        db = Database()
        db.create_table(_edit_table_schema())
        batch = [{"id": i, "edits": 0, "body": f"fact {i}"}
                 for i in range(rows)]
        started = time.perf_counter()
        txn = db.begin()
        txn.insert_many("wiki_facts", batch)
        entries.add(db._locks.lock_count())
        txn.commit()
        times.append((time.perf_counter() - started) * 1000.0)
    (held,) = entries
    return {f"lock entries held by a {rows:,}-row insert transaction "
            "at commit": held,
            f"{rows:,}-row insert transaction ms (median of {runs})":
            round(statistics.median(times), 1)}


def test_e11_wal_sync_cost(benchmark, tmp_path):
    rows_out = []
    # a transaction is one WAL record, so a commit is the unit of fsync
    for label, sync in (("no fsync", False), ("fsync per commit", True)):
        db = Database(str(tmp_path / f"db-{sync}"), sync_wal=sync)
        db.create_table(_edit_table_schema())
        started = time.perf_counter()
        for i in range(200):
            db.run(lambda txn, i=i: txn.insert(
                "wiki_facts", {"id": i, "edits": 0, "body": "x"}))
        elapsed = time.perf_counter() - started
        rows_out.append([label, 200 / elapsed])
        db.close()
    write_table(
        "e11c_wal_sync",
        "E11c: WAL durability cost (one-row transactions/sec)",
        ["mode", "commits / sec"],
        rows_out,
    )
    assert rows_out[0][1] > rows_out[1][1]  # fsync costs throughput
    db = Database(str(tmp_path / "bench"), sync_wal=False)
    db.create_table(_edit_table_schema())
    counter = iter(range(10_000_000))
    benchmark(lambda: db.run(
        lambda t: t.insert("wiki_facts",
                           {"id": next(counter), "edits": 0, "body": "y"})
    ))
