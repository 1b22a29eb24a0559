"""Concurrency stress tests: invariants under many racing transactions."""

import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema


def _bank(accounts=8, balance=100):
    db = Database()
    db.create_table(TableSchema(
        "accounts",
        (Column("id", ColumnType.INT, nullable=False),
         Column("balance", ColumnType.INT)),
        primary_key="id",
    ))
    def seed(txn):
        for i in range(accounts):
            txn.insert("accounts", {"id": i, "balance": balance})
    db.run(seed)
    return db


def _total(db):
    return sum(r.values["balance"] for r in db.run(lambda t: t.scan("accounts")))


def test_random_transfers_conserve_total():
    """The classic bank-transfer invariant under 2PL with deadlock retry."""
    db = _bank()
    initial_total = _total(db)
    n_threads, n_transfers = 4, 30

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(n_transfers):
            a, b = rng.sample(range(8), 2)
            amount = rng.randrange(1, 10)

            def transfer(txn, a=a, b=b, amount=amount):
                # lock in a fixed order to keep deadlocks rare (retries
                # handle the rest)
                first, second = sorted((a, b))
                row_first = txn.get_by_pk("accounts", first)
                row_second = txn.get_by_pk("accounts", second)
                rows = {first: row_first, second: row_second}
                txn.update("accounts", rows[a].rid,
                           {"balance": rows[a].values["balance"] - amount})
                txn.update("accounts", rows[b].rid,
                           {"balance": rows[b].values["balance"] + amount})
            db.run(transfer)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert _total(db) == initial_total


def test_readers_see_consistent_snapshots_under_writers():
    """A scan inside one transaction never observes a half-applied
    transfer (total is invariant in every read)."""
    db = _bank(accounts=4, balance=50)
    expected_total = 200
    stop = threading.Event()
    violations = []

    def writer():
        rng = random.Random(7)
        while not stop.is_set():
            a, b = rng.sample(range(4), 2)

            def transfer(txn, a=a, b=b):
                ra = txn.get_by_pk("accounts", a)
                rb = txn.get_by_pk("accounts", b)
                txn.update("accounts", ra.rid,
                           {"balance": ra.values["balance"] - 1})
                txn.update("accounts", rb.rid,
                           {"balance": rb.values["balance"] + 1})
            db.run(transfer)

    def reader():
        for _ in range(40):
            rows = db.run(lambda t: t.scan("accounts"))
            total = sum(r.values["balance"] for r in rows)
            if total != expected_total:
                violations.append(total)

    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    reader_thread.join()
    stop.set()
    writer_thread.join()
    assert violations == []


def test_many_concurrent_inserters_unique_rids():
    db = Database()
    db.create_table(TableSchema(
        "t", (Column("tid", ColumnType.INT), Column("seq", ColumnType.INT)),
    ))
    n_threads, per_thread = 6, 25

    def inserter(tid):
        for seq in range(per_thread):
            db.run(lambda t, tid=tid, seq=seq:
                   t.insert("t", {"tid": tid, "seq": seq}))

    threads = [threading.Thread(target=inserter, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rows = db.run(lambda t: t.scan("t"))
    assert len(rows) == n_threads * per_thread
    rids = [r.rid for r in rows]
    assert len(set(rids)) == len(rids)
    # every (tid, seq) pair arrived exactly once
    pairs = {(r.values["tid"], r.values["seq"]) for r in rows}
    assert len(pairs) == n_threads * per_thread


# ---------------------------------------------------------- MVCC snapshots


def test_mvcc_readers_consistent_under_churn():
    """Snapshot readers always see a committed total while writers
    transfer and the table is concurrently compacted.

    Readers go through the lock-free snapshot path (both the raw
    ``begin_snapshot`` API and the auto-transaction SQL route), so any
    torn read here is an MVCC bug, not lock-starvation flakiness.
    """
    db = _bank(accounts=8, balance=100)
    expected = 800
    stop = threading.Event()
    violations = []
    errors = []

    def writer():
        rng = random.Random(13)
        while not stop.is_set():
            a, b = rng.sample(range(8), 2)

            def transfer(txn, a=a, b=b):
                ra = txn.get_by_pk("accounts", a)
                rb = txn.get_by_pk("accounts", b)
                txn.update("accounts", ra.rid,
                           {"balance": ra.values["balance"] - 1})
                txn.update("accounts", rb.rid,
                           {"balance": rb.values["balance"] + 1})

            db.run(transfer)

    def churner():
        while not stop.is_set():
            try:
                db.compact("accounts")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
                return

    def reader():
        try:
            for i in range(50):
                if i % 2 == 0:
                    with db.begin_snapshot() as snap:
                        total = sum(r.values["balance"]
                                    for r in snap.scan("accounts"))
                else:
                    rows = execute_sql(
                        db, "SELECT SUM(balance) AS s FROM accounts")
                    total = rows[0]["s"]
                if total != expected:
                    violations.append(total)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=writer),
               threading.Thread(target=churner),
               threading.Thread(target=reader),
               threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    threads[2].join()
    threads[3].join()
    stop.set()
    threads[0].join()
    threads[1].join()
    assert not errors
    assert violations == []
    assert _total(db) == expected


def test_mvcc_snapshot_is_stable_across_later_commits():
    """A snapshot pinned before a commit keeps answering from the old
    state; a snapshot taken after sees the new state."""
    db = _bank(accounts=2, balance=10)
    before = db.begin_snapshot()
    db.run(lambda t: t.update(
        "accounts", t.get_by_pk("accounts", 0).rid, {"balance": 99}))
    after = db.begin_snapshot()
    assert before.get_by_pk("accounts", 0).values["balance"] == 10
    assert after.get_by_pk("accounts", 0).values["balance"] == 99


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), st.integers(0, 7),
                  st.integers(-100, 100)),
        st.tuples(st.just("delete"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("compact"), st.just(0), st.just(0)),
    ),
    max_size=30,
)


@settings(max_examples=30, deadline=None)
@given(ops=_OPS)
def test_mvcc_differential_vs_oracle(ops):
    """Differential suite: after every committed operation, the snapshot
    read path (scan + SQL aggregates) must agree exactly with a plain
    single-threaded dict oracle — across compaction."""
    db = Database()
    db.create_table(TableSchema(
        "accounts",
        (Column("id", ColumnType.INT, nullable=False),
         Column("balance", ColumnType.INT)),
        primary_key="id",
    ))
    oracle = {}
    for kind, key, value in ops:
        if kind == "upsert":
            if key in oracle:
                def update(txn, key=key, value=value):
                    row = txn.get_by_pk("accounts", key)
                    txn.update("accounts", row.rid, {"balance": value})
                db.run(update)
            else:
                db.run(lambda t, key=key, value=value:
                       t.insert("accounts", {"id": key, "balance": value}))
            oracle[key] = value
        elif kind == "delete":
            if key in oracle:
                def delete(txn, key=key):
                    row = txn.get_by_pk("accounts", key)
                    txn.delete("accounts", row.rid)
                db.run(delete)
                del oracle[key]
        elif kind == "compact":
            db.compact("accounts")
        with db.begin_snapshot() as snap:
            seen = {r.values["id"]: r.values["balance"]
                    for r in snap.scan("accounts")}
        assert seen == oracle
        count = execute_sql(db, "SELECT COUNT(*) AS n FROM accounts")[0]["n"]
        assert count == len(oracle)
        total = execute_sql(db, "SELECT SUM(balance) AS s FROM accounts")[0]["s"]
        assert total == (sum(oracle.values()) if oracle else None)
