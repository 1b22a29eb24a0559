"""A transaction's own inserts hold no lock entries: their rids are
claimed as one range (implicit X locks) and a claim becomes an explicit
entry only when another transaction asks for one of its rows."""

import random
import sys
import threading
import time
import tracemalloc

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.lockmgr import DeadlockError, LockManager, LockMode
from repro.storage.rdbms.types import Column, ColumnType, TableSchema

S = LockMode.SHARED
JOIN_S = 10.0


def _make_db() -> Database:
    db = Database()
    db.create_table(TableSchema(
        "t", (Column("id", ColumnType.INT, nullable=False),
              Column("v", ColumnType.INT)),
        primary_key="id"))
    db.create_index("t", "v", kind="hash")
    return db


def _waiting(lm: LockManager, txn_id: int) -> bool:
    with lm._cond:
        return txn_id in lm._waits_for


class _ReleaseSpy(threading.Condition):
    """The lock manager's condition, noting at each wake-up (only
    release_all wakes waiters) what ``txn_id`` still holds: its explicit
    keys and the owners its claims name on ``rids``."""

    def __init__(self, lm: LockManager, txn_id: int, table: str,
                 rids: range) -> None:
        super().__init__()
        self.lm, self.txn_id, self.table, self.rids = lm, txn_id, table, rids
        self.woken: list[tuple] = []

    def notify_all(self) -> None:
        claimed = {rid for rid in self.rids if self.txn_id in
                   self.lm.holders((self.table, rid))}
        self.woken.append((self.lm.held(self.txn_id), claimed))
        super().notify_all()


def _until(condition, seconds: float = JOIN_S) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def test_a_large_insert_holds_one_lock_entry():
    db = _make_db()
    txn = db.begin()
    rows = txn.insert_many("t", [{"id": i, "v": i} for i in range(10_000)])
    assert db._locks.lock_count() == 1
    assert db._locks.held(txn.txn_id) == {("t", None)}  # its IX
    # its own rows: granted with no new entry
    txn.update("t", rows[-1].rid, {"v": -1})
    txn.get("t", rows[0].rid)
    assert db._locks.lock_count() == 1
    txn.commit()
    assert db._locks.lock_count() == 0
    assert db.table_size("t") == 10_000


def test_a_large_insert_holds_each_row_once():
    """The change log keeps the stored value dict of each inserted row,
    not a copy of it: what a 10,000-row insert into a facts-like table
    holds itself (freed with the transaction; the rows stay in the
    table) is its change log, about 0.7 MiB; with a copy per row it was
    3.3 MiB."""
    db = Database()
    db.create_table(TableSchema("t", (
        Column("id", ColumnType.INT, nullable=False),
        Column("entity", ColumnType.TEXT), Column("attribute", ColumnType.TEXT),
        Column("value_text", ColumnType.TEXT),
        Column("value_num", ColumnType.FLOAT),
        Column("confidence", ColumnType.FLOAT),
        Column("doc_id", ColumnType.TEXT)), primary_key="id"))
    rows = [{"id": i, "entity": f"e{i % 997}", "attribute": f"a{i % 10}",
             "value_text": None, "value_num": i / 100,
             "confidence": 0.5, "doc_id": f"d{i % 977}"}
            for i in range(10_000)]
    txn = db.begin()
    tracemalloc.start()
    try:
        txn.insert_many("t", rows)
        heap = db._table("t")
        assert all(after is heap._rows[rid]
                   for _, _, rid, _, after in txn._undo)
        held, _ = tracemalloc.get_traced_memory()
        txn.commit()
        del txn
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert db.table_size("t") == 10_000
    assert held <= 1.5 * 2 ** 20, held


def test_holders_names_the_claim_owner():
    db = _make_db()
    txn = db.begin()
    first = txn.insert_many("t", [{"id": 1, "v": 1}, {"id": 2, "v": 2}])
    later = txn.insert("t", {"id": 3, "v": 3})  # extends the same claim
    for row in (*first, later):
        assert db._locks.holders(("t", row.rid)) == {txn.txn_id}
    assert db._locks.holders(("t", later.rid + 1)) == set()
    txn.commit()
    assert db._locks.holders(("t", later.rid)) == set()


def test_contiguous_claims_merge_and_lookups_bisect():
    lm = LockManager()
    lm.claim(1, "t", 0, 9)
    lm.claim(2, "t", 10, 19)
    lm.claim(1, "t", 20, 29)
    lm.claim(1, "t", 30, 39)  # continues txn 1's claim just below
    assert [span[2] for span in lm._claims["t"]] == [1, 2, 1]
    assert [lm.holders(("t", rid)) for rid in (0, 9, 10, 19, 20, 39, 40)] \
        == [{1}, {1}, {2}, {2}, {1}, {1}, set()]
    lm.release_all(1)
    assert lm.holders(("t", 5)) == set() and lm.holders(("t", 15)) == {2}
    lm.release_all(2)
    assert lm._claims == {} and lm.lock_count() == 0


def test_a_failed_insert_leaves_its_claimed_rids_to_no_one_else():
    db = _make_db()
    txn = db.begin()
    txn.insert("t", {"id": 1, "v": 1})
    with pytest.raises(Exception):  # the duplicate key fails the batch
        txn.insert_many("t", [{"id": 2, "v": 2}, {"id": 1, "v": 3},
                              {"id": 4, "v": 4}])
    other = db.begin()
    row = other.insert("t", {"id": 9, "v": 9})
    assert row.rid == 4  # past the failed batch's claim, rids 1-3
    assert [db._locks.holders(("t", rid)) for rid in range(5)] \
        == [{txn.txn_id}] * 4 + [{other.txn_id}]
    other.commit()
    txn.commit()
    assert db.table_size("t") == 2


@pytest.mark.parametrize("ending", ["commit", "abort"])
@pytest.mark.parametrize("reader", ["probe", "update"])
def test_another_transaction_waits_for_an_uncommitted_insert(reader, ending):
    """The other transaction asks for an inserted rid while the insert is
    still running (the writer is held inside its second heap insert,
    mutate lock held): it must be seen waiting on the writer, and what
    it gets is the committed outcome.  When the writer's locks go, it
    holds neither explicit keys nor claims any more: a request arriving
    then cannot turn a claim into an entry nobody will release."""
    db = _make_db()
    heap = db._table("t")
    writer, other = db.begin(), db.begin()
    first = heap._next_rid
    spy = db._locks._cond = _ReleaseSpy(
        db._locks, writer.txn_id, "t", range(first, first + 2))
    # the probe finds the first row (indexed already); the update asks
    # for the second, whose heap insert is the one held
    target = first + (0 if reader == "probe" else 1)
    start = threading.Barrier(2)
    inserting = threading.Event()
    outcome: dict = {}
    calls = []
    real_insert = heap.insert

    def held_insert(values, rid=None):
        row = real_insert(values, rid=rid)
        calls.append(row.rid)
        if len(calls) == 2:
            inserting.set()
            _until(lambda: _waiting(db._locks, other.txn_id)
                   or "result" in outcome or "error" in outcome)
            outcome["seen_waiting"] = _waiting(db._locks, other.txn_id)
        return row

    def other_side():
        start.wait(JOIN_S)
        inserting.wait(JOIN_S)
        try:
            if reader == "probe":
                outcome["result"] = [r.values for r in
                                     other.lookup("t", "v", 7)]
            else:
                outcome["result"] = [other.update(
                    "t", target, {"v": 70}).values]
            other.commit()
        except KeyError as exc:  # the row went with the abort
            outcome["error"] = exc
            other.abort()

    heap.insert = held_insert
    thread = threading.Thread(target=other_side)
    thread.start()
    try:
        start.wait(JOIN_S)
        writer.insert_many("t", [{"id": 1, "v": 7}, {"id": 2, "v": 8}])
    finally:
        del heap.insert
    assert thread.is_alive(), "the other transaction did not wait"
    getattr(writer, ending)()
    thread.join(JOIN_S)
    assert not thread.is_alive()
    assert outcome["seen_waiting"]
    if ending == "commit":
        expected = ({"id": 1, "v": 7} if reader == "probe"
                    else {"id": 2, "v": 70})
        assert outcome["result"] == [expected]
    elif reader == "probe":  # the rid the abort took back is left out
        assert outcome["result"] == [] and "error" not in outcome
        assert db.table_size("t") == 0
    else:  # an update of the row the abort took back raises
        assert isinstance(outcome["error"], KeyError)
        assert db.table_size("t") == 0
    assert db._locks.lock_count() == 0
    assert spy.woken and all(held == (set(), set()) for held in spy.woken)


def test_a_deadlock_through_a_converted_claim_names_the_requester():
    db = _make_db()
    a, b = db.begin(), db.begin()
    row_a = a.insert("t", {"id": 1, "v": 1})
    row_b = b.insert("t", {"id": 2, "v": 2})
    seen: list = []

    def a_reads_b():
        try:
            a.get("t", row_b.rid)  # waits on b's claim
        except KeyError:  # b's abort took the row back
            seen.append("gone")
        a.commit()

    thread = threading.Thread(target=a_reads_b)
    thread.start()
    assert _until(lambda: _waiting(db._locks, a.txn_id))
    assert db._locks.holders(("t", row_b.rid)) == {b.txn_id}
    with pytest.raises(DeadlockError):
        b.update("t", row_a.rid, {"v": 10})  # closes the cycle
    b.abort()
    thread.join(JOIN_S)
    assert not thread.is_alive() and seen == ["gone"]
    assert [r.values for r in db.run(lambda t: t.scan("t"))] \
        == [{"id": 1, "v": 1}]
    assert db._locks.lock_count() == 0


class _Abort(Exception):
    pass


def test_claims_under_contention_lose_no_update():
    """More threads than cores, a short switch interval: each transaction
    inserts rows (a claim) and increments a row any transaction inserted,
    committed or not; a third of them, and deadlock victims, abort, their
    inserts taken back.  An increment that read past a claim would land
    on a row an abort then removes, and the sum would come out short."""
    db = _make_db()
    ids = iter(range(10**9))
    rids: list[int] = []
    committed: list[int] = []
    errors: list[BaseException] = []

    def work(txn, rng):
        rows = txn.insert_many("t", [{"id": next(ids), "v": 0}
                                     for _ in range(rng.randrange(1, 6))])
        rids.extend(row.rid for row in rows)
        target = rng.choice(rids[-8:])  # recent: often still uncommitted
        try:
            current = txn.get("t", target).values["v"]
        except KeyError:  # inserted by a transaction that aborted
            return 0
        txn.update("t", target, {"v": current + 1})
        if rng.random() < 0.3:
            raise _Abort
        return 1

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(200):
                try:
                    committed.append(db.run(lambda txn: work(txn, rng)))
                except (DeadlockError, _Abort):  # nothing committed
                    pass
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    total = sum(r.values["v"] for r in db.run(lambda t: t.scan("t")))
    assert total == sum(committed) and sum(committed) > 0
    assert db._locks.lock_count() == 0 and db._locks._claims == {}
