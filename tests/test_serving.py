"""Serving-layer tests: MVCC snapshots, admission, deadlines, shutdown."""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core.serving import ServingGate
from repro.core.system import StructureManagementSystem
from repro.errors import (AdmissionRejected, CancellationToken,
                          QueryDeadlockError, QueryLockTimeoutError,
                          QueryTimeoutError, ReadOnlyTransactionError)
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.lockmgr import DeadlockError, LockManager
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import SqlError, execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry import metrics


def _accounts_db(n=4, balance=10):
    db = Database()
    db.create_table(TableSchema(
        "accounts",
        (Column("id", ColumnType.INT, nullable=False),
         Column("balance", ColumnType.INT)),
        primary_key="id",
    ))
    db.run(lambda t: t.insert_many(
        "accounts",
        [{"id": i, "balance": balance} for i in range(n)]))
    return db


# -------------------------------------------------------------- snapshots


def test_snapshot_ignores_uncommitted_writes():
    db = _accounts_db()
    txn = db.begin()
    row = txn.get_by_pk("accounts", 0)
    txn.update("accounts", row.rid, {"balance": 999})
    try:
        with db.begin_snapshot() as snap:
            assert snap.get_by_pk("accounts", 0).values["balance"] == 10
    finally:
        txn.abort()


def test_snapshot_reads_do_not_block_on_writer_locks():
    """A snapshot read returns immediately even while a writer holds the
    X lock on the row being read (readers never touch the lock manager)."""
    db = _accounts_db()
    db._locks = LockManager(timeout=0.2)  # a lock wait would time out fast
    txn = db.begin()
    row = txn.get_by_pk("accounts", 1)
    txn.update("accounts", row.rid, {"balance": 123})
    try:
        t0 = time.perf_counter()
        rows = execute_sql(db, "SELECT balance FROM accounts WHERE id = 1")
        elapsed = time.perf_counter() - t0
        assert rows == [{"balance": 10}]
        assert elapsed < 0.2  # did not sit in the lock queue
    finally:
        txn.abort()


def test_snapshot_transactions_are_read_only():
    db = _accounts_db()
    with db.begin_snapshot() as snap:
        with pytest.raises(ReadOnlyTransactionError):
            snap.insert("accounts", {"id": 99, "balance": 1})
        with pytest.raises(ReadOnlyTransactionError):
            snap.insert_many("accounts", [{"id": 99, "balance": 1}])
        with pytest.raises(ReadOnlyTransactionError):
            snap.update("accounts", 0, {"balance": 1})
        with pytest.raises(ReadOnlyTransactionError):
            snap.delete("accounts", 0)
        with pytest.raises(ReadOnlyTransactionError):
            snap.write_many("accounts", [("delete", 0)])


def test_snapshot_index_lookups_match_scans():
    db = _accounts_db(n=8)
    db.create_index("accounts", "balance")
    db.run(lambda t: t.update(
        "accounts", t.get_by_pk("accounts", 3).rid, {"balance": 77}))
    with db.begin_snapshot() as snap:
        by_index = {r.values["id"] for r in snap.lookup(
            "accounts", "balance", 77)}
        by_scan = {r.values["id"] for r in snap.scan("accounts")
                   if r.values["balance"] == 77}
        assert by_index == by_scan == {3}


def test_snapshot_versions_never_reused_across_drop_recreate():
    db = _accounts_db()
    v1 = db.begin_snapshot().version_of("accounts")
    db.drop_table("accounts")
    db.create_table(TableSchema(
        "accounts",
        (Column("id", ColumnType.INT, nullable=False),
         Column("balance", ColumnType.INT)),
        primary_key="id",
    ))
    v2 = db.begin_snapshot().version_of("accounts")
    assert v2 > v1  # a recreated table can never alias an old version


def test_snapshot_reuse_between_commits():
    db = _accounts_db()
    registry = metrics.get_registry()
    db.begin_snapshot()
    before = registry.get("rdbms.mvcc.snapshot_reuses")
    db.begin_snapshot()  # no commit in between: cached clone is reused
    assert registry.get("rdbms.mvcc.snapshot_reuses") > before


# ------------------------------------------------------ cancellation token


def test_expired_guard_cancels_select():
    db = _accounts_db()
    guard = CancellationToken.after(0.0, sql="SELECT 1")
    time.sleep(0.001)
    with pytest.raises(QueryTimeoutError):
        execute_sql(db, "SELECT * FROM accounts", guard=guard)


def test_shutdown_event_cancels_select():
    db = _accounts_db()
    event = threading.Event()
    event.set()
    guard = CancellationToken(event=event)
    with pytest.raises(QueryTimeoutError, match="shutdown"):
        execute_sql(db, "SELECT * FROM accounts", guard=guard)


def test_typed_errors_carry_sql_text():
    db = _accounts_db()
    guard = CancellationToken.after(0.0)
    time.sleep(0.001)
    with pytest.raises(QueryTimeoutError) as info:
        execute_sql(db, "SELECT id FROM accounts", guard=guard)
    assert "SELECT id FROM accounts" in str(info.value)


class _FiresAfterFirstSegment(CancellationToken):
    """Counts polls; cancels once the scan has evaluated one segment."""

    def __init__(self, armed=True):
        super().__init__()
        self.armed = armed
        self.polls = 0
        self._base = metrics.get_registry().get("segments.scanned")

    def check(self):
        self.polls += 1
        scanned = metrics.get_registry().get("segments.scanned")
        if self.armed and scanned > self._base:
            raise QueryTimeoutError("query exceeded its deadline")


def _frozen_db(n=300):
    db = Database()
    schema = TableSchema("t", (Column("id", ColumnType.INT, nullable=False),
                               Column("grp", ColumnType.TEXT),
                               Column("v", ColumnType.INT)),
                         primary_key="id")
    db.create_table(schema)
    with db.begin() as txn:
        txn.insert_many("t", [{"id": i, "grp": f"g{i % 7}", "v": i % 13}
                              for i in range(n)])
    db.compact("t", target_rows=100)
    return db


@pytest.mark.parametrize("sql", [
    "SELECT id FROM t WHERE v < 5",                   # SegmentScan
    "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp",  # columnar aggregate
])
def test_deadline_cancels_scan_of_frozen_data(sql):
    db = _frozen_db()
    assert db._table("t").segment_count() == 3
    assert "SegmentScan" in execute_sql(db, f"EXPLAIN {sql}")[-1]["plan"]
    with pytest.raises(QueryTimeoutError) as info:
        execute_sql(db, sql, guard=_FiresAfterFirstSegment())
    assert info.value.sql == sql


def test_frozen_scan_polls_the_guard_at_least_once_per_segment():
    db = _frozen_db()
    for sql in ("SELECT id FROM t WHERE v < 5",
                "SELECT grp, COUNT(*) FROM t GROUP BY grp"):
        guard = _FiresAfterFirstSegment(armed=False)
        execute_sql(db, sql, guard=guard)
        assert guard.polls >= 3, (sql, guard.polls)


# ----------------------------------------------------------- result cache


def test_qcache_never_serves_stale_hit_after_commit():
    """Regression: a read that starts after a commit must see it, even
    while other threads keep the same statement hot in the cache."""
    db = _accounts_db(n=1, balance=0)
    cache = QueryResultCache(db)
    sql = "SELECT balance FROM accounts WHERE id = 0"
    stop = threading.Event()
    errors = []

    def hammer():
        try:
            while not stop.is_set():
                cache.execute(sql)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        for n in range(1, 60):
            db.run(lambda t, n=n: t.update(
                "accounts", t.get_by_pk("accounts", 0).rid, {"balance": n}))
            # Commit happened-before this lookup: a stale hit here would
            # be the coherence bug this PR fixes.
            assert cache.execute(sql) == [{"balance": n}]
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors


def test_qcache_hits_between_commits():
    db = _accounts_db()
    cache = QueryResultCache(db)
    registry = metrics.get_registry()
    sql = "SELECT COUNT(*) AS n FROM accounts"
    assert cache.execute(sql) == [{"n": 4}]
    before = registry.get("planner.cache.hits")
    assert cache.execute(sql) == [{"n": 4}]
    assert registry.get("planner.cache.hits") > before


# -------------------------------------------------------------- admission


def test_gate_sheds_load_when_saturated():
    gate = ServingGate(max_concurrent=1, max_queue=0)
    slot = gate.admit("q1")
    with pytest.raises(AdmissionRejected) as info:
        gate.admit("q2")
    assert info.value.reason == "saturated"
    with slot:
        pass
    with gate.admit("q3"):  # slot freed: admission works again
        pass


def test_gate_queue_timeout():
    gate = ServingGate(max_concurrent=1, max_queue=4, queue_timeout=0.05)
    slot = gate.admit("q1")
    t0 = time.perf_counter()
    with pytest.raises(AdmissionRejected) as info:
        gate.admit("q2")
    assert info.value.reason == "queue-timeout"
    assert time.perf_counter() - t0 < 2.0
    with slot:
        pass


def test_gate_drain_rejects_and_waits():
    gate = ServingGate(max_concurrent=2, max_queue=2)
    slot = gate.admit("q1")
    assert gate.drain(timeout=0.05) is False  # q1 still running
    with pytest.raises(AdmissionRejected) as info:
        gate.admit("q2")
    assert info.value.reason == "draining"
    with slot:
        pass
    assert gate.drain(timeout=1.0) is True  # idempotent, now empty


def test_system_query_deadline_and_admission():
    system = StructureManagementSystem(max_concurrent_queries=1,
                                       max_queued_queries=0,
                                       admission_timeout_seconds=0.1)
    try:
        assert system.query("SELECT COUNT(*) AS n FROM facts") == [{"n": 0}]
        with pytest.raises(QueryTimeoutError):
            system.query("SELECT * FROM facts", deadline_seconds=0.0)
        slot = system.gate.admit("held")
        with pytest.raises(AdmissionRejected):
            system.query("SELECT * FROM facts")
        with slot:
            pass
    finally:
        system.close()


def test_system_close_drains_and_is_idempotent():
    system = StructureManagementSystem()
    system.query("SELECT COUNT(*) AS n FROM facts")
    system.close()
    system.close()  # second close is a no-op
    with pytest.raises(AdmissionRejected) as info:
        system.query("SELECT COUNT(*) AS n FROM facts")
    assert info.value.reason == "draining"


def test_session_statements_respect_deadline():
    system = StructureManagementSystem()
    try:
        session = system.session("alice")
        session.deadline_seconds = 0.0
        time.sleep(0.001)
        with pytest.raises(QueryTimeoutError):
            session.structured("SELECT * FROM facts")
    finally:
        system.close()


def test_system_deadline_times_out_a_slow_query_and_sessions_inherit_it():
    system = StructureManagementSystem(query_deadline_seconds=0.001)
    try:
        execute_sql(system.db, "CREATE TABLE big (id INT PRIMARY KEY, grp INT)")
        system.db.run(lambda t: t.insert_many(
            "big", [{"id": i, "grp": i % 7} for i in range(20_000)]))
        slow = "SELECT grp, COUNT(*) AS n FROM big WHERE id >= 0 GROUP BY grp"
        with pytest.raises(QueryTimeoutError) as info:
            system.query(slow)
        assert info.value.sql == slow
        assert len(system.query(slow, deadline_seconds=60.0)) == 7

        session = system.session("alice")
        assert session.deadline_seconds == 0.001
        with pytest.raises(QueryTimeoutError):
            session.structured(slow.replace("id >= 0", "id >= 1"))
    finally:
        system.close()


def _add_facts(system, n=6):
    system.db.run(lambda t: t.insert_many("facts", [
        {"fact_id": i, "entity": f"c{i % 3}", "attribute": f"a{i % 2}",
         "value_num": float(i), "confidence": 0.9} for i in range(n)]))


def test_a_workspace_reopens_under_a_deadline_no_read_could_meet(tmp_path):
    workspace = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=workspace)
    _add_facts(system)
    system.close()
    system = StructureManagementSystem(workspace=workspace,
                                       query_deadline_seconds=1e-9)
    try:
        assert system.fact_count() == 6
        session = system.session("alice")
        assert session.translator.attributes == ["a0", "a1"]
        with pytest.raises(QueryTimeoutError):  # submitted SQL stays timed
            session.structured("SELECT * FROM facts")
    finally:
        system.close()


def test_a_session_starts_under_a_deadline_no_read_could_meet():
    system = StructureManagementSystem(query_deadline_seconds=1e-9)
    try:
        _add_facts(system)
        session = system.session("alice")
        assert session.translator.entities == ["c0", "c1", "c2"]
        assert session.deadline_seconds == 1e-9
        with pytest.raises(QueryTimeoutError):
            system.query("SELECT COUNT(*) AS n FROM facts")
    finally:
        system.close()


def test_the_systems_own_reads_take_no_admission_slot():
    system = StructureManagementSystem(max_concurrent_queries=1,
                                       max_queued_queries=0)
    try:
        _add_facts(system)
        with system.gate.admit("held"):
            session = system.session("alice")
            assert session.translator.attributes == ["a0", "a1"]
            assert system.fact_count() == 6
            assert list(system.provenance.facts()) == []  # none landed
            with pytest.raises(AdmissionRejected):
                session.structured("SELECT * FROM facts")
            with pytest.raises(AdmissionRejected):
                system.query("SELECT COUNT(*) AS n FROM facts")
        assert session.structured("SELECT COUNT(*) AS n FROM facts") == \
            [{"n": 6}]
    finally:
        system.close()


def test_session_and_explain_statements_pass_the_admission_gate():
    system = StructureManagementSystem(max_concurrent_queries=1,
                                       max_queued_queries=0)
    try:
        session = system.session("alice")
        slot = system.gate.admit("held")
        with pytest.raises(AdmissionRejected) as info:
            session.structured("SELECT * FROM facts")
        assert info.value.reason == "saturated"
        with pytest.raises(AdmissionRejected):
            system.explain_sql("SELECT * FROM facts")
        with slot:
            pass
        assert session.structured("SELECT * FROM facts") == []
    finally:
        system.close()


def test_session_statements_count_as_system_queries():
    system = StructureManagementSystem()
    try:
        session = system.session("alice")
        registry = metrics.get_registry()
        before = registry.get("system.queries")
        session.structured("SELECT * FROM facts")
        session.browse("facts")
        assert registry.get("system.queries") == before + 2
    finally:
        system.close()


def test_closed_system_rejects_session_statements_as_draining():
    system = StructureManagementSystem()
    session = system.session("alice")
    system.close()
    with pytest.raises(AdmissionRejected) as info:
        session.structured("SELECT * FROM facts")
    assert info.value.reason == "draining"


_SIGTERM_CHILD = """
import sys, time
from repro.core.system import StructureManagementSystem
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor

system = StructureManagementSystem(workspace=sys.argv[1])
system.registry.register_extractor("infobox", InfoboxExtractor())
system.ingest([Document("madison", "{{Infobox city | name = Madison "
                                   "| sep_temp = 70 | population = 233209 }}")])
system.generate('p = docs()\\nf = extract(p, "infobox")\\noutput f')
system.install_signal_handlers()
print(system.query("SELECT COUNT(*) AS n FROM facts")[0]["n"], flush=True)
time.sleep(60)
"""


def test_sigterm_drains_exits_143_and_the_workspace_reopens(tmp_path):
    workspace = str(tmp_path / "ws")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    child = subprocess.Popen(
        [sys.executable, "-c", _SIGTERM_CHILD, workspace],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        facts = int(child.stdout.readline())
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60) == 128 + signal.SIGTERM == 143
    finally:
        child.kill()
        child.stdout.close()
    assert facts > 0
    system = StructureManagementSystem(workspace=workspace)
    try:
        assert system.query("SELECT COUNT(*) AS n FROM facts") == [
            {"n": facts}]
    finally:
        system.close()


# ------------------------------------------------------------- CLI codes


def test_cli_exit_codes_distinguish_timeout_from_failure(tmp_path,
                                                         monkeypatch):
    from repro import cli

    ws = str(tmp_path / "ws")
    assert cli.main(["--workspace", ws, "sql", "SELECT FROM"]) == 3

    def boom(args):
        raise QueryTimeoutError("query exceeded its deadline",
                                sql=args.query)

    monkeypatch.setattr(cli, "cmd_sql", boom)
    assert cli.main(["--workspace", ws, "sql", "SELECT 1"]) == 4


_UPDATE = "UPDATE kv SET v = 3 WHERE k = 1"


def _one_attempt_kv(system):
    """A one-row ``kv`` table; a writer gets one attempt."""
    if "kv" not in system.db.table_names():
        system.query("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        system.query("INSERT INTO kv (k, v) VALUES (1, 1)")
    system.db.txn_retry = replace(system.db.txn_retry, max_attempts=1)


def _hold_row_lock(system):
    """Row k = 1 X-locked by an open writer; a lock wait times out after
    50 ms."""
    _one_attempt_kv(system)
    system.db._locks = LockManager(timeout=0.05)
    holder = system.db.begin()
    holder.update("kv", holder.get_by_pk("kv", 1).rid, {"v": 2})
    return holder


def _deadlocking(system, monkeypatch):
    """Every lock request picked as a deadlock victim."""
    def acquire(txn_id, key, mode):
        raise DeadlockError(f"txn {txn_id} deadlocked on {key}")

    _one_attempt_kv(system)
    monkeypatch.setattr(system.db._locks, "acquire", acquire)


def test_system_query_maps_lock_errors_and_names_the_sql(monkeypatch):
    system = StructureManagementSystem()
    holder = _hold_row_lock(system)
    with pytest.raises(QueryLockTimeoutError) as info:
        system.query(_UPDATE)
    assert info.value.sql == _UPDATE
    holder.abort()
    _deadlocking(system, monkeypatch)
    with pytest.raises(QueryDeadlockError) as info:
        system.query(_UPDATE)
    assert info.value.sql == _UPDATE


def test_cli_exit_codes_for_lock_timeout_and_deadlock(tmp_path, monkeypatch,
                                                       capsys):
    from repro import cli

    ws = str(tmp_path / "ws")
    build = cli._build_system

    def holding(*args, **kwargs):
        system = build(*args, **kwargs)
        _hold_row_lock(system)
        return system

    monkeypatch.setattr(cli, "_build_system", holding)
    assert cli.main(["--workspace", ws, "sql", _UPDATE]) == \
        cli.EXIT_QUERY_TIMEOUT
    assert "repro: query timed out:" in capsys.readouterr().err

    def deadlocking(*args, **kwargs):
        system = build(*args, **kwargs)
        _deadlocking(system, monkeypatch)
        return system

    monkeypatch.setattr(cli, "_build_system", deadlocking)
    assert cli.main(["--workspace", str(tmp_path / "ws2"), "sql",
                     _UPDATE]) == cli.EXIT_EXECUTION_FAILURE
    assert f"(sql: {_UPDATE!r})" in capsys.readouterr().err


def test_sql_error_still_raised_for_bad_statements():
    db = _accounts_db()
    with pytest.raises(SqlError):
        execute_sql(db, "SELEC balance FROM accounts")
