"""Sharded tables + parallel SQL execution (DESIGN.md §14).

Covers seed-stable shard routing (identical across processes and
``PYTHONHASHSEED`` values), the SHARD BY / RESHARD DDL surface, shard
membership maintenance under DML, plan-time shard pruning, EXPLAIN
ANALYZE actuals summed across fanned-out shards, bounded streaming with
LIMIT early-exit, parallel aggregation/join differentials, and WAL/
checkpoint recovery of shard layouts including a torn ``reshard`` record.
"""

import json
import os
import signal
import subprocess
import sys
from itertools import chain, starmap

import pytest

from repro.cluster.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
)
from repro.cluster.simulator import SimulatedCluster
from repro.storage.rdbms import parallel
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sharding import (
    ShardSpec,
    canonical_key_bytes,
    shard_of_value,
)
from repro.storage.rdbms.sql import SqlError, execute_sql
from repro.storage.rdbms.table import unit_rows
from repro.storage.rdbms.types import Column, ColumnType, SchemaError, TableSchema
from repro.telemetry import metrics

REGIONS = ["eu", "us", "apac", "latam", "mea"]


def _events_schema():
    return TableSchema(
        "ev",
        (Column("id", ColumnType.INT, nullable=False),
         Column("day", ColumnType.INT),
         Column("region", ColumnType.TEXT),
         Column("qty", ColumnType.INT)),
        primary_key="id",
    )


def _load(db, n=600):
    rows = [{"id": i, "day": i % 30, "region": REGIONS[i % len(REGIONS)],
             "qty": (i * 7) % 100 if i % 11 else None}
            for i in range(n)]
    with db.begin() as txn:
        txn.insert_many("ev", rows)


def _sharded_db(shards=4, n=600, compact=True, backend=None):
    db = Database()
    db.create_table(_events_schema(), shard_key="region", shard_count=shards)
    _load(db, n)
    if compact:
        db.compact("ev")
    db.exec_backend = backend if backend is not None else SerialBackend()
    return db


def _oracle_db(n=600):
    db = Database()
    db.create_table(_events_schema())
    _load(db, n)
    return db


def _canon(rows):
    return json.dumps(rows, sort_keys=True, default=str)


def _plan_lines(db, sql):
    return [r["plan"] for r in execute_sql(db, sql)]


# ------------------------------------------------------------ routing


def test_canonical_bytes_follow_sql_equality():
    # SQL `=` treats 1, 1.0 and True as equal; routing must agree or
    # shard pruning would drop matching rows.
    assert canonical_key_bytes(1) == canonical_key_bytes(1.0)
    assert canonical_key_bytes(1) == canonical_key_bytes(True)
    assert canonical_key_bytes(0) == canonical_key_bytes(-0.0)
    assert canonical_key_bytes(0) == canonical_key_bytes(False)
    # ...but strings stay in their own namespace,
    assert canonical_key_bytes(1) != canonical_key_bytes("1")
    # NULL routes stably too (NULL never *matches*, but rows carrying a
    # NULL key still need a home shard).
    assert canonical_key_bytes(None) == canonical_key_bytes(None)
    assert canonical_key_bytes(2.5) != canonical_key_bytes(2)
    assert canonical_key_bytes("nan") != canonical_key_bytes(float("nan"))


def test_shard_of_value_range_and_degenerate_count():
    values = [0, 1, -7, 3.5, True, None, "eu", "", float("nan")]
    for v in values:
        assert shard_of_value(v, 1) == 0
        assert 0 <= shard_of_value(v, 8) < 8


def test_shard_routing_stable_across_processes_and_hash_seeds():
    """Builtin hash() is salted per process; crc32 routing must not be."""
    values = [0, 1, -7, 42, 3.5, True, False, None, "eu", "us", "", "北京"]
    prog = (
        "import json, sys\n"
        "from repro.storage.rdbms.sharding import shard_of_value\n"
        "values = json.loads(sys.argv[1])\n"
        "print(json.dumps([shard_of_value(v, 8) for v in values]))\n"
    )
    payload = json.dumps(values)
    outputs = []
    for seed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", prog, payload],
                             env=env, capture_output=True, text=True,
                             check=True)
        outputs.append(out.stdout.strip())
    assert outputs[0] == outputs[1] == outputs[2]
    # and the parent process agrees with the children
    assert json.loads(outputs[0]) == [shard_of_value(v, 8) for v in values]


def test_shard_spec_validation():
    with pytest.raises(ValueError):
        ShardSpec("", 4)
    with pytest.raises(ValueError):
        ShardSpec("k", 0)
    spec = ShardSpec.from_dict(ShardSpec("k", 4).to_dict())
    assert (spec.key, spec.count) == ("k", 4)


# ------------------------------------------------------------ DDL surface


def test_create_table_shard_by_sql():
    db = Database()
    execute_sql(db, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT) "
                    "SHARD BY (v) SHARDS 4")
    spec = db._table("t").shard_spec
    assert spec is not None and (spec.key, spec.count) == ("v", 4)


def test_create_table_shard_by_rejects_bad_grammar():
    db = Database()
    with pytest.raises(SqlError):
        execute_sql(db, "CREATE TABLE t (k INT PRIMARY KEY) "
                        "SHARD BY (k) SHARDS 0")
    with pytest.raises(SqlError):
        execute_sql(db, "CREATE TABLE t (k INT PRIMARY KEY) "
                        "SHARD BY (k) SHARDS x")
    with pytest.raises(SqlError):
        execute_sql(db, "CREATE TABLE t (k INT PRIMARY KEY) SHARD (k)")


def test_create_table_shard_key_must_be_a_column():
    db = Database()
    with pytest.raises(SchemaError):
        db.create_table(_events_schema(), shard_key="nope", shard_count=4)
    with pytest.raises(SchemaError):
        db.create_table(_events_schema(), shard_count=4)  # count w/o key


def test_reshard_sql_and_api_roundtrip():
    db = _sharded_db(shards=4)
    out = execute_sql(db, "ALTER TABLE ev RESHARD BY (day) SHARDS 8")
    assert out == [{"resharded": "ev", "shard_key": "day",
                    "shard_count": 8, "rows": 600}]
    assert db._table("ev").shard_spec == ShardSpec("day", 8)
    # API unshard
    summary = db.reshard("ev", None)
    assert summary["shard_key"] is None
    assert db._table("ev").shard_spec is None
    rows = execute_sql(db, "SELECT count(*) FROM ev", use_planner=False)
    assert rows[0]["count(*)"] == 600


# ---------------------------------------------------- membership under DML


def test_shard_membership_tracks_insert_update_delete():
    db = _sharded_db(shards=4, compact=False)
    heap = db._table("ev")
    spec = heap.shard_spec

    def assert_membership():
        # a row is in the shard its values route to, and in no other
        seen = set()
        for shard, units in enumerate(heap.sharded_scan_units()):
            for rid, values in chain.from_iterable(starmap(unit_rows, units)):
                assert rid not in seen
                seen.add(rid)
                assert spec.shard_of(values["region"]) == shard
        assert seen == set(heap._rows)

    assert_membership()
    # move rows between shards by rewriting the shard key
    execute_sql(db, "UPDATE ev SET region = 'mars' WHERE day = 3")
    assert_membership()
    execute_sql(db, "DELETE FROM ev WHERE qty > 80")
    assert_membership()


def test_sharded_scan_units_cover_every_row_once():
    db = _sharded_db(shards=4)
    heap = db._table("ev")
    units_by_shard = heap.sharded_scan_units()
    assert len(units_by_shard) == 4
    rids = []
    for units in units_by_shard:
        for kind, unit, selected in units:
            if kind == "segment":
                rids.extend(unit.rids[pos] for pos in selected)
            else:
                rids.extend(r for r, _ in unit)
    assert sorted(rids) == heap.rids()
    assert len(rids) == 600


# ------------------------------------------------------- planning + pruning


def test_parallel_scan_matches_oracle_and_prunes():
    db = _sharded_db(shards=4)
    oracle = _oracle_db()
    registry = metrics.get_registry()
    for sql in ["SELECT * FROM ev WHERE qty > 50",
                "SELECT * FROM ev WHERE region = 'eu' AND day < 10",
                "SELECT * FROM ev WHERE region IN ('eu', 'us')",
                "SELECT * FROM ev ORDER BY qty DESC LIMIT 7"]:
        assert _canon(execute_sql(db, sql)) == \
            _canon(execute_sql(oracle, sql, use_planner=False)), sql
    before = registry.get("parallel.shards.pruned")
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM ev WHERE region = 'eu'")
    assert any("ParallelScan" in l and "shards=1/4" in l for l in lines), lines
    execute_sql(db, "SELECT * FROM ev WHERE region = 'eu'")
    assert registry.get("parallel.shards.pruned") - before >= 3


def test_in_predicate_pruning_keeps_null_home_shard():
    # NULL in an IN list matches NULL-keyed rows under eval_predicate's
    # `value in values`, so the home shard of None must stay live.
    db = _sharded_db(shards=4, compact=False)
    with db.begin() as txn:
        txn.insert("ev", {"id": 9999, "day": 1, "region": None, "qty": 1})
    oracle = _oracle_db()
    with oracle.begin() as txn:
        txn.insert("ev", {"id": 9999, "day": 1, "region": None, "qty": 1})
    sql = "SELECT * FROM ev WHERE region IN ('eu', NULL)"
    assert _canon(execute_sql(db, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False))


def test_equality_pruning_routes_numeric_like_sql():
    # day = 3 must find rows whether the stored value is 3 or 3.0.
    db = Database()
    db.create_table(TableSchema(
        "m", (Column("k", ColumnType.INT, nullable=False),
              Column("x", ColumnType.FLOAT)), primary_key="k"),
        shard_key="x", shard_count=8)
    with db.begin() as txn:
        txn.insert_many("m", [{"k": i, "x": float(i % 10)} for i in range(80)])
    db.exec_backend = SerialBackend()
    rows = execute_sql(db, "SELECT * FROM m WHERE x = 3")
    assert len(rows) == 8
    assert all(r["x"] == 3.0 for r in rows)


def test_index_point_lookup_still_wins_on_shard_key():
    # The PR 5 index fast path beats fan-out for point lookups: a hash
    # index on the shard key must keep planning as IndexLookup.
    db = _sharded_db(shards=4)
    db.create_index("ev", "id", "hash")
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM ev WHERE id = 42")
    assert any("IndexLookup" in l for l in lines), lines
    assert not any("ParallelScan" in l for l in lines), lines


def test_unsharded_or_backendless_tables_plan_serially():
    db = _sharded_db(shards=4)
    db.exec_backend = None
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM ev WHERE qty > 5")
    assert not any("Parallel" in l for l in lines), lines
    db2 = _oracle_db()
    db2.exec_backend = SerialBackend()
    lines = _plan_lines(db2, "EXPLAIN SELECT * FROM ev WHERE qty > 5")
    assert not any("Parallel" in l for l in lines), lines


# ------------------------------------------------- EXPLAIN ANALYZE actuals


def test_explain_analyze_sums_actuals_across_shards():
    db = _sharded_db(shards=4, n=600)
    spec = db._table("ev").shard_spec
    populated = len({spec.shard_of(r) for r in REGIONS})
    lines = _plan_lines(db, "EXPLAIN ANALYZE SELECT * FROM ev")
    [scan] = [l for l in lines if "ShardScan" in l]
    # Per-shard worker actuals are summed into ONE plan line: all 600
    # rows, one loop per shard that held data — not shard 0's share only.
    assert "actual rows=600" in scan, scan
    assert f"loops={populated}" in scan, scan
    [pscan] = [l for l in lines if "ParallelScan" in l]
    assert "actual rows=600" in pscan, pscan
    assert "shards=4/4 pruned=0" in pscan, pscan


def test_explain_analyze_never_executed_on_full_prune():
    db = _sharded_db(shards=4)
    # Contradictory equalities on the shard key prune every shard when
    # the two values route differently; pick such a pair explicitly.
    spec = db._table("ev").shard_spec
    a, b = REGIONS[0], next(r for r in REGIONS[1:]
                            if spec.shard_of(r) != spec.shard_of(REGIONS[0]))
    lines = _plan_lines(
        db, f"EXPLAIN ANALYZE SELECT * FROM ev "
            f"WHERE region = '{a}' AND region = '{b}'")
    [scan] = [l for l in lines if "ShardScan" in l]
    assert "(never executed)" in scan, scan
    [pscan] = [l for l in lines if "ParallelScan" in l]
    assert "shards=0/4 pruned=4" in pscan, pscan


def test_explain_analyze_null_equality_prunes_all_shards():
    db = _sharded_db(shards=4)
    lines = _plan_lines(
        db, "EXPLAIN ANALYZE SELECT * FROM ev WHERE region = NULL")
    [scan] = [l for l in lines if "ShardScan" in l]
    assert "(never executed)" in scan, scan


# ----------------------------------------------------- streaming / early exit


class _CountingBackend(SerialBackend):
    """Serial backend that records how many tasks actually executed."""

    def __init__(self):
        super().__init__()
        self.executed = 0
        self.submitted = 0

    def map_stream(self, fn, items, **options):
        items = list(items)
        self.submitted += len(items)
        inner = super().map_stream(fn, items, **options)

        def gen():
            for result in inner:
                self.executed += 1
                yield result
        return gen()


def test_limit_early_exit_does_not_materialize_all_chunks(monkeypatch):
    # Tiny chunks -> many tasks per shard; a bare LIMIT must abandon the
    # merge after a handful of chunks instead of scanning the table.
    monkeypatch.setattr(parallel, "CHUNK_TARGET_ROWS", 25)
    backend = _CountingBackend()
    db = _sharded_db(shards=4, n=1000, compact=False, backend=backend)
    rows = execute_sql(db, "SELECT * FROM ev LIMIT 5")
    assert len(rows) == 5
    assert backend.submitted >= 20  # plenty of chunks existed...
    assert backend.executed <= 8    # ...but only the head of each shard ran


def test_full_consumption_executes_every_chunk(monkeypatch):
    monkeypatch.setattr(parallel, "CHUNK_TARGET_ROWS", 25)
    backend = _CountingBackend()
    db = _sharded_db(shards=4, n=300, compact=False, backend=backend)
    oracle = _oracle_db(n=300)
    sql = "SELECT * FROM ev"
    assert _canon(execute_sql(db, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False))
    assert backend.executed == backend.submitted


# -------------------------------------------------------- parallel aggregate


def test_parallel_aggregate_matches_oracle_and_counts_plans():
    db = _sharded_db(shards=4)
    oracle = _oracle_db()
    registry = metrics.get_registry()
    before = registry.get("planner.plans.parallel_agg")
    for sql in [
        "SELECT count(*) FROM ev",
        "SELECT count(*), sum(qty), min(day), max(day) FROM ev",
        "SELECT region, count(*), sum(qty) FROM ev GROUP BY region",
        "SELECT day, count(*) FROM ev WHERE qty > 30 GROUP BY day",
    ]:
        assert _canon(execute_sql(db, sql)) == \
            _canon(execute_sql(oracle, sql, use_planner=False)), sql
    assert registry.get("planner.plans.parallel_agg") - before >= 4
    lines = _plan_lines(
        db, "EXPLAIN SELECT region, count(*) FROM ev GROUP BY region")
    assert any("ParallelAggregate" in l for l in lines), lines


def test_float_aggregates_fall_back_to_serial_fold():
    # FLOAT sums are non-associative: the parallel partial->final merge is
    # gated off and the serial fold runs over globally rid-ordered rows.
    db = Database()
    db.create_table(TableSchema(
        "f", (Column("k", ColumnType.INT, nullable=False),
              Column("grp", ColumnType.TEXT),
              Column("x", ColumnType.FLOAT)), primary_key="k"),
        shard_key="grp", shard_count=4)
    oracle = Database()
    oracle.create_table(TableSchema(
        "f", (Column("k", ColumnType.INT, nullable=False),
              Column("grp", ColumnType.TEXT),
              Column("x", ColumnType.FLOAT)), primary_key="k"))
    rows = [{"k": i, "grp": REGIONS[i % 5], "x": (i * 0.1) ** 2}
            for i in range(500)]
    for target in (db, oracle):
        with target.begin() as txn:
            txn.insert_many("f", rows)
        target.compact("f")
    db.exec_backend = SerialBackend()
    sql = "SELECT grp, sum(x), avg(x) FROM f GROUP BY grp"
    assert _canon(execute_sql(db, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False))
    lines = _plan_lines(db, f"EXPLAIN {sql}")
    assert not any("ParallelAggregate" in l for l in lines), lines
    assert any("ParallelScan" in l for l in lines), lines


# ------------------------------------------------------------ parallel join


def _join_pair(sharded):
    dbs = []
    for shard in (sharded, False):
        db = Database()
        users = TableSchema(
            "users", (Column("uid", ColumnType.INT, nullable=False),
                      Column("name", ColumnType.TEXT)), primary_key="uid")
        orders = TableSchema(
            "orders", (Column("oid", ColumnType.INT, nullable=False),
                       Column("uid", ColumnType.INT),
                       Column("total", ColumnType.INT)), primary_key="oid")
        if shard:
            db.create_table(users, shard_key="uid", shard_count=4)
            db.create_table(orders, shard_key="uid", shard_count=4)
        else:
            db.create_table(users)
            db.create_table(orders)
        with db.begin() as txn:
            txn.insert_many("users", [{"uid": i, "name": f"u{i}"}
                                      for i in range(200)])
            txn.insert_many("orders", [{"oid": i, "uid": i % 200,
                                        "total": i % 50}
                                       for i in range(800)])
        dbs.append(db)
    dbs[0].exec_backend = SerialBackend()
    return dbs


def test_co_partitioned_join_matches_oracle():
    db, oracle = _join_pair(sharded=True)
    sql = ("SELECT * FROM users JOIN orders ON users.uid = orders.uid "
           "WHERE orders.total > 40")
    assert _canon(execute_sql(db, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False))
    lines = _plan_lines(
        db, "EXPLAIN SELECT * FROM users JOIN orders "
            "ON users.uid = orders.uid")
    assert any("ParallelHashJoin" in l and "co-partitioned" in l
               for l in lines), lines


def test_broadcast_join_matches_oracle():
    db, oracle = _join_pair(sharded=True)
    # an unsharded side forces broadcast mode
    tiny = TableSchema(
        "tags", (Column("uid", ColumnType.INT, nullable=False),
                 Column("tag", ColumnType.TEXT)), primary_key="uid")
    for target, rows in ((db, True), (oracle, True)):
        target.create_table(tiny)
        with target.begin() as txn:
            txn.insert_many("tags", [{"uid": i, "tag": f"t{i}"}
                                     for i in range(0, 200, 20)])
    sql = "SELECT * FROM users JOIN tags ON users.uid = tags.uid"
    assert _canon(execute_sql(db, sql)) == \
        _canon(execute_sql(oracle, sql, use_planner=False))
    lines = _plan_lines(db, f"EXPLAIN {sql}")
    assert any("ParallelHashJoin" in l and "broadcast" in l
               for l in lines), lines


# ------------------------------------------------- full-tree EXPLAIN goldens


def _explain(db, sql):
    return _plan_lines(db, f"EXPLAIN {sql}")


def test_explain_golden_parallel_scan_unpruned_and_pruned():
    db = _sharded_db(shards=4)
    assert _explain(
        db, "SELECT * FROM ev WHERE qty > 50 AND (day < 3 OR qty < id)") == [
        "Project(*)",
        "  ParallelScan(ev, pred=qty > 50 AND (day < 3 OR qty < id), "
        "shards=4/4)  [rows~128 cost~601]",
        "    ShardScan(ev, shards=4/4 pruned=0)  [rows~128 cost~601]",
    ]
    assert _explain(
        db, "SELECT id, qty FROM ev WHERE region = 'eu' AND day < 10") == [
        "Project(id, qty)",
        "  ParallelScan(ev, pred=region = 'eu' AND day < 10, shards=1/4)"
        "  [rows~42 cost~24]",
        "    ShardScan(ev, shards=1/4 pruned=3)  [rows~42 cost~24]",
    ]
    assert _explain(
        db, "SELECT id, qty FROM ev WHERE region IN ('eu', 'us') "
            "ORDER BY qty DESC LIMIT 5") == [
        "TopK(key=qty, desc, k=5)",
        "  Project(id, qty)",
        "    ParallelScan(ev, pred=region IN ('eu', 'us'), shards=1/4)"
        "  [rows~240 cost~24]",
        "      ShardScan(ev, shards=1/4 pruned=3)  [rows~240 cost~24]",
    ]


def test_explain_golden_parallel_aggregate():
    db = _sharded_db(shards=4)
    assert _explain(
        db, "SELECT region, count(*), sum(qty) FROM ev WHERE day >= 5 "
            "GROUP BY region") == [
        "ParallelAggregate(group_by=[region], "
        "items=[region, count(*), sum(qty)])",
        "  ParallelScan(ev, pred=day >= 5, shards=4/4)  [rows~494 cost~47]",
        "    ShardScan(ev, shards=4/4 pruned=0)  [rows~494 cost~47]",
    ]
    assert _explain(db, "SELECT count(*), min(day), max(qty) FROM ev") == [
        "ParallelAggregate(group_by=[()], "
        "items=[count(*), min(day), max(qty)])",
        "  ParallelScan(ev, pred=TRUE, shards=4/4)  [rows~600 cost~47]",
        "    ShardScan(ev, shards=4/4 pruned=0)  [rows~600 cost~47]",
    ]


def test_explain_golden_float_gated_aggregate_over_parallel_scan():
    db = Database()
    db.create_table(TableSchema(
        "f", (Column("k", ColumnType.INT, nullable=False),
              Column("grp", ColumnType.TEXT),
              Column("x", ColumnType.FLOAT)), primary_key="k"),
        shard_key="grp", shard_count=4)
    with db.begin() as txn:
        txn.insert_many("f", [{"k": i, "grp": REGIONS[i % 5],
                               "x": (i * 0.1) ** 2} for i in range(500)])
    db.compact("f")
    db.exec_backend = SerialBackend()
    scan = ["  ParallelScan(f, pred=TRUE, shards=4/4)  [rows~500 cost~40]",
            "    ShardScan(f, shards=4/4 pruned=0)  [rows~500 cost~40]"]
    assert _explain(db, "SELECT grp, sum(x), avg(x) FROM f GROUP BY grp") == [
        "Aggregate(group_by=[grp], items=[grp, sum(x), avg(x)])", *scan]
    assert _explain(db, "SELECT x, count(*) FROM f GROUP BY x") == [
        "Aggregate(group_by=[x], items=[x, count(*)])", *scan]
    assert _explain(db, "SELECT min(x) FROM f WHERE k > 100") == [
        "Aggregate(group_by=[()], items=[min(x)])",
        "  ParallelScan(f, pred=k > 100, shards=4/4)  [rows~382 cost~40]",
        "    ShardScan(f, shards=4/4 pruned=0)  [rows~382 cost~40]",
    ]


def test_explain_golden_parallel_hash_join_co_partitioned_and_broadcast():
    db, _ = _join_pair(sharded=True)
    join = "SELECT * FROM users JOIN orders ON users.uid = orders.uid "
    assert _explain(db, join + "WHERE orders.total > 40") == [
        "Project(*)",
        "  ParallelHashJoin(users.uid = orders.uid, co-partitioned, "
        "shards=4/4)  [rows~141 cost~1343]",
        "    ShardScan(left=users, shards=4/4 pruned=0)  [rows~141 cost~0]",
        "    ShardScan(right=orders, shards=4/4 pruned=0)  [rows~141 cost~0]",
    ]
    assert _explain(
        db, join + "WHERE orders.total > 40 AND users.uid = 7") == [
        "Project(*)",
        "  ParallelHashJoin(users.uid = orders.uid, co-partitioned, "
        "shards=1/4)  [rows~1 cost~945]",
        "    ShardScan(left=users, shards=1/4 pruned=3)  [rows~1 cost~0]",
        "    ShardScan(right=orders, shards=1/4 pruned=3)  [rows~1 cost~0]",
    ]
    db.create_table(TableSchema(
        "tags", (Column("uid", ColumnType.INT, nullable=False),
                 Column("tag", ColumnType.TEXT)), primary_key="uid"))
    with db.begin() as txn:
        txn.insert_many("tags", [{"uid": i, "tag": f"t{i}"}
                                 for i in range(0, 200, 20)])
    assert _explain(
        db, "SELECT * FROM users JOIN tags ON users.uid = tags.uid "
            "WHERE tag != 't0' AND name LIKE 'u1%'") == [
        "Project(*)",
        "  ParallelHashJoin(users.uid = tags.uid, broadcast=right, "
        "shards=4/4)  [rows~2 cost~316]",
        "    ShardScan(left=users, shards=4/4 pruned=0)  [rows~2 cost~0]",
        "    PushedFilter(tag != 't0')  [rows~5 cost~10]",
        "      FullScan(tags)  [rows~10 cost~10]",
    ]
    assert _explain(
        db, "SELECT * FROM tags JOIN users ON users.uid = tags.uid") == [
        "Project(*)",
        "  ParallelHashJoin(tags.uid = users.uid, broadcast=left, "
        "shards=4/4)  [rows~10 cost~421]",
        "    ShardScan(right=users, shards=4/4 pruned=0)  [rows~10 cost~0]",
        "    FullScan(tags)  [rows~10 cost~10]",
    ]


# ------------------------------------------------------------ real backends


def test_process_backend_executes_sharded_plans():
    backend = ProcessPoolBackend(max_workers=2)
    try:
        db = _sharded_db(shards=4, n=400, backend=backend)
        oracle = _oracle_db(n=400)
        for sql in ["SELECT * FROM ev WHERE qty > 50",
                    "SELECT region, count(*), sum(qty) FROM ev "
                    "GROUP BY region"]:
            assert _canon(execute_sql(db, sql)) == \
                _canon(execute_sql(oracle, sql, use_planner=False)), sql
    finally:
        backend.close()


POOL_STATEMENTS = [
    "SELECT * FROM ev WHERE qty > 50",                         # filtered scan
    "SELECT region, count(*), sum(qty) FROM ev GROUP BY region",  # merged
    "SELECT * FROM ev LIMIT 7",                                # early exit
]


@pytest.mark.parametrize("pool", [ThreadPoolBackend, ProcessPoolBackend])
def test_a_pool_streams_sharded_plans_like_the_oracle(pool, monkeypatch):
    # 400 rows would run inline (total_rows * 2 <= CHUNK_TARGET_ROWS):
    # small chunks send every statement through the pool's map_stream
    monkeypatch.setattr(parallel, "CHUNK_TARGET_ROWS", 16)
    streams = []
    real_stream = pool.map_stream
    monkeypatch.setattr(pool, "map_stream", lambda self, fn, items, **kw: (
        streams.append(len(items)) or real_stream(self, fn, items, **kw)))
    backend = pool(max_workers=2)
    try:
        db = _sharded_db(shards=4, n=400, backend=backend)
        oracle = _oracle_db(n=400)
        for sql in POOL_STATEMENTS:
            assert _canon(execute_sql(db, sql)) == \
                _canon(execute_sql(oracle, sql, use_planner=False)), sql
    finally:
        backend.close()
    assert len(streams) == len(POOL_STATEMENTS) and min(streams) > 1


def test_the_simulated_cluster_streams_sharded_plans_like_the_oracle(
        monkeypatch):
    # the cluster is a backend like any other: the exchange runs each
    # statement's shard tasks as one simulated job over its inner backend
    monkeypatch.setattr(parallel, "CHUNK_TARGET_ROWS", 16)
    registry = metrics.MetricsRegistry()
    db = _sharded_db(shards=4, n=400, backend=SimulatedCluster())
    oracle = _oracle_db(n=400)
    with metrics.use_registry(registry):
        for sql in POOL_STATEMENTS:
            assert _canon(execute_sql(db, sql)) == \
                _canon(execute_sql(oracle, sql, use_planner=False)), sql
    assert registry.get("cluster.makespan") > 0


def test_a_worker_killed_mid_stream_costs_no_rows(monkeypatch):
    monkeypatch.setattr(parallel, "CHUNK_TARGET_ROWS", 16)
    real_stream = ProcessPoolBackend.map_stream
    killed = []

    def kill_after_first(self, fn, items, **options):
        stream = real_stream(self, fn, items, **options)
        yield next(stream)
        victim = next(iter(self._pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        killed.append(victim.pid)
        yield from stream

    monkeypatch.setattr(ProcessPoolBackend, "map_stream", kill_after_first)
    backend = ProcessPoolBackend(max_workers=2)
    registry = metrics.MetricsRegistry()
    try:
        # uncompacted: ~28 chunks, far more than the submit-ahead window
        db = _sharded_db(shards=4, n=400, compact=False, backend=backend)
        sql = POOL_STATEMENTS[0]
        with metrics.use_registry(registry):
            rows = execute_sql(db, sql)
    finally:
        backend.close()
    assert len(killed) == 1
    assert registry.get("backend.pool_rebuilds") >= 1  # the pool broke
    assert _canon(rows) == _canon(
        execute_sql(_oracle_db(n=400), sql, use_planner=False))


# ------------------------------------------------------------- persistence


def test_reshard_survives_crash_and_checkpoint(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_events_schema(), shard_key="region", shard_count=4)
    _load(db, 300)
    db.compact("ev")
    db.reshard("ev", "day", 8)
    expected = _canon(execute_sql(db, "SELECT * FROM ev WHERE day < 9",
                                  use_planner=False))
    # crash (no close): layout replays from the WAL
    db2 = Database(str(tmp_path))
    db2.exec_backend = SerialBackend()
    assert db2._table("ev").shard_spec == ShardSpec("day", 8)
    assert _canon(execute_sql(db2, "SELECT * FROM ev WHERE day < 9")) \
        == expected
    # checkpoint persists the spec + per-shard segment layout
    db2.compact("ev")
    db2.checkpoint()
    db2.close()
    db3 = Database(str(tmp_path))
    db3.exec_backend = SerialBackend()
    assert db3._table("ev").shard_spec == ShardSpec("day", 8)
    assert _canon(execute_sql(db3, "SELECT * FROM ev WHERE day < 9")) \
        == expected


def test_torn_reshard_wal_record_recovers_consistently(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_events_schema(), shard_key="region", shard_count=4)
    _load(db, 200)
    db.close()
    # crash mid-append of the reshard record: a torn JSON tail
    with open(tmp_path / "wal" / "seg-0000.jsonl", "a",
              encoding="utf-8") as f:
        f.write('{"lsn": 9999, "txn": 0, "type": "reshard", "table": "ev"')
    db2 = Database(str(tmp_path))
    db2.exec_backend = SerialBackend()
    # the torn record is dropped: the pre-reshard layout survives intact
    assert db2._table("ev").shard_spec == ShardSpec("region", 4)
    rows = execute_sql(db2, "SELECT count(*) FROM ev")
    assert rows[0]["count(*)"] == 200
    # and the reopened database still accepts a clean reshard
    db2.reshard("ev", "day", 2)
    db3 = Database(str(tmp_path))
    assert db3._table("ev").shard_spec == ShardSpec("day", 2)


def test_segment_layout_restores_per_shard(tmp_path):
    db = Database(str(tmp_path))
    db.create_table(_events_schema(), shard_key="region", shard_count=4)
    _load(db, 400)
    db.compact("ev")
    layout = db._table("ev").segment_layout()
    assert layout and all(len(entry) == 4 for entry in layout)
    shards = {entry[3] for entry in layout}
    assert len(shards) > 1  # segments are tagged per shard
    db.checkpoint()
    db.close()
    db2 = Database(str(tmp_path))
    assert db2._table("ev").segment_layout() == layout
