"""Tests for the cost-based planner: plan selection, EXPLAIN goldens,
and index-assisted UPDATE/DELETE."""

import pytest

from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.planner import (
    Filter,
    Planner,
    conjoin,
    split_conjuncts,
)
from repro.storage.rdbms.sql import (
    SqlError,
    execute_sql,
    normalize_sql,
    parse_sql,
)
from repro.telemetry import metrics


@pytest.fixture
def db():
    """items (200 rows, hash index on cat, sorted index on score) joined
    against dims (8 rows, indexed pk-like cat column)."""
    database = Database()
    execute_sql(
        database,
        "CREATE TABLE items (item_id INT PRIMARY KEY, cat TEXT, score INT)",
    )
    rows = ", ".join(f"({i}, 'cat{i % 8}', {i})" for i in range(200))
    execute_sql(database,
                f"INSERT INTO items (item_id, cat, score) VALUES {rows}")
    database.create_index("items", "cat", "hash")
    database.create_index("items", "score", "sorted")
    execute_sql(
        database,
        "CREATE TABLE dims (cat TEXT PRIMARY KEY, label TEXT)",
    )
    dim_rows = ", ".join(f"('cat{i}', 'label{i}')" for i in range(8))
    execute_sql(database, f"INSERT INTO dims (cat, label) VALUES {dim_rows}")
    database.create_index("dims", "cat", "hash")
    return database


def _plan_lines(db, sql):
    """EXPLAIN output with the volatile [rows~ cost~] suffixes stripped."""
    return [r["plan"].split("  [")[0] for r in execute_sql(db, sql)]


# ------------------------------------------------------------ access paths


def test_index_lookup_chosen_for_indexed_equality(db):
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM items WHERE cat = 'cat3'")
    assert lines == [
        "Project(*)",
        "  IndexLookup(items.cat = 'cat3' via hash index)",
    ]


def test_range_scan_chosen_for_sorted_index(db):
    lines = _plan_lines(
        db, "EXPLAIN SELECT * FROM items WHERE score >= 10 AND score < 20")
    assert lines == [
        "Project(*)",
        "  RangeScan(items.score in [10, 20) via sorted index)",
    ]


def test_full_scan_when_no_index_applies(db):
    lines = _plan_lines(
        db, "EXPLAIN SELECT * FROM items WHERE item_id != 5")
    assert lines == [
        "Project(*)",
        "  Filter(item_id != 5)",
        "    FullScan(items)",
    ]


def test_residual_filter_on_top_of_index_lookup(db):
    lines = _plan_lines(
        db,
        "EXPLAIN SELECT * FROM items WHERE cat = 'cat3' AND item_id > 100")
    # The equality is consumed by the index; the inequality could also run
    # as a range scan, but the cat lookup is more selective (1/8 vs 1/2).
    assert lines == [
        "Project(*)",
        "  Filter(item_id > 100)",
        "    IndexLookup(items.cat = 'cat3' via hash index)",
    ]


def test_null_equality_is_not_an_access_path(db):
    # col = NULL matches nothing in the evaluator; probing the index with
    # None would be wrong (indexes skip NULLs but the residual must run).
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM items WHERE cat = NULL")
    assert lines[1].startswith("  Filter(")
    assert lines[2] == "    FullScan(items)"


def test_topk_wrapper_for_order_by_limit(db):
    lines = _plan_lines(
        db, "EXPLAIN SELECT * FROM items ORDER BY score DESC LIMIT 5")
    assert lines[0] == "TopK(key=score, desc, k=5)"
    registry = metrics.get_registry()
    assert registry.get("planner.plans.topk") >= 1


def test_sort_and_limit_wrappers_without_topk(db):
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM items ORDER BY score")
    assert lines[0] == "Sort(key=score, asc)"
    lines = _plan_lines(db, "EXPLAIN SELECT * FROM items LIMIT 3")
    assert lines[0] == "Limit(3)"


# -------------------------------------------------------------------- joins


def test_hash_join_builds_on_smaller_side(db):
    lines = _plan_lines(
        db,
        "EXPLAIN SELECT items.item_id, dims.label FROM items "
        "JOIN dims ON items.cat = dims.cat WHERE score < 0",
    )
    # With the selective score predicate pushed to the left side, the
    # left input is estimated smaller than dims -> build=left.
    joined = "\n".join(lines)
    assert "HashJoin" in joined or "IndexNestedLoopJoin" in joined


def test_inlj_chosen_with_selective_outer_and_indexed_inner(db):
    lines = _plan_lines(
        db,
        "EXPLAIN SELECT items.item_id, dims.label FROM items "
        "JOIN dims ON items.cat = dims.cat WHERE label = 'label3'",
    )
    joined = "\n".join(lines)
    assert "IndexNestedLoopJoin" in joined
    assert "inner=items via hash index" in joined
    assert "PushedFilter(dims.label = 'label3')" in joined \
        or "label = 'label3'" in joined


def test_join_predicate_pushdown_per_side(db):
    lines = _plan_lines(
        db,
        "EXPLAIN SELECT items.item_id, dims.label FROM items "
        "JOIN dims ON items.cat = dims.cat "
        "WHERE score >= 10 AND score < 20 AND label LIKE 'label%'",
    )
    joined = "\n".join(lines)
    # left-side range conjuncts became the left access path...
    assert "RangeScan(items.score in [10, 20) via sorted index)" in joined
    # ...and the right-side LIKE was pushed below the join.
    assert "label LIKE 'label%'" in joined
    registry = metrics.get_registry()
    assert registry.get("planner.conjuncts.pushed") >= 3


def test_join_results_match_naive(db):
    for sql in [
        "SELECT items.item_id, dims.label FROM items "
        "JOIN dims ON items.cat = dims.cat WHERE label = 'label3'",
        "SELECT items.item_id, dims.label FROM items "
        "JOIN dims ON items.cat = dims.cat "
        "WHERE score >= 10 AND score < 40 ORDER BY item_id DESC LIMIT 7",
        "SELECT cat, COUNT(*) AS n FROM items "
        "JOIN dims ON items.cat = dims.cat GROUP BY cat",
    ]:
        assert execute_sql(db, sql) == \
            execute_sql(db, sql, use_planner=False), sql


# -------------------------------------------------- planner-executed DML


def test_update_uses_index_access_path(db):
    registry = metrics.get_registry()
    before = registry.get("rdbms.index.lookups")
    rows = execute_sql(
        db, "UPDATE items SET score = 0 WHERE cat = 'cat2'")
    assert rows == [{"updated": 25}]
    assert registry.get("rdbms.index.lookups") > before
    assert execute_sql(
        db, "SELECT COUNT(*) AS n FROM items WHERE cat = 'cat2' "
            "AND score = 0")[0]["n"] == 25


def test_delete_uses_range_scan(db):
    registry = metrics.get_registry()
    before = registry.get("rdbms.index.range_scans")
    rows = execute_sql(db, "DELETE FROM items WHERE score >= 190")
    assert rows == [{"deleted": 10}]
    assert registry.get("rdbms.index.range_scans") > before
    assert execute_sql(db, "SELECT COUNT(*) AS n FROM items")[0]["n"] == 190


def test_update_delete_match_naive_semantics():
    def build():
        database = Database()
        execute_sql(database,
                    "CREATE TABLE t (k INT PRIMARY KEY, v TEXT, n INT)")
        execute_sql(database,
                    "INSERT INTO t (k, v, n) VALUES "
                    "(1, 'a', 10), (2, 'b', 20), (3, 'a', 30), (4, NULL, 40)")
        database.create_index("t", "v", "hash")
        return database

    planner_db, naive_db = build(), build()
    for sql in [
        "UPDATE t SET n = 99 WHERE v = 'a' AND n > 15",
        "DELETE FROM t WHERE v IS NULL",
        "UPDATE t SET v = 'z' WHERE n <= 20",
    ]:
        assert execute_sql(planner_db, sql) == \
            execute_sql(naive_db, sql, use_planner=False)
    assert execute_sql(planner_db, "SELECT * FROM t") == \
        execute_sql(naive_db, "SELECT * FROM t", use_planner=False)


# ---------------------------------------------------------------- plumbing


def test_split_and_conjoin_roundtrip():
    stmt = parse_sql("SELECT * FROM t WHERE a = 1 AND b = 2 AND c > 3")
    conjuncts = split_conjuncts(stmt.where)
    assert len(conjuncts) == 3
    assert split_conjuncts(conjoin(conjuncts)) == conjuncts
    assert conjoin([]) is None
    assert conjoin(conjuncts[:1]) is conjuncts[0]


def test_or_predicate_is_a_single_conjunct(db):
    lines = _plan_lines(
        db, "EXPLAIN SELECT * FROM items WHERE cat = 'cat1' OR cat = 'cat2'")
    # An OR cannot be consumed by a single index probe: residual filter
    # over a full scan.
    assert lines[1].startswith("  Filter(")
    assert lines[2] == "    FullScan(items)"


def test_explain_rejects_non_select(db):
    with pytest.raises(SqlError):
        execute_sql(db, "EXPLAIN DELETE FROM items")


def test_explain_does_not_execute(db):
    before = execute_sql(db, "SELECT COUNT(*) AS n FROM items")[0]["n"]
    execute_sql(db, "EXPLAIN SELECT * FROM items WHERE cat = 'cat0'")
    assert execute_sql(db, "SELECT COUNT(*) AS n FROM items")[0]["n"] == before


def test_normalize_sql_canonicalizes():
    a = normalize_sql("select  *\nfrom items   where cat='x'")
    b = normalize_sql("SELECT * FROM items WHERE cat = 'x'")
    assert a == b
    assert normalize_sql("SELECT 1.5 FROM t") != normalize_sql(
        "SELECT 15 FROM t")


def test_access_path_estimates_present(db):
    planner = Planner(db)
    stmt = parse_sql("SELECT * FROM items WHERE cat = 'cat1'")
    node = planner.plan_select(stmt).source
    assert not isinstance(node, Filter)  # no residual conjunct
    assert node.est_rows == pytest.approx(25.0, rel=0.3)
    assert node.cost < 200  # cheaper than the 200-row full scan
