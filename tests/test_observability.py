"""Tests for query-level observability: EXPLAIN ANALYZE, the slow-query
log, cardinality feedback, Prometheus export, and the ``repro top`` /
``slowlog`` CLI surface."""

import json
import os
import re

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.core.system import StructureManagementSystem
from repro.storage.rdbms import sql as sqlmod
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.qcache import QueryResultCache
from repro.storage.rdbms.sql import SqlError, execute_sql, normalize_sql
from repro.telemetry import metrics
from repro.telemetry.feedback import CardinalityFeedback, q_error
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.report import (
    render_prometheus,
    render_report,
    render_top,
    summarize_trace,
)
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry.tracing import JsonlSpanExporter, Tracer
from tests.devices import on_both_devices

_ACTUAL = re.compile(r"actual rows=(\d+)")


@pytest.fixture
def db():
    """items (200 rows, indexed cat/score) joined against dims (8 rows)."""
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
    execute_sql(database,
                "CREATE TABLE dims (cat TEXT PRIMARY KEY, label TEXT)")
    dim_rows = ", ".join(f"('cat{i}', 'label{i}')" for i in range(8))
    execute_sql(database, f"INSERT INTO dims (cat, label) VALUES {dim_rows}")
    database.create_index("dims", "cat", "hash")
    return database


def _analyze(db, sql):
    return [r["plan"] for r in execute_sql(db, f"EXPLAIN ANALYZE {sql}")]


def _top_actual(lines):
    for line in lines:
        m = _ACTUAL.search(line)
        if m:
            return int(m.group(1))
    raise AssertionError(f"no actuals in {lines}")


# ------------------------------------------------------- EXPLAIN ANALYZE


QUERIES = [
    "SELECT * FROM items WHERE cat = 'cat3'",
    "SELECT * FROM items WHERE score >= 50 AND score < 70",
    "SELECT item_id, score FROM items ORDER BY score DESC LIMIT 5",
    "SELECT cat, COUNT(*) AS n FROM items WHERE score < 100 GROUP BY cat",
    "SELECT items.item_id, dims.label FROM items "
    "JOIN dims ON items.cat = dims.cat WHERE score < 20",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_analyze_actuals_match_naive_oracle(db, sql):
    oracle = execute_sql(db, sql, use_planner=False)
    lines = _analyze(db, sql)
    assert _top_actual(lines) == len(oracle)
    summary = [ln for ln in lines if ln.startswith("Execution: ")]
    assert summary and f"Execution: {len(oracle)} rows" in summary[0]


def test_analyze_annotates_every_executed_operator(db):
    lines = _analyze(db, "SELECT * FROM items WHERE cat = 'cat3'")
    lookup = [ln for ln in lines if "IndexLookup" in ln]
    assert lookup and "actual rows=25" in lookup[0]
    assert "loops=1" in lookup[0]
    assert "time=" in lookup[0]


def test_analyze_join_reports_per_operator_actuals(db):
    lines = _analyze(
        db, "SELECT items.item_id, dims.label FROM items "
            "JOIN dims ON items.cat = dims.cat WHERE score < 16")
    join = [ln for ln in lines
            if "HashJoin" in ln or "IndexNestedLoopJoin" in ln]
    assert join and _ACTUAL.search(join[0])
    if "IndexNestedLoopJoin" in join[0]:
        assert "probes=" in join[0]


def test_analyze_vector_path_reports_segments(db):
    db.compact("items")
    lines = _analyze(db, "SELECT cat, COUNT(*) AS n FROM items GROUP BY cat")
    vec = [ln for ln in lines if "VectorizedAggregate" in ln]
    assert vec and "segments=" in vec[0]
    # the SegmentScan is the aggregate's real child: it folds the segments
    # itself and reports them, along with the rows it fed the aggregate
    scan = [ln for ln in lines if "SegmentScan" in ln]
    assert scan and "actual rows=200 loops=1" in scan[0]
    assert "segments=" in scan[0]


def test_plain_explain_and_execution_carry_no_instrumentation(db):
    sql = "SELECT * FROM items WHERE cat = 'cat1'"
    _analyze(db, sql)  # profiling one statement...
    explain = [r["plan"] for r in execute_sql(db, f"EXPLAIN {sql}")]
    assert not any("actual" in ln for ln in explain)  # ...leaves no residue
    assert execute_sql(db, sql) == execute_sql(db, sql, use_planner=False)


def test_analyze_requires_select(db):
    with pytest.raises(SqlError):
        execute_sql(db, "EXPLAIN ANALYZE DELETE FROM items WHERE score < 5")


def test_analyze_increments_counter(db):
    registry = metrics.get_registry()
    before = registry.get("planner.explain_analyze")
    _analyze(db, "SELECT * FROM items WHERE cat = 'cat0'")
    assert registry.get("planner.explain_analyze") == before + 1


# --------------------------------------------------- cardinality feedback


def test_q_error_symmetric_and_floored():
    assert q_error(10, 100) == q_error(100, 10) == 10.0
    assert q_error(0, 0) == 1.0
    assert q_error(0, 50) == 50.0


def test_feedback_store_pending_and_cooldown():
    fb = CardinalityFeedback(ratio_threshold=4.0)
    assert fb.record("t", "c", "eq", est_rows=10, actual_rows=100, version=3)
    assert fb.pending("t") == ("c",)
    # already pending: the same misestimate does not re-trigger
    assert not fb.record("t", "c", "eq", 10, 100, 3)
    fb.resolve("t", ["c"], 3)
    assert fb.pending("t") == ()
    # resolved at this version: no re-trigger until the table changes
    assert not fb.record("t", "c", "eq", 10, 100, 3)
    assert fb.record("t", "c", "eq", 10, 100, 4)


def _skewed_db():
    database = Database()
    execute_sql(database,
                "CREATE TABLE ev (id INT PRIMARY KEY, kind TEXT)")

    def load(t):
        t.insert_many("ev", [
            {"id": i, "kind": f"k{i % 50}"} for i in range(2000)
        ])
    database.run(load)
    database.statistics().analyze("ev")
    # 15% drift: below the staleness refresh, invisible to cached stats
    database.run(lambda t: t.insert_many("ev", [
        {"id": 2000 + i, "kind": "hot"} for i in range(300)
    ]))
    return database


def _estimate(database, sql):
    for r in execute_sql(database, f"EXPLAIN {sql}"):
        m = re.search(r"rows~(\d+)", r["plan"])
        if m:
            return float(m.group(1))
    raise AssertionError("no estimate found")


def test_misestimate_triggers_targeted_reanalyze_and_corrects():
    database = _skewed_db()
    registry = metrics.get_registry()
    analyze_before = registry.get("planner.analyze.feedback")
    sql = "SELECT COUNT(*) AS n FROM ev WHERE kind = 'hot'"
    est_stale = _estimate(database, sql)
    actual = execute_sql(database, sql)[0]["n"]
    assert actual == 300
    assert q_error(est_stale, actual) > 4.0
    feedback = database.statistics().feedback
    entry = [e for e in feedback.entries() if e.column == "kind"][0]
    assert entry.misestimates >= 1 and entry.pending
    # the next plan consults stats(), which re-analyzes just 'kind'
    est_fixed = _estimate(database, sql)
    assert q_error(est_fixed, actual) <= 2.0
    assert registry.get("planner.analyze.feedback") == analyze_before + 1
    assert not [e for e in feedback.entries()
                if e.column == "kind" and e.pending]


def test_feedback_reanalyze_does_not_loop():
    database = _skewed_db()
    registry = metrics.get_registry()
    sql = "SELECT COUNT(*) AS n FROM ev WHERE kind = 'hot'"
    execute_sql(database, sql)
    database.statistics().stats("ev")  # targeted re-analyze happens here
    after_first = registry.get("planner.analyze.feedback")
    # repeated queries at the same table version must not re-analyze
    for _ in range(3):
        execute_sql(database, sql)
        database.statistics().stats("ev")
    assert registry.get("planner.analyze.feedback") == after_first


def test_mcv_distinguishes_hot_from_cold_values():
    database = _skewed_db()
    execute_sql(database, "SELECT COUNT(*) AS n FROM ev WHERE kind = 'hot'")
    stats = database.statistics().stats("ev")
    column = stats.column("kind")
    assert any(v == "hot" for v, _ in column.mcv)
    hot = column.eq_selectivity("hot")
    cold = column.eq_selectivity("k7")
    assert hot > 5 * cold
    # uniform columns keep an empty MCV list (no over-represented value)
    uniform = database.statistics().stats("ev").column("id")
    assert uniform.mcv == ()


def test_bare_limit_does_not_poison_feedback(db):
    """A LIMIT-truncated scan undercounts; it must not record feedback."""
    stats = db.statistics()
    before = len(stats.feedback.entries())
    execute_sql(db, "SELECT * FROM items WHERE score >= 0 LIMIT 3")
    assert len(stats.feedback.entries()) == before


def test_a_topk_walk_under_explain_analyze_records_no_feedback():
    """A top-k walk stops once it holds k survivors, like a bare LIMIT:
    its actual row count is truncated, so it is no observation."""
    database = Database()
    execute_sql(database, "CREATE TABLE ev (id INT PRIMARY KEY, kind TEXT, "
                          "score FLOAT)")
    database.run(lambda t: t.insert_many("ev", [
        {"id": i, "kind": f"k{i % 5}", "score": (i * 7919) % 3000 / 3.0}
        for i in range(3000)]))
    database.compact("ev")
    stats = database.statistics()
    stats.analyze("ev")
    registry = metrics.get_registry()
    observations = registry.get("planner.feedback.observations")
    lines = [r["plan"] for r in execute_sql(
        database, "EXPLAIN ANALYZE SELECT id, score FROM ev WHERE "
                  "kind = 'k2' AND score > 10 ORDER BY score DESC LIMIT 5")]
    assert "walk=score desc" in lines[2] and "actual rows=" in lines[2]
    assert registry.get("planner.feedback.observations") == observations
    assert stats.feedback.pending("ev") == ()


# ----------------------------------------------------------- slow queries
# The log tests that take ``root`` run on both devices (a directory, and
# memory for ``root=None``).  Directory-only: reopen across handles
# (persists and clears), torn bytes on disk (corrupt lines, append after a
# torn tail) and the older-layout refusal.


@on_both_devices
def test_slowlog_threshold_boundary(root, db):
    log = SlowQueryLog(root, threshold_seconds=0.5, annotate=False)
    assert not log.observe(db, "SELECT * FROM items", 0.49, 10)
    assert log.observe(db, "SELECT * FROM items", 0.5, 10)
    assert len(log.entries()) == 1


@on_both_devices
def test_slowlog_entry_carries_annotated_plan_and_versions(root, db):
    log = SlowQueryLog(root, threshold_seconds=0.0)
    log.observe(db, "select * from items where cat = 'cat2'", 1.25, 25)
    entry = log.entries()[0]
    assert entry["sql"] == "SELECT * FROM items WHERE cat = 'cat2'"
    assert entry["seconds"] == 1.25
    assert entry["stats_versions"]["items"] >= 0
    assert any("actual rows=25" in ln for ln in entry["plan"])
    assert entry["metrics_delta"]["planner.explain_analyze"] == 1


def test_slowlog_persists_and_clears(tmp_path, db):
    path = str(tmp_path / "slow")
    log = SlowQueryLog(path=path, threshold_seconds=0.0, annotate=False)
    log.observe(db, "SELECT COUNT(*) AS n FROM items", 2.0, 1)
    log.close()
    reopened = SlowQueryLog(path=path)
    assert len(reopened.entries()) == 1
    assert reopened.clear() == 1
    assert reopened.entries() == []
    assert not (tmp_path / "slow" / "seg-0000.jsonl").exists()


def test_slowlog_tolerates_corrupt_lines(tmp_path, db):
    path = str(tmp_path / "slow")
    log = SlowQueryLog(path=path, threshold_seconds=0.0, annotate=False)
    log.observe(db, "SELECT COUNT(*) AS n FROM items", 2.0, 1)
    log.close()
    with open(os.path.join(path, "seg-0000.jsonl"), "a",
              encoding="utf-8") as f:
        f.write("{not json\n")
    assert len(SlowQueryLog(path=path).entries()) == 1


def test_slowlog_append_after_a_torn_tail_is_kept(tmp_path, db):
    path = str(tmp_path / "slow")
    first, torn, after = (f"SELECT {f}(item_id) AS m FROM items"
                          for f in ("COUNT", "MAX", "MIN"))
    log = SlowQueryLog(path=path, threshold_seconds=0.0, annotate=False)
    log.observe(db, first, 2.0, 1)
    log.observe(db, torn, 2.0, 1)
    log.close()
    [file] = [os.path.join(d, name) for d, _, names in os.walk(tmp_path)
              for name in names]  # the one file the log wrote
    with open(file, "rb") as f:
        data = f.read()
    with open(file, "wb") as f:
        f.write(data[:-10])  # a crash mid-append of the second entry
    reopened = SlowQueryLog(path=path, threshold_seconds=0.0, annotate=False)
    reopened.observe(db, after, 2.0, 1)
    reopened.close()
    assert [e["sql"] for e in SlowQueryLog(path=path).entries()] == [
        normalize_sql(first), normalize_sql(after)]


def test_a_one_file_slowlog_is_refused(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "slowlog.jsonl").write_text('{"sql": "SELECT 1", "seconds": 2.0}\n')
    with pytest.raises(ValueError, match="slowlog.jsonl"):
        StructureManagementSystem(workspace=str(ws))


@on_both_devices
def test_qcache_observes_through_slowlog(root, db):
    log = SlowQueryLog(root, threshold_seconds=0.0, annotate=False)
    cache = QueryResultCache(db, slowlog=log)
    cache.execute("SELECT COUNT(*) AS n FROM items")
    cache.execute("SELECT COUNT(*) AS n FROM items")  # cache hit: also timed
    assert len(log.entries()) == 2


def test_a_captured_statement_is_lexed_once(db, monkeypatch):
    lexed, real = [], sqlmod._lex
    monkeypatch.setattr(sqlmod, "_lex", lambda sql, split=None: lexed.append(
        sql) or real(sql, split))
    text = "select * from items where cat = 'cat2'"
    entry = SlowQueryLog(threshold_seconds=0.0).capture(db, text, 1.0, 25)
    assert lexed == [text]
    assert entry["sql"] == "SELECT * FROM items WHERE cat = 'cat2'"
    assert any("actual rows=25" in line for line in entry["plan"])


def test_system_slow_queries_and_workspace_persistence(tmp_path):
    ws = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=ws, slow_query_seconds=0.0)
    system.query("SELECT COUNT(*) AS n FROM facts")
    entries = system.slow_queries()
    assert len(entries) == 1 and "plan" in entries[0]
    system.close()
    assert (tmp_path / "ws" / "slowlog" / "seg-0000.jsonl").exists()

    disabled = StructureManagementSystem(slow_query_seconds=None)
    disabled.query("SELECT COUNT(*) AS n FROM facts")
    assert disabled.slow_queries() == []
    disabled.close()


# ------------------------------------------------------------- rendering


def test_render_prometheus_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("rdbms.wal.bytes", 512)
    registry.set_gauge("pool.size", 4)
    registry.observe("op.seconds", 0.2, buckets=(0.1, 1.0))
    registry.observe("op.seconds", 5.0, buckets=(0.1, 1.0))
    text = registry.render_prometheus()
    assert "# TYPE repro_rdbms_wal_bytes_total counter" in text
    assert "repro_rdbms_wal_bytes_total 512" in text
    assert "repro_pool_size 4" in text
    assert 'repro_op_seconds_bucket{le="0.1"} 0' in text
    assert 'repro_op_seconds_bucket{le="1"} 1' in text
    assert 'repro_op_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_op_seconds_count 2" in text
    assert text.endswith("\n")


def test_render_prometheus_empty_snapshot():
    assert render_prometheus(None) == ""
    assert render_prometheus({}) == ""


def test_render_top_cumulative_and_delta():
    prev = {"counters": {"system.queries": 10.0, "planner.cache.hits": 4.0,
                         "planner.cache.misses": 6.0}}
    cur = {"counters": {"system.queries": 30.0, "planner.cache.hits": 14.0,
                        "planner.cache.misses": 6.0}}
    cumulative = render_top(None, cur)
    assert "cumulative" in cumulative and "queries" in cumulative
    frame = render_top(prev, cur, interval_seconds=2.0,
                       slow_entries=[{"sql": "SELECT 1", "seconds": 3.0}])
    assert "delta over 2.0s" in frame
    assert "10.0/s" in frame          # 20 queries over 2s
    assert "100.0%" in frame          # 10 hits / 0 misses in the delta
    assert "SELECT 1" in frame


def test_report_hit_rate_divide_by_zero_guard():
    # family present with zero lookups: the line prints, rate reads n/a
    summary = summarize_trace([])
    snapshot = {"counters": {"planner.cache.hits": 0.0,
                             "cache.evictions": 1.0,
                             "segments.rows_frozen": 10.0},
                "gauges": {}, "histograms": {}}
    text = render_report(summary, snapshot)
    assert "hit rate n/a" in text
    assert "query result cache: hits=0 misses=0 (hit rate n/a) " \
        "declined=0" in text
    assert "zone-map skip rate n/a" in text


def test_compaction_counts_the_rows_it_copies_beside_those_it_freezes():
    """A compaction that rewrites one segment copies its kept rows and
    encodes only the tail's; one whose output draws on two segments
    encodes every row.  ``rows_frozen`` counts both, ``rows_copied`` the
    copied ones, and the report prints them side by side."""
    db = Database()
    execute_sql(db, "CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
    db.run(lambda t: t.insert_many("t", [{"id": i, "v": i / 2}
                                         for i in range(100)]))
    db.compact("t", target_rows=50)
    registry = MetricsRegistry()
    with metrics.use_registry(registry):
        execute_sql(db, "UPDATE t SET v = 0.25 WHERE id = 7")
        execute_sql(db, "DELETE FROM t WHERE id = 60")
        db.compact("t", target_rows=50)  # each segment rewritten alone
        assert registry.get("segments.rows_frozen") == 99
        assert registry.get("segments.rows_copied") == 98
        execute_sql(db, "UPDATE t SET v = 0.75 WHERE id IN (1, 51)")
        db.compact("t", target_rows=200)  # one output of two segments
        assert registry.get("segments.rows_frozen") == 99 + 99
        assert registry.get("segments.rows_copied") == 98
    text = render_report(summarize_trace([]), registry.snapshot())
    assert "frozen_rows=198 copied_rows=98 " in text


def test_report_edge_cases_empty_single_bucket_disjoint_merge():
    # empty registry: render must not raise and still shows the header
    empty = render_report(summarize_trace([]), MetricsRegistry().snapshot())
    assert "spans: 0" in empty

    # single-bucket histogram round-trips through report and prometheus
    registry = MetricsRegistry()
    registry.observe("h.one", 0.5, buckets=(1.0,))
    text = render_report(summarize_trace([]), registry.snapshot())
    assert "h.one" in text
    prom = render_prometheus(registry.snapshot())
    assert 'repro_h_one_bucket{le="1"} 1' in prom

    # merging snapshots with disjoint counter sets keeps both families
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("only.a", 2)
    b.inc("only.b", 3)
    a.merge(b.snapshot())
    merged = a.snapshot()["counters"]
    assert merged == {"only.a": 2.0, "only.b": 3.0}
    assert "only.a" in render_report(summarize_trace([]), a.snapshot())


# ----------------------------------------------------------------- tracer


def test_span_exported_when_body_raises(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    exporter = JsonlSpanExporter(path)
    tracer = Tracer([exporter])
    with pytest.raises(RuntimeError):
        with tracer.span("rdbms.plan"):
            raise RuntimeError("killed mid-plan")
    exporter.flush()
    exporter.close()
    records = [json.loads(ln) for ln in open(path, encoding="utf-8")]
    assert len(records) == 1
    assert records[0]["name"] == "rdbms.plan"
    assert records[0]["status"] == "error"
    assert "killed mid-plan" in records[0]["error"]
    assert records[0]["end"] is not None


def test_query_killed_mid_plan_still_exports_span(tmp_path):
    path = str(tmp_path / "t.jsonl")
    session = telemetry.enable(jsonl_path=path)
    try:
        system = StructureManagementSystem(slow_query_seconds=None)
        with pytest.raises(SqlError):
            system.query("SELECT entity FROM facts WHERE")
        system.close()  # flushes the session's JSONL exporter
        with open(path, encoding="utf-8") as f:
            records = [json.loads(ln) for ln in f]
        errored = [r for r in records
                   if r.get("kind") == "span" and r["status"] == "error"]
        assert any(r["name"] == "system.query" for r in errored)
    finally:
        session.finish()
        telemetry.disable()


def test_jsonl_exporter_flush_safe_after_close(tmp_path):
    exporter = JsonlSpanExporter(str(tmp_path / "x.jsonl"))
    exporter.close()
    exporter.flush()  # must not raise


# -------------------------------------------------------------------- CLI


@pytest.fixture
def slow_workspace(tmp_path):
    ws = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=ws, slow_query_seconds=0.0)
    system.query("SELECT COUNT(*) AS n FROM facts")
    system.query("SELECT entity FROM facts WHERE attribute = 'x'")
    system.close()
    return ws


def test_cli_slowlog_list_show_clear(slow_workspace, capsys):
    assert cli_main(["--workspace", slow_workspace, "slowlog", "list"]) == 0
    out = capsys.readouterr().out
    assert "SELECT COUNT ( * ) AS n FROM facts" in out

    assert cli_main(["--workspace", slow_workspace, "slowlog", "show"]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out and "actual rows=" in out

    assert cli_main(["--workspace", slow_workspace,
                     "slowlog", "show", "99"]) == 2

    assert cli_main(["--workspace", slow_workspace, "slowlog", "clear"]) == 0
    capsys.readouterr()
    assert cli_main(["--workspace", slow_workspace, "slowlog", "list"]) == 0
    assert "empty" in capsys.readouterr().out


def test_cli_stats_prom_and_json(tmp_path, slow_workspace, capsys):
    telemetry_file = str(tmp_path / "tel.jsonl")
    assert cli_main(["--workspace", slow_workspace,
                     "--telemetry", telemetry_file,
                     "sql", "SELECT COUNT(*) AS n FROM facts"]) == 0
    capsys.readouterr()
    assert cli_main(["--workspace", slow_workspace, "stats",
                     telemetry_file, "--prom"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE repro_system_queries_total counter" in prom

    assert cli_main(["--workspace", slow_workspace, "stats",
                     telemetry_file, "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["counters"]["system.queries"] >= 1.0


def test_cli_top_renders_frame(tmp_path, slow_workspace, capsys):
    telemetry_file = str(tmp_path / "tel.jsonl")
    assert cli_main(["--workspace", slow_workspace,
                     "--telemetry", telemetry_file,
                     "sql", "SELECT COUNT(*) AS n FROM facts"]) == 0
    capsys.readouterr()
    assert cli_main(["--workspace", slow_workspace,
                     "top", telemetry_file]) == 0
    out = capsys.readouterr().out
    assert "repro top — cumulative" in out
    assert "slow-query tail:" in out  # the workspace slowlog rides along

    assert cli_main(["--workspace", slow_workspace,
                     "top", str(tmp_path / "missing.jsonl")]) == 1
