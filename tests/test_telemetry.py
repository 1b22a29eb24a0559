"""Tests for the telemetry subsystem: metrics, tracing, reports, e2e."""

import json
import threading

import pytest

from repro import telemetry
from repro.cluster.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
)
from repro.cluster.simulator import SimulatedCluster
from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.telemetry.metrics import (
    MetricsRegistry,
    get_registry,
    global_registry,
    use_registry,
)
from repro.telemetry.report import (
    layer_of,
    load_telemetry,
    render_report,
    summarize_trace,
)
from repro.telemetry.tracing import (
    InMemorySpanExporter,
    JsonlSpanExporter,
    Span,
    Tracer,
)


def _metered_payload(x):
    """Module-level (picklable) payload that records metrics."""
    registry = get_registry()
    registry.inc("test.calls")
    registry.inc("test.sum", x)
    registry.observe("test.values", x, buckets=(10, 100, 1000))
    return x * 2


# ----------------------------------------------------------------- registry


def test_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("a.b")
    registry.inc("a.b", 2)
    registry.set_gauge("g", 1.5)
    registry.set_gauge("g", 2.5)
    registry.observe("h", 3.0, buckets=(1, 5, 10))
    registry.observe("h", 7.0)
    assert registry.get("a.b") == 3
    assert registry.get("missing") == 0.0
    assert registry.gauge("g") == 2.5
    hist = registry.histogram("h")
    assert hist["count"] == 2 and hist["sum"] == 10.0
    assert hist["min"] == 3.0 and hist["max"] == 7.0
    assert hist["counts"] == [0, 1, 1, 0]  # <=1, <=5, <=10, overflow


def test_labeled_returns_counter_semantics():
    registry = MetricsRegistry()
    registry.inc("executor.rows.f", 4)
    registry.inc("executor.rows.g", 2)
    registry.inc("executor.rowsextra", 9)  # not under the dotted prefix
    rows = registry.labeled("executor.rows")
    assert rows == {"f": 4, "g": 2}
    assert rows["never_seen"] == 0  # Counter: missing keys read as zero


def test_merge_rules():
    left = MetricsRegistry()
    right = MetricsRegistry()
    left.inc("c", 1)
    right.inc("c", 2)
    left.set_gauge("g", 1.0)
    right.set_gauge("g", 9.0)
    left.observe("h", 1.0, buckets=(2, 4))
    right.observe("h", 3.0, buckets=(2, 4))
    left.merge(right)
    assert left.get("c") == 3  # counters add
    assert left.gauge("g") == 9.0  # gauges: incoming wins
    hist = left.histogram("h")
    assert hist["count"] == 2 and hist["counts"] == [1, 1, 0]
    assert hist["min"] == 1.0 and hist["max"] == 3.0


def test_merge_rejects_bucket_mismatch():
    left = MetricsRegistry()
    right = MetricsRegistry()
    left.observe("h", 1.0, buckets=(1, 2))
    right.observe("h", 1.0, buckets=(5, 6))
    with pytest.raises(ValueError):
        left.merge(right)


def test_merge_accepts_snapshot_dict_round_trip():
    source = MetricsRegistry()
    source.inc("n", 5)
    source.observe("h", 2.0, buckets=(1, 10))
    snapshot = json.loads(json.dumps(source.snapshot()))  # wire round-trip
    target = MetricsRegistry()
    target.merge(snapshot)
    assert target.get("n") == 5
    assert target.histogram("h")["count"] == 1


def test_ambient_registry_is_per_thread():
    override = MetricsRegistry()
    seen_in_thread = []

    def worker():
        seen_in_thread.append(get_registry())

    with use_registry(override):
        assert get_registry() is override
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert get_registry() is global_registry()
    # the override was installed on the main thread only
    assert seen_in_thread == [global_registry()]


# ------------------------------------------------- backend merge determinism


def _run_backend(backend, items):
    registry = MetricsRegistry()
    with use_registry(registry):
        with backend:
            results = backend.map(_metered_payload, items)
    return results, registry.snapshot()


def test_metric_totals_identical_across_backends():
    items = list(range(40))
    serial_out, serial_snap = _run_backend(SerialBackend(), items)
    thread_out, thread_snap = _run_backend(
        ThreadPoolBackend(max_workers=4), items)
    process_out, process_snap = _run_backend(
        ProcessPoolBackend(max_workers=2), items)
    assert serial_out == thread_out == process_out == [x * 2 for x in items]
    assert serial_snap == thread_snap == process_snap
    assert serial_snap["counters"]["test.calls"] == 40
    assert serial_snap["counters"]["test.sum"] == sum(items)
    assert serial_snap["histograms"]["test.values"]["count"] == 40


# ------------------------------------------------------------------ tracing


def test_span_nesting_and_export_order():
    memory = InMemorySpanExporter()
    tracer = Tracer([memory])
    with tracer.span("outer", kind="root") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner"):
                pass
        with tracer.span("sibling"):
            pass
    names = [s.name for s in memory.spans]
    assert names == ["inner", "middle", "sibling", "outer"]  # finish order
    by_name = {s.name: s for s in memory.spans}
    assert by_name["outer"].parent_id is None
    assert by_name["middle"].parent_id == outer.span_id
    assert by_name["inner"].parent_id == middle.span_id
    assert by_name["sibling"].parent_id == outer.span_id
    assert len({s.trace_id for s in memory.spans}) == 1
    assert by_name["outer"].attributes == {"kind": "root"}
    assert all(s.end >= s.start for s in memory.spans)


def test_span_error_status_propagates():
    memory = InMemorySpanExporter()
    tracer = Tracer([memory])
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("kaput")
    span = memory.spans[0]
    assert span.status == "error"
    assert "kaput" in span.error
    assert span.end is not None  # finished despite the exception


def test_separate_roots_get_separate_traces():
    memory = InMemorySpanExporter()
    tracer = Tracer([memory])
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    assert memory.spans[0].trace_id != memory.spans[1].trace_id


def test_jsonl_export_round_trip(tmp_path):
    path = str(tmp_path / "tel.jsonl")
    exporter = JsonlSpanExporter(path)
    tracer = Tracer([exporter])
    with tracer.span("a", n=1):
        with tracer.span("b"):
            pass
    registry = MetricsRegistry()
    registry.inc("x.y", 7)
    exporter.export_metrics(registry.snapshot())
    exporter.close()

    spans, snapshot = load_telemetry(path)
    assert [s.name for s in spans] == ["b", "a"]
    assert isinstance(spans[0], Span)
    assert spans[0].parent_id == spans[1].span_id
    assert spans[1].attributes == {"n": 1}
    assert snapshot["counters"]["x.y"] == 7


# ------------------------------------------------------------------ reports


def test_layer_mapping():
    assert layer_of("system.generate") == "user"
    assert layer_of("executor.op.extract") == "processing"
    assert layer_of("mapreduce.wave.map") == "cluster"
    assert layer_of("rdbms.txn") == "storage"


def test_summarize_trace_self_time_and_top_spans():
    spans = [
        Span("system.generate", "t1", "s1", None, start=0.0, end=10.0),
        Span("executor.plan", "t1", "s2", "s1", start=1.0, end=9.0),
        Span("rdbms.txn", "t1", "s3", "s2", start=2.0, end=5.0),
    ]
    summary = summarize_trace(spans, top_k=2)
    assert summary["span_count"] == 3
    assert summary["trace_count"] == 1
    assert summary["top_spans"][0]["name"] == "system.generate"
    layers = summary["layer_seconds"]
    # self time: generate 10-8=2, plan 8-3=5, txn 3
    assert layers["user"] == pytest.approx(2.0)
    assert layers["processing"] == pytest.approx(5.0)
    assert layers["storage"] == pytest.approx(3.0)
    text = render_report(summary)
    assert "system.generate" in text and "per-layer" in text


# -------------------------------------------------------------- end-to-end


def test_end_to_end_span_tree_and_metrics(tmp_path):
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=6, seed=42, styles=("infobox",))
    )
    registry = MetricsRegistry()
    path = str(tmp_path / "tel.jsonl")
    with use_registry(registry):
        session = telemetry.enable(jsonl_path=path)
        try:
            system = StructureManagementSystem(
                workspace=str(tmp_path / "ws"), backend=SimulatedCluster()
            )
            system.registry.register_extractor("infobox", InfoboxExtractor())
            system.ingest(corpus)
            report = system.generate(
                'p = docs()\nf = extract(p, "infobox")\noutput f'
            )
            rows = system.query(
                "SELECT entity FROM facts WHERE attribute = 'sep_temp'"
            )
            system.close()
            spans = session.spans()
            snapshot = session.finish()
        finally:
            telemetry.disable()

    assert report.facts_stored > 0 and len(rows) == len(truth)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    # coherent tree: system root -> executor plan -> extract op ->
    # mapreduce job -> waves; rdbms txns nested somewhere below the root
    generate_span = by_name["system.generate"][0]
    assert generate_span.parent_id is None
    assert generate_span.attributes["facts_stored"] == report.facts_stored
    plan_span = by_name["executor.plan"][0]
    extract_span = by_name["executor.op.extract"][0]
    job_span = by_name["mapreduce.job"][0]
    map_wave = by_name["mapreduce.wave.map"][0]
    parents = {s.span_id: s.parent_id for group in by_name.values()
               for s in group}
    def ancestors(span):
        seen = []
        current = span.parent_id
        while current is not None:
            seen.append(current)
            current = parents.get(current)
        return seen
    assert generate_span.span_id in ancestors(plan_span)
    assert plan_span.span_id in ancestors(extract_span)
    assert extract_span.span_id in ancestors(job_span)
    assert job_span.span_id == map_wave.parent_id
    assert any(generate_span.span_id in ancestors(s)
               for s in by_name["rdbms.txn"])
    assert all(s.trace_id == generate_span.trace_id
               for s in (plan_span, extract_span, job_span, map_wave))
    # per-task spans exist while tracing is on
    assert any(name.startswith("mapreduce.task.") for name in by_name)

    # metrics snapshot covers all four layers
    counters = snapshot["counters"]
    assert counters["rdbms.wal.records"] > 0
    assert counters["executor.rows.f"] > 0
    assert counters["mapreduce.shuffle.bytes"] > 0
    assert counters["system.facts.stored"] == report.facts_stored

    # the JSONL file carries the same story
    file_spans, file_snapshot = load_telemetry(path)
    assert {s.span_id for s in file_spans} == {s.span_id for s in spans}
    assert file_snapshot["counters"]["rdbms.wal.records"] \
        == counters["rdbms.wal.records"]
    summary = summarize_trace(file_spans)
    assert summary["span_count"] == len(spans)
    assert set(summary["layer_seconds"]) >= {"user", "processing", "storage"}


def test_enable_twice_raises_and_disable_is_idempotent(tmp_path):
    session = telemetry.enable()
    try:
        with pytest.raises(RuntimeError):
            telemetry.enable()
    finally:
        telemetry.disable()
    telemetry.disable()  # idempotent
    assert telemetry.current_session() is None
    assert session.spans() == []
