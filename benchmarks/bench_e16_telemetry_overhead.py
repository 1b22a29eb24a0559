"""E16 — telemetry overhead and cross-backend determinism.

Instrumentation is only acceptable if it is effectively free when you need
the numbers and invisible when you don't: spans and metrics run through
the whole pipeline (system -> executor -> mapreduce -> rdbms), so this
bench measures the end-to-end ingest+generate+query pipeline twice — with
telemetry off (the default no-op tracer) and with telemetry fully on
(spans streamed to a JSONL file plus the metrics snapshot) — and gates on
the relative overhead.

Checked invariants (recorded as ``gates``; ``check_gates.py``
re-validates them):
  * sorted query output is byte-identical with telemetry on and off, in
    every repeat of the overhead workload;
  * with telemetry enabled, sorted query output and the WAL record count
    are identical across the serial / thread / process execution
    backends (enabling observability must not perturb the determinism
    contract);
  * min-of-N wall-clock overhead of full telemetry is < 10% (full runs
    only: ``--smoke`` times too little to judge);
  * the instrumented run actually produced a span tree and a metrics
    snapshot covering all four layers (no silently-disabled telemetry).

Run standalone (writes ``results/BENCH_e16.json``)::

    PYTHONPATH=src python benchmarks/bench_e16_telemetry_overhead.py
    PYTHONPATH=src python benchmarks/bench_e16_telemetry_overhead.py --smoke

or via pytest: ``pytest benchmarks/bench_e16_telemetry_overhead.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from _tables import assert_gates, gate, write_table

from repro import telemetry
from repro.cluster.backends import make_backend
from repro.cluster.simulator import SimulatedCluster
from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.telemetry.metrics import MetricsRegistry, use_registry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e16.json")
PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
QUERY = ("SELECT entity, attribute, value_text, value_num, confidence "
         "FROM facts")


def _canonical(rows: list[dict]) -> bytes:
    """Byte-stable form of a query result set (sorted, key-ordered)."""
    return json.dumps(sorted(rows, key=lambda r: json.dumps(r, sort_keys=True)),
                      sort_keys=True).encode("utf-8")


def _run_pipeline(docs, workspace: str, backend: str | None = None):
    """One full ingest -> generate -> query run in a fresh workspace."""
    system = StructureManagementSystem(
        workspace=workspace,
        backend=SimulatedCluster(backend=make_backend(backend)))
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(docs)
    report = system.generate(PROGRAM)
    rows = system.query(QUERY)
    system.close()
    return report, rows


def _timed_run(docs, base_dir: str, tag: str, instrumented: bool):
    """Time one pipeline run; returns (seconds, rows, spans, snapshot)."""
    workspace = os.path.join(base_dir, tag)
    registry = MetricsRegistry()
    spans, snapshot = [], None
    with use_registry(registry):
        if instrumented:
            session = telemetry.enable(
                jsonl_path=os.path.join(base_dir, f"{tag}.jsonl"))
            try:
                started = time.perf_counter()
                _, rows = _run_pipeline(docs, workspace)
                seconds = time.perf_counter() - started
                spans = session.spans()
                snapshot = session.finish()
            finally:
                telemetry.disable()
        else:
            started = time.perf_counter()
            _, rows = _run_pipeline(docs, workspace)
            seconds = time.perf_counter() - started
    return seconds, rows, spans, snapshot


def bench_overhead(num_docs: int, repeats: int, base_dir: str) -> dict:
    """Min-of-N pipeline time with telemetry off vs fully on."""
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_docs, seed=16, styles=("infobox",))
    )
    docs = list(corpus)
    plain_times: list[float] = []
    instrumented_times: list[float] = []
    spans, snapshot = [], None
    identical = True
    for i in range(repeats):
        seconds, plain_rows, _, _ = _timed_run(docs, base_dir, f"plain{i}",
                                               instrumented=False)
        plain_times.append(seconds)
        seconds, rows, spans, snapshot = _timed_run(
            docs, base_dir, f"tel{i}", instrumented=True)
        instrumented_times.append(seconds)
        identical &= _canonical(rows) == _canonical(plain_rows)

    # telemetry must have actually recorded the pipeline
    span_names = {s.name for s in spans}
    assert "system.generate" in span_names, "no system root span recorded"
    assert any(n.startswith("executor.op.") for n in span_names)
    assert any(n.startswith("mapreduce.") for n in span_names)
    assert "rdbms.txn" in span_names
    counters = snapshot["counters"]
    assert counters["rdbms.wal.records"] > 0
    assert counters["mapreduce.shuffle.bytes"] > 0
    assert any(n.startswith("executor.rows.") for n in counters)

    baseline = min(plain_times)
    instrumented = min(instrumented_times)
    return {
        "num_docs": num_docs,
        "repeats": repeats,
        "baseline_seconds": baseline,
        "instrumented_seconds": instrumented,
        "overhead_fraction": (instrumented - baseline) / baseline,
        "telemetry_on_identical": identical,
        "span_count": len(spans),
        "metric_count": len(counters),
    }


def bench_determinism(num_docs: int, workers: int, base_dir: str) -> dict:
    """Query output must be byte-identical per backend, telemetry on."""
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_docs, seed=61, styles=("infobox",))
    )
    docs = list(corpus)
    outputs: dict[str, bytes] = {}
    wal_records: dict[str, float] = {}
    for spec in ("serial", "thread", "process"):
        registry = MetricsRegistry()
        with use_registry(registry):
            session = telemetry.enable(
                jsonl_path=os.path.join(base_dir, f"det_{spec}.jsonl"))
            try:
                _, rows = _run_pipeline(
                    docs, os.path.join(base_dir, f"det_{spec}"), backend=spec)
                session.finish()
            finally:
                telemetry.disable()
        outputs[spec] = _canonical(rows)
        wal_records[spec] = registry.get("rdbms.wal.records")

    return {
        "num_docs": num_docs,
        "workers": workers,
        "output_bytes": len(outputs["serial"]),
        "outputs_identical": len(set(outputs.values())) == 1,
        "wal_records_identical": len(set(wal_records.values())) == 1,
    }


def run_bench(num_docs: int = 200, repeats: int = 5,
              det_docs: int = 60, workers: int = 2,
              max_overhead: float = 0.10, smoke: bool = False) -> dict:
    """Run both benches, print/persist tables, emit BENCH_e16.json."""
    with tempfile.TemporaryDirectory(prefix="bench_e16_") as base_dir:
        overhead = bench_overhead(num_docs, repeats, base_dir)
        determinism = bench_determinism(det_docs, workers, base_dir)

    write_table(
        "e16_telemetry_overhead",
        f"E16: pipeline wall-clock, telemetry off vs on "
        f"({num_docs} pages, min of {repeats})",
        ["variant", "seconds", "overhead"],
        [["telemetry off", overhead["baseline_seconds"], 0.0],
         ["telemetry on", overhead["instrumented_seconds"],
          overhead["overhead_fraction"]]],
    )

    # identity holds at any size; the wall-clock gate is left out of
    # --smoke, which times a few tiny runs
    gates = [gate(name, int(flag), "==", 1) for name, flag in (
        ("output_identical_telemetry_on_vs_off",
         overhead["telemetry_on_identical"]),
        ("backend_outputs_identical", determinism["outputs_identical"]),
        ("backend_wal_records_identical",
         determinism["wal_records_identical"]))]
    if not smoke:
        gates.append(gate("telemetry_overhead_fraction",
                          overhead["overhead_fraction"], "<", max_overhead))
    payload = {
        "experiment": "e16_telemetry_overhead",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "max_overhead_fraction": max_overhead,
        "overhead": overhead,
        "determinism": determinism,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e16_smoke(tmp_path):
    """Small-scale E16: telemetry records, determinism holds; no gate."""
    overhead = bench_overhead(num_docs=20, repeats=1, base_dir=str(tmp_path))
    assert overhead["span_count"] > 0
    assert overhead["telemetry_on_identical"]
    determinism = bench_determinism(num_docs=12, workers=2,
                                    base_dir=str(tmp_path))
    assert determinism["outputs_identical"]
    assert determinism["wal_records_identical"]


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=200,
                        help="city pages in the overhead workload")
    parser.add_argument("--repeats", type=int, default=5,
                        help="repeats per variant (min is reported)")
    parser.add_argument("--det-docs", type=int, default=60,
                        help="city pages in the determinism workload")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-overhead", type=float, default=0.10,
                        help="acceptance bar on the overhead fraction")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no overhead assertion")
    args = parser.parse_args(argv)
    if args.smoke:
        args.docs = min(args.docs, 30)
        args.det_docs = min(args.det_docs, 12)
        args.repeats = min(args.repeats, 2)
    payload = run_bench(num_docs=args.docs, repeats=args.repeats,
                        det_docs=args.det_docs, workers=args.workers,
                        max_overhead=args.max_overhead, smoke=args.smoke)
    print(f"telemetry overhead "
          f"{payload['overhead']['overhead_fraction']:.1%} "
          f"({payload['overhead']['span_count']} spans, "
          f"{payload['overhead']['metric_count']} counters); "
          f"backend outputs identical: "
          f"{payload['determinism']['outputs_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
