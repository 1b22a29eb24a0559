"""E15 — real parallel execution backends + batched fact writes.

Paper anchor: Section 4, physical layer — "IE and II are often very
computation intensive ... we need parallel processing in the physical
layer."  E7 measures the *simulated* cluster (makespan shape vs worker
count); E15 measures the *real* thing: wall-clock time of the same
extraction pipeline on the serial / thread-pool / process-pool execution
backends, plus the batched ``insert_many`` write path vs the old
one-transaction-per-fact loop.

The extraction workload models the full fetch+extract task: each document
costs a small simulated fetch wait (the raw snapshot store / network read
that dominates real crawling pipelines) plus real CPU parsing.  The wait is
what thread/process pools overlap, so speedups are honest wall-clock
numbers even on small CI machines; the pure-CPU component parallelizes
across cores only on multi-core hosts.

Checked invariants (the determinism contract):
  * sorted output rows are byte-identical across serial/thread/process;
  * a transaction is one WAL record: the per-row loop writes one per
    fact, the batched path one per batch (both plus the three DDL
    records), and the batched path is at least 2x faster — recorded as
    machine-readable ``gates``, ``--smoke`` included.

Run standalone (writes ``results/BENCH_e15.json``)::

    PYTHONPATH=src python benchmarks/bench_e15_parallel_backend.py
    PYTHONPATH=src python benchmarks/bench_e15_parallel_backend.py --smoke

or via pytest: ``pytest benchmarks/bench_e15_parallel_backend.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

from _tables import assert_gates, gate, write_table

from repro.cluster.backends import make_backend
from repro.core.system import facts_schema
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.base import Extraction, Extractor
from repro.extraction.infobox import InfoboxExtractor
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry
from repro.storage.rdbms.engine import Database

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e15.json")
PROGRAM = 'p = docs()\nf = extract(p, "city")\noutput f'


@dataclass
class FetchingInfoboxExtractor(Extractor):
    """Infobox extraction preceded by a simulated per-document fetch wait.

    Module-level and picklable so the process backend can ship it to
    workers.  ``io_wait`` models reading the page from the raw snapshot
    store / network — the component pools overlap.
    """

    io_wait: float = 0.0
    inner: InfoboxExtractor = field(default_factory=InfoboxExtractor)
    name: str = "fetching-infobox"
    cost_per_char: float = 0.3

    def extract(self, doc: Document) -> list[Extraction]:
        if self.io_wait > 0.0:
            time.sleep(self.io_wait)
        return self.inner.extract(doc)


def _canonical(rows: list[dict]) -> bytes:
    """Byte-stable form of an output row set (sorted, key-ordered)."""
    return json.dumps(sorted(rows, key=lambda r: json.dumps(r, sort_keys=True)),
                      sort_keys=True).encode("utf-8")


def bench_extraction(num_docs: int, workers: int, io_wait: float) -> dict:
    """Time the extraction pipeline on each backend; verify equal output."""
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_docs, seed=15, styles=("infobox",))
    )
    docs = list(corpus)
    registry = OperatorRegistry()
    registry.register_extractor("city", FetchingInfoboxExtractor(io_wait=io_wait))

    timings: dict[str, float] = {}
    outputs: dict[str, bytes] = {}
    row_counts: dict[str, int] = {}
    for spec in ("serial", "thread", "process"):
        with make_backend(spec, max_workers=workers) as backend:
            started = time.perf_counter()
            result = run_program(PROGRAM, docs, registry, optimize=False,
                                 backend=backend)
            timings[spec] = time.perf_counter() - started
        outputs[spec] = _canonical(result.rows)
        row_counts[spec] = len(result.rows)

    assert outputs["thread"] == outputs["serial"], \
        "thread backend output differs from serial"
    assert outputs["process"] == outputs["serial"], \
        "process backend output differs from serial"

    return {
        "num_docs": num_docs,
        "workers": workers,
        "io_wait_per_doc": io_wait,
        "rows": row_counts["serial"],
        "seconds": timings,
        "speedup": {
            spec: timings["serial"] / timings[spec]
            for spec in ("thread", "process")
        },
        "outputs_identical": True,
    }


def bench_insert(num_facts: int, batch_size: int, base_dir: str) -> dict:
    """Per-row transaction loop vs batched insert_many, WAL-backed."""
    def fact(i: int) -> dict:
        return {
            "fact_id": i,
            "entity": f"City-{i % 97}",
            "attribute": f"attr_{i % 13}",
            "value_text": None,
            "value_num": float(i % 120),
            "confidence": 0.9,
            "doc_id": f"doc-{i % 97}",
        }

    facts = [fact(i) for i in range(num_facts)]

    per_row_db = Database(os.path.join(base_dir, "per_row"))
    per_row_db.create_table(facts_schema())
    per_row_db.create_index("facts", "entity")
    per_row_db.create_index("facts", "attribute")
    started = time.perf_counter()
    for values in facts:
        per_row_db.run(lambda t, v=values: t.insert("facts", v))
    per_row_seconds = time.perf_counter() - started
    per_row_wal = sum(1 for _ in per_row_db._wal.records())
    per_row_db.close()

    batched_db = Database(os.path.join(base_dir, "batched"))
    batched_db.create_table(facts_schema())
    batched_db.create_index("facts", "entity")
    batched_db.create_index("facts", "attribute")
    started = time.perf_counter()
    for lo in range(0, num_facts, batch_size):
        chunk = facts[lo : lo + batch_size]
        batched_db.run(lambda t, c=chunk: t.insert_many("facts", c))
    batched_seconds = time.perf_counter() - started
    batched_wal = sum(1 for _ in batched_db._wal.records())
    stored = batched_db.table_size("facts")
    batched_db.close()

    assert stored == num_facts

    return {
        "num_facts": num_facts,
        "batch_size": batch_size,
        "num_batches": (num_facts + batch_size - 1) // batch_size,
        "ddl_records": 3,  # create_table + two create_index, on each side
        "per_row": {"seconds": per_row_seconds, "wal_records": per_row_wal},
        "batched": {"seconds": batched_seconds, "wal_records": batched_wal},
        "speedup": per_row_seconds / batched_seconds,
        "wal_record_ratio": per_row_wal / batched_wal,
    }


def run_bench(num_docs: int = 2000, num_facts: int = 5000, workers: int = 4,
              io_wait: float = 0.002, batch_size: int = 1000,
              smoke: bool = False) -> dict:
    """Run both benches, print/persist tables, emit BENCH_e15.json."""
    extraction = bench_extraction(num_docs, workers, io_wait)
    with tempfile.TemporaryDirectory(prefix="bench_e15_") as base_dir:
        insert = bench_insert(num_facts, batch_size, base_dir)

    serial_s = extraction["seconds"]["serial"]
    write_table(
        "e15_parallel_backend",
        f"E15: extraction wall-clock by backend "
        f"({num_docs} pages, {workers} workers, "
        f"{io_wait * 1000:.1f}ms simulated fetch/page)",
        ["backend", "seconds", "speedup vs serial"],
        [[spec, extraction["seconds"][spec],
          serial_s / extraction["seconds"][spec]]
         for spec in ("serial", "thread", "process")],
    )
    write_table(
        "e15b_batched_inserts",
        f"E15b: {num_facts} fact inserts — per-row transactions vs "
        f"insert_many batches of {batch_size}",
        ["variant", "seconds", "WAL records"],
        [["per-row", insert["per_row"]["seconds"],
          insert["per_row"]["wal_records"]],
         ["batched", insert["batched"]["seconds"],
          insert["batched"]["wal_records"]]],
    )

    gates = [
        gate("batched_insert_speedup", insert["speedup"], ">=", 2.0),
        gate("per_row_wal_records_minus_facts_and_ddl",
             insert["per_row"]["wal_records"]
             - insert["num_facts"] - insert["ddl_records"], "==", 0),
        gate("batched_wal_records_minus_batches_and_ddl",
             insert["batched"]["wal_records"]
             - insert["num_batches"] - insert["ddl_records"], "==", 0),
    ]
    payload = {
        "experiment": "e15_parallel_backend",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "extraction": extraction,
        "batched_inserts": insert,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    if not smoke:
        assert extraction["speedup"]["process"] >= 2.0, (
            f"process backend speedup {extraction['speedup']['process']:.2f} "
            f"below the 2x acceptance bar"
        )
        assert extraction["speedup"]["thread"] >= 2.0, (
            f"thread backend speedup {extraction['speedup']['thread']:.2f} "
            f"below the 2x acceptance bar"
        )
    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e15_smoke(benchmark, tmp_path):
    """Small-scale E15: equality invariants hold; speedups reported only."""
    extraction = bench_extraction(num_docs=60, workers=2, io_wait=0.001)
    assert extraction["outputs_identical"]
    insert = bench_insert(num_facts=300, batch_size=100, base_dir=str(tmp_path))
    assert insert["batched"]["wal_records"] < insert["per_row"]["wal_records"]
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=12, seed=15, styles=("infobox",))
    )
    docs = list(corpus)
    registry = OperatorRegistry()
    registry.register_extractor("city", FetchingInfoboxExtractor())
    benchmark(lambda: run_program(PROGRAM, docs, registry, optimize=False,
                                  backend="thread"))


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=2000,
                        help="city pages in the extraction workload")
    parser.add_argument("--facts", type=int, default=5000,
                        help="facts in the insert workload")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--io-wait", type=float, default=0.002,
                        help="simulated fetch seconds per document")
    parser.add_argument("--batch-size", type=int, default=1000)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no speedup assertions")
    args = parser.parse_args(argv)
    if args.smoke:
        args.docs, args.facts = min(args.docs, 120), min(args.facts, 400)
    payload = run_bench(num_docs=args.docs, num_facts=args.facts,
                        workers=args.workers, io_wait=args.io_wait,
                        batch_size=args.batch_size, smoke=args.smoke)
    speedups = payload["extraction"]["speedup"]
    print(f"thread speedup {speedups['thread']:.2f}x, "
          f"process speedup {speedups['process']:.2f}x, "
          f"insert batch speedup "
          f"{payload['batched_inserts']['speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
