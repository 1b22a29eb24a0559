"""E18 — fault tolerance: injected faults, quarantine, and crash recovery.

The physical layer is best-effort by design ("IE is computation
intensive"), so the fault path must uphold the determinism contract, not
merely survive: with deterministic faults injected at 1% / 5% / 10% of
documents, a run's output rows are byte-identical to the fault-free run
minus exactly the quarantined (persistently failing) documents — and the
quarantined set equals the injector's prediction before the run starts.

Checked invariants (recorded as ``gates``; ``check_gates.py``
re-validates them, the timing one on full runs only):
  * at every fault rate, output rows == fault-free rows over the
    surviving documents, and the quarantined set == the injector's
    ``persistent_keys`` — inline and on the serial / thread / process
    backends (transient faults heal via per-document retry on all of
    them);
  * the retry machinery costs < 5% wall-clock on a fault-free run
    (min-of-N, retry-wrapped vs fail-fast execution of the same corpus);
  * crash recovery loses no committed transactions: a WAL with a
    multi-record corrupt suffix replays every committed row and counts
    the dropped tail in ``recovery.truncated_records``; a disk
    extraction cache with a flipped byte skips the damaged entry, counts
    it in ``cache.corrupt_entries``, and a re-run regenerates
    byte-identical rows.

Run standalone (writes ``results/BENCH_e18.json``)::

    PYTHONPATH=src python benchmarks/bench_e18_fault_tolerance.py
    PYTHONPATH=src python benchmarks/bench_e18_fault_tolerance.py --smoke

or via pytest: ``pytest benchmarks/bench_e18_fault_tolerance.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from _tables import assert_gates, gate, write_table

from repro.cache.store import LRUExtractionCache
from repro.cluster.backends import make_backend
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.faults import FaultInjector, FaultyExtractor
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.telemetry.metrics import MetricsRegistry, use_registry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e18.json")
PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
FAULT_RATES = (0.01, 0.05, 0.10)
SEED = 18


def _corpus(num_docs: int) -> list[Document]:
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_docs, seed=17, styles=("infobox",))
    )
    return list(corpus)


def _registry(extractor) -> OperatorRegistry:
    registry = OperatorRegistry()
    registry.register_extractor("infobox", extractor)
    return registry


def _run(docs, extractor, backend=None, fail_fast=False):
    """One isolated executor run (fresh ambient registry)."""
    with use_registry(MetricsRegistry()):
        return run_program(PROGRAM, docs, _registry(extractor),
                           optimize=False, backend=backend,
                           fail_fast=fail_fast)


# ------------------------------------------------------------ fault sweep


def bench_fault_sweep(num_docs: int, backends=(None, "serial", "thread",
                                               "process")) -> list[dict]:
    """Inject faults at each rate; record, per backend, whether the
    output and the quarantined set are what the injector predicts."""
    corpus = _corpus(num_docs)
    doc_ids = [d.doc_id for d in corpus]
    out = []
    for rate in FAULT_RATES:
        injector = FaultInjector(mode="error", rate=rate,
                                 persistent_share=0.5, seed=SEED)
        predicted_poison = injector.persistent_keys(doc_ids)
        predicted_transient = injector.faulted_keys(doc_ids) \
            - predicted_poison
        survivors = [d for d in corpus if d.doc_id not in predicted_poison]
        baseline = _run(survivors, InfoboxExtractor())
        identical: dict[str, bool] = {}
        for spec in backends:
            faulty = FaultyExtractor(InfoboxExtractor(),
                                     FaultInjector(mode="error", rate=rate,
                                                   persistent_share=0.5,
                                                   seed=SEED))
            backend = make_backend(spec, max_workers=3)
            try:
                result = _run(corpus, faulty, backend=backend)
            finally:
                if backend is not None:
                    backend.close()
            quarantined = {f["doc_id"] for f in result.failed_docs}
            identical[spec or "inline"] = (
                quarantined == predicted_poison
                and result.rows == baseline.rows)
        out.append({
            "num_docs": num_docs,
            "fault_rate": rate,
            "faulted_docs": len(predicted_poison) + len(predicted_transient),
            "transient_docs": len(predicted_transient),
            "quarantined_docs": len(predicted_poison),
            "identical": identical,
            "backends_identical": all(identical.values()),
        })
    return out


# ---------------------------------------------------------- retry overhead


def bench_retry_overhead(num_docs: int, repeats: int) -> dict:
    """Fault-free cost of the retry machinery (min-of-N, inline)."""
    corpus = _corpus(num_docs)
    plain_times, retry_times = [], []
    identical = True
    for _ in range(repeats):
        started = time.perf_counter()
        plain = _run(corpus, InfoboxExtractor(), fail_fast=True)
        plain_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        retried = _run(corpus, InfoboxExtractor())
        retry_times.append(time.perf_counter() - started)
        identical &= retried.rows == plain.rows and not retried.failed_docs
    plain_s, retry_s = min(plain_times), min(retry_times)
    return {
        "num_docs": num_docs,
        "repeats": repeats,
        "fail_fast_seconds": plain_s,
        "retry_seconds": retry_s,
        "overhead": retry_s / plain_s - 1.0 if plain_s > 0 else 0.0,
        "rows_identical": identical,
    }


# ---------------------------------------------------------- crash recovery


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        (Column("id", ColumnType.INT, nullable=False),
         Column("value", ColumnType.TEXT)),
        primary_key="id",
    )


def bench_crash_recovery(base_dir: str, num_txns: int = 50) -> dict:
    """Commit work, damage the trailing log, reopen, verify nothing lost."""
    wal_dir = os.path.join(base_dir, "crash_db")
    db = Database(wal_dir)
    db.create_table(_schema())
    for i in range(num_txns):
        db.run(lambda t, i=i: t.insert("t", {"id": i, "value": f"v{i}"}))
    db.close()
    # a crash mid-burst: garbage, a wrong-shape record, and a torn write
    with open(os.path.join(wal_dir, "wal", "seg-0000.jsonl"), "a",
              encoding="utf-8") as f:
        f.write("GARBAGE NOT JSON\n")
        f.write('{"no_id_key": true}\n')
        f.write('{"id": 99999, "txn": 9, "type": "ins')
    registry = MetricsRegistry()
    with use_registry(registry):
        recovered = Database(wal_dir)
    rows = recovered.run(lambda t: t.scan("t"))
    truncated = registry.get("recovery.truncated_records")

    # extraction cache: flip a byte in a stored entry, reopen, re-run
    corpus = _corpus(24)
    baseline = _run(corpus, InfoboxExtractor())
    cache_root = os.path.join(base_dir, "crash_cache")
    cache = LRUExtractionCache(cache_root)
    with use_registry(MetricsRegistry()):
        run_program(PROGRAM, corpus, _registry(InfoboxExtractor()),
                    optimize=False, cache=cache)
    cache.close()
    segment = os.path.join(
        cache_root,
        sorted(n for n in os.listdir(cache_root) if n.endswith(".jsonl"))[0],
    )
    with open(segment, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    victim = lines[len(lines) // 2]
    injector = FaultInjector(mode="corrupt", seed=SEED)
    for attempt in range(32):  # find a flip that breaks the JSON, not a value
        mutated = injector.corrupt(victim, key=f"flip-{attempt}")
        try:
            json.loads(mutated.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            break
    lines[len(lines) // 2] = mutated
    with open(segment, "wb") as f:
        f.write(b"".join(lines))

    registry = MetricsRegistry()
    with use_registry(registry):
        reopened = LRUExtractionCache(cache_root)
        result = run_program(PROGRAM, corpus, _registry(InfoboxExtractor()),
                             optimize=False, cache=reopened)
    assert reopened.corrupt_entries >= 1, "flipped byte went unnoticed"
    assert registry.get("cache.corrupt_entries") >= 1
    cache_misses = registry.get("cache.misses")
    assert 1 <= cache_misses < len(corpus), \
        "only the damaged entry should be regenerated"
    reopened.close()
    return {
        "committed_txns": num_txns,
        "txns_recovered": len(rows),
        "recovered_ids_exact": sorted(r.values["id"] for r in rows)
        == list(range(num_txns)),
        "wal_truncated_records": truncated,
        "cache_corrupt_entries": reopened.corrupt_entries,
        "cache_regenerated_docs": cache_misses,
        "rows_identical_after_recovery": result.rows == baseline.rows,
    }


# ------------------------------------------------------------------ driver


def run_bench(num_docs: int = 300, repeats: int = 5,
              max_overhead: float = 0.05, smoke: bool = False) -> dict:
    """Run all three benches, print/persist tables, emit BENCH_e18.json."""
    sweep = bench_fault_sweep(num_docs)
    overhead = bench_retry_overhead(num_docs, repeats)
    with tempfile.TemporaryDirectory(prefix="bench_e18_") as base_dir:
        recovery = bench_crash_recovery(base_dir)

    write_table(
        "e18_fault_sweep",
        f"E18: injected faults vs quarantine ({num_docs} pages, "
        f"inline + serial/thread/process identical)",
        ["fault rate", "faulted docs", "healed (transient)",
         "quarantined (poison)"],
        [[s["fault_rate"], s["faulted_docs"], s["transient_docs"],
          s["quarantined_docs"]] for s in sweep],
    )
    write_table(
        "e18_retry_overhead",
        f"E18: fault-free retry overhead ({num_docs} pages, min of "
        f"{overhead['repeats']})",
        ["variant", "seconds", "overhead"],
        [["fail-fast (no retry)", overhead["fail_fast_seconds"], 0.0],
         ["retry-wrapped", overhead["retry_seconds"],
          overhead["overhead"]]],
    )

    # identity and recovery hold at any size; the wall-clock gate is left
    # out of --smoke, which times a single tiny run
    gates = [gate(f"output_identical:{s['fault_rate']}@{label}", int(flag),
                  "==", 1)
             for s in sweep for label, flag in s["identical"].items()]
    gates.append(gate("fault_free_retry_rows_identical",
                      int(overhead["rows_identical"]), "==", 1))
    if not smoke:
        gates.append(gate("fault_free_retry_overhead", overhead["overhead"],
                          "<", max_overhead))
    gates += [
        gate("committed_txns_recovered", recovery["txns_recovered"], "==",
             recovery["committed_txns"]),
        gate("recovered_ids_exact", int(recovery["recovered_ids_exact"]),
             "==", 1),
        gate("wal_truncated_records", recovery["wal_truncated_records"],
             "==", 3),
        gate("rows_identical_after_cache_damage",
             int(recovery["rows_identical_after_recovery"]), "==", 1)]
    payload = {
        "experiment": "e18_fault_tolerance",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "max_overhead": max_overhead,
        "fault_sweep": sweep,
        "retry_overhead": overhead,
        "crash_recovery": recovery,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e18_smoke(tmp_path):
    """Small-scale E18: identity + recovery invariants; no timing gate."""
    sweep = bench_fault_sweep(num_docs=40, backends=(None, "serial"))
    assert any(s["quarantined_docs"] > 0 for s in sweep)
    assert all(s["backends_identical"] for s in sweep)
    recovery = bench_crash_recovery(str(tmp_path), num_txns=10)
    assert recovery["txns_recovered"] == 10
    assert recovery["recovered_ids_exact"]
    assert recovery["wal_truncated_records"] == 3
    assert recovery["rows_identical_after_recovery"]


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=300,
                        help="city pages in the corpus")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats (min is reported)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="acceptance bar: fault-free retry overhead")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no timing assertion")
    args = parser.parse_args(argv)
    if args.smoke:
        args.docs = min(args.docs, 40)
        args.repeats = 1
    payload = run_bench(num_docs=args.docs, repeats=args.repeats,
                        max_overhead=args.max_overhead, smoke=args.smoke)
    ten = next(s for s in payload["fault_sweep"] if s["fault_rate"] == 0.10)
    print(f"at 10% faults: {ten['transient_docs']} healed, "
          f"{ten['quarantined_docs']} quarantined, output identical; "
          f"fault-free retry overhead "
          f"{payload['retry_overhead']['overhead']:.1%} "
          f"(bar {payload['max_overhead']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
