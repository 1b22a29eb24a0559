"""E17 — extraction cache: warm-vs-cold cost over churned corpora.

The DGE workload is a re-crawl loop: each snapshot changes a small
fraction of pages, yet an uncached ``generate()`` re-extracts everything.
This bench primes a persistent on-disk cache on day-0, churns the corpus
at several rates (1% / 10% / 30% via ``datagen.churn``), and measures the
warm re-run against a cold (uncached) run of the same snapshot.

Checked invariants:
  * warm wall-clock after 10% churn is >= 3x faster than cold
    (min-of-N, each repeat against a freshly primed cache);
  * warm work is *exactly* the churn: ``chars_scanned`` on a warm run
    equals the summed text length of the documents whose text changed —
    at every churn rate and at two corpus sizes (so warm cost provably
    scales with the churn fraction, not the corpus size);
  * output rows are byte-identical cached vs uncached, across the
    serial / thread / process backends, on the simulated-cluster path,
    and across a disk-cache close/reopen (which must then hit on every
    document).

The three are recorded as a ``gates`` list in the result file (the
wall-clock one only by a full run), for ``check_gates.py``.

Run standalone (writes ``results/BENCH_e17.json``)::

    PYTHONPATH=src python benchmarks/bench_e17_cache_churn.py
    PYTHONPATH=src python benchmarks/bench_e17_cache_churn.py --smoke

or via pytest: ``pytest benchmarks/bench_e17_cache_churn.py``.
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
from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.datagen.churn import churn_corpus
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry
from repro.telemetry.metrics import MetricsRegistry, use_registry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e17.json")
PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
CHURN_RATES = (0.01, 0.10, 0.30)


def _registry() -> OperatorRegistry:
    registry = OperatorRegistry()
    registry.register_extractor("infobox", InfoboxExtractor())
    return registry


def _corpus(num_docs: int) -> list[Document]:
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_docs, seed=17, styles=("infobox",))
    )
    return list(corpus)


def _churn(day0: list[Document], rate: float, seed: int) -> list[Document]:
    """Churn ~``rate`` of the *documents*.

    ``churn_corpus``'s ``change_fraction`` is a per-line edit fraction
    whose per-document change probability is 3x itself; dividing by 3
    makes the sweep's rates mean "this share of pages changed since the
    last crawl", which is the axis the cache's work should track.
    """
    return list(churn_corpus(day0, change_fraction=rate / 3.0, seed=seed))


def _changed_chars(day0: list[Document], day1: list[Document]) -> tuple[int, int]:
    """(changed doc count, summed text length of changed docs)."""
    before = {d.doc_id: d.text for d in day0}
    changed = [d for d in day1 if d.text != before[d.doc_id]]
    return len(changed), sum(len(d.text) for d in changed)


def _run(docs, cache=None, backend=None):
    """One isolated executor run (fresh ambient registry)."""
    with use_registry(MetricsRegistry()):
        return run_program(PROGRAM, docs, _registry(), cache=cache,
                           backend=backend)


def bench_churn_sweep(num_docs: int, base_dir: str) -> list[dict]:
    """Warm work vs churn rate; gates warm chars == churned chars."""
    day0 = _corpus(num_docs)
    cold = _run(day0)
    cold_chars = cold.stats.total_chars_scanned
    out = []
    for rate in CHURN_RATES:
        cache = LRUExtractionCache(
            os.path.join(base_dir, f"sweep_{num_docs}_{int(rate * 100)}"))
        primed = _run(day0, cache=cache)
        assert primed.rows == cold.rows, "cached cold run changed output"
        day1 = _churn(day0, rate, seed=170)
        changed_docs, changed_chars = _changed_chars(day0, day1)

        warm = _run(day1, cache=cache)
        uncached = _run(day1)
        assert warm.rows == uncached.rows, \
            f"warm output differs from uncached at churn {rate}"
        assert warm.stats.cache_misses == changed_docs
        assert warm.stats.cache_hits == num_docs - changed_docs
        # The central scaling gate: warm work is exactly the churned text.
        assert warm.stats.total_chars_scanned == changed_chars, (
            f"warm run scanned {warm.stats.total_chars_scanned} chars, "
            f"churn only touched {changed_chars}"
        )
        cache.close()
        out.append({
            "num_docs": num_docs,
            "churn_rate": rate,
            "changed_docs": changed_docs,
            "changed_chars": changed_chars,
            "cold_chars": cold_chars,
            "warm_chars": warm.stats.total_chars_scanned,
            "warm_work_fraction": warm.stats.total_chars_scanned / cold_chars,
        })
    return out


def bench_speedup(num_docs: int, repeats: int, churn_rate: float,
                  base_dir: str) -> dict:
    """Min-of-N warm vs cold wall-clock at the given churn rate."""
    day0 = _corpus(num_docs)
    day1 = _churn(day0, churn_rate, seed=171)
    cold_times, warm_times = [], []
    for i in range(repeats):
        started = time.perf_counter()
        cold = _run(day1)
        cold_times.append(time.perf_counter() - started)

        cache = LRUExtractionCache(os.path.join(base_dir, f"speed{i}"))
        _run(day0, cache=cache)  # prime on day-0 (not timed)
        started = time.perf_counter()
        warm = _run(day1, cache=cache)
        warm_times.append(time.perf_counter() - started)
        cache.close()
        assert warm.rows == cold.rows, "warm output differs from cold"
    cold_s, warm_s = min(cold_times), min(warm_times)
    return {
        "num_docs": num_docs,
        "churn_rate": churn_rate,
        "repeats": repeats,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


def bench_determinism(num_docs: int, base_dir: str) -> dict:
    """Byte-identity across backends, the cluster path, and a reopen."""
    day0 = _corpus(num_docs)
    day1 = _churn(day0, 0.1, seed=172)
    baseline = _run(day1)

    root = os.path.join(base_dir, "det_cache")
    cache = LRUExtractionCache(root)
    _run(day0, cache=cache)
    for spec in ("serial", "thread", "process"):
        result = _run(day1, cache=cache, backend=spec)
        assert result.rows == baseline.rows, \
            f"{spec} backend output differs with a warm cache"

    cluster_plain = _run(day1, backend=SimulatedCluster(
        ClusterConfig(num_workers=3, seed=7)))
    cluster_warm = _run(day1, cache=cache, backend=SimulatedCluster(
        ClusterConfig(num_workers=3, seed=7)))
    assert cluster_warm.rows == cluster_plain.rows == baseline.rows, \
        "cluster-backend output differs from inline or with a warm cache"

    cache.close()
    reopened = LRUExtractionCache(root)
    warm = _run(day1, cache=reopened)
    assert warm.stats.cache_misses == 0, \
        "reopened disk cache missed documents it had stored"
    assert warm.rows == baseline.rows
    reopened.close()
    return {
        "num_docs": num_docs,
        "backends_identical": True,
        "cluster_identical": True,
        "reopen_all_hits": True,
    }


def run_bench(num_docs: int = 400, repeats: int = 3,
              min_speedup: float = 3.0, smoke: bool = False) -> dict:
    """Run all three benches, print/persist tables, emit BENCH_e17.json."""
    with tempfile.TemporaryDirectory(prefix="bench_e17_") as base_dir:
        sweep = bench_churn_sweep(num_docs, base_dir)
        # Same sweep at twice the corpus: warm chars must track the churn
        # there too, which rules out any hidden O(corpus) re-extraction.
        sweep += bench_churn_sweep(num_docs * 2, base_dir)
        speedup = bench_speedup(num_docs, repeats, churn_rate=0.10,
                                base_dir=base_dir)
        determinism = bench_determinism(max(num_docs // 4, 20), base_dir)

    write_table(
        "e17_cache_churn",
        f"E17: warm extraction work vs churn rate (persistent disk cache)",
        ["docs", "churn", "changed docs", "warm chars", "cold chars",
         "warm/cold work"],
        [[s["num_docs"], s["churn_rate"], s["changed_docs"],
          s["warm_chars"], s["cold_chars"], s["warm_work_fraction"]]
         for s in sweep],
    )
    write_table(
        "e17_cache_speedup",
        f"E17: cold vs warm wall-clock at 10% churn "
        f"({speedup['num_docs']} pages, min of {speedup['repeats']})",
        ["variant", "seconds", "speedup"],
        [["cold (no cache)", speedup["cold_seconds"], 1.0],
         ["warm (primed cache)", speedup["warm_seconds"],
          speedup["speedup"]]],
    )

    # The invariants asserted above, machine-readable (check_gates.py); the
    # wall-clock one is left out of --smoke, which times a single tiny run.
    gates = [] if smoke else [
        gate("warm_speedup_at_10pct_churn", speedup["speedup"], ">=",
             min_speedup)]
    gates += [
        gate(f"warm_chars_minus_churned_chars:{s['num_docs']}docs@"
             f"{s['churn_rate']}", s["warm_chars"] - s["changed_chars"],
             "==", 0)
        for s in sweep]
    gates += [gate(name, int(determinism[name]), "==", 1)
              for name in ("backends_identical", "cluster_identical",
                           "reopen_all_hits")]
    payload = {
        "experiment": "e17_cache_churn",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "min_speedup": min_speedup,
        "churn_sweep": sweep,
        "speedup": speedup,
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


def test_e17_smoke(tmp_path):
    """Small-scale E17: scaling + determinism invariants; no timing gate."""
    sweep = bench_churn_sweep(num_docs=30, base_dir=str(tmp_path))
    assert all(s["warm_chars"] < s["cold_chars"] for s in sweep)
    determinism = bench_determinism(num_docs=16, base_dir=str(tmp_path))
    assert determinism["reopen_all_hits"]


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=400,
                        help="city pages in the day-0 corpus")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (min is reported)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="acceptance bar: warm speedup at 10%% churn")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no timing assertion")
    args = parser.parse_args(argv)
    if args.smoke:
        args.docs = min(args.docs, 40)
        args.repeats = 1
    payload = run_bench(num_docs=args.docs, repeats=args.repeats,
                        min_speedup=args.min_speedup, smoke=args.smoke)
    ten = next(s for s in payload["churn_sweep"] if s["churn_rate"] == 0.10)
    print(f"warm work at 10% churn: {ten['warm_work_fraction']:.1%} of cold; "
          f"speedup {payload['speedup']['speedup']:.1f}x "
          f"(bar {payload['min_speedup']:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
