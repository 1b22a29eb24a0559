"""E7 — Map-Reduce parallelism for computation-intensive extraction.

Paper anchor: Section 4, physical layer — "IE and II are often very
computation intensive ... we need parallel processing in the physical
layer ... a computer cluster running Map-Reduce-like processes."

Reported series (simulated makespans — see DESIGN.md substitutions):
  (a) extraction-job makespan and speedup vs worker count (1..16);
  (b) impact of worker failures on makespan;
  (c) speculative execution vs stragglers ablation.

Checked invariants (recorded as ``gates`` in ``results/BENCH_e7.json``;
``check_gates.py`` re-validates them): every makespan row, rounded to the
3 decimals the tables print, equals :data:`EXPECTED` — the simulation is
deterministic for a seed, so any other value is a change to the cost
model or the scheduler, not noise.

Run standalone (writes the three tables and ``results/BENCH_e7.json``)::

    PYTHONPATH=src python benchmarks/bench_e7_mapreduce_scaling.py

or via pytest, which also times one job per series:
``pytest benchmarks/bench_e7_mapreduce_scaling.py``.
"""

import argparse
import json
import os
import sys

from _tables import RESULTS_DIR, assert_gates, gate, write_table

from repro.cluster.mapreduce import MapReduceJob, run_mapreduce
from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e7.json")

#: The makespan of every table row (3 decimals), by table and row label.
EXPECTED = {
    "e7_scaling": {1: 712.096, 2: 355.915, 4: 179.054, 8: 111.213,
                   16: 67.053},
    "e7b_failures": {0.0: 101.144, 0.1: 112.219, 0.3: 140.267},
    "e7c_speculation": {"speculation on": 109.755,
                        "speculation off": 485.405},
}


def _job_and_docs(num_cities=64):
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_cities, seed=111,
                         styles=("infobox",))
    )
    docs = list(corpus)
    extractor = InfoboxExtractor()
    job = MapReduceJob(
        map_fn=lambda doc: [
            ((e.entity, e.attribute), e.value) for e in extractor.extract(doc)
        ],
        reduce_fn=lambda key, values: values[0],
        split_size=4,
        num_reducers=4,
        map_cost_per_item=10.0,
    )
    return job, docs


def scaling_rows():
    """(a): [workers, makespan, speedup] for 1..16 workers."""
    job, docs = _job_and_docs()
    rows = []
    base = None
    for workers in (1, 2, 4, 8, 16):
        cluster = SimulatedCluster(
            ClusterConfig(num_workers=workers, seed=5, heterogeneity=0.1)
        )
        result = run_mapreduce(job, docs, cluster=cluster)
        if base is None:
            base = result.makespan
            reference = result.output
        else:
            assert result.output == reference  # parallelism preserves output
        rows.append([workers, result.makespan, base / result.makespan])
    return rows


def failure_rows():
    """(b): [failure probability, makespan] on 4 workers."""
    job, docs = _job_and_docs(num_cities=32)
    rows = []
    for failure_prob in (0.0, 0.1, 0.3):
        cluster = SimulatedCluster(
            ClusterConfig(num_workers=4, seed=6, failure_prob=failure_prob,
                          max_attempts=20)
        )
        result = run_mapreduce(job, docs, cluster=cluster)
        rows.append([failure_prob, result.makespan])
    # failures cost retries, not correctness
    clean = run_mapreduce(job, docs, cluster=SimulatedCluster(
        ClusterConfig(num_workers=4, seed=6)))
    flaky = run_mapreduce(job, docs, cluster=SimulatedCluster(
        ClusterConfig(num_workers=4, seed=6, failure_prob=0.3,
                      max_attempts=20)))
    assert clean.output == flaky.output
    return rows


def speculation_rows():
    """(c): [variant, makespan] with and without backup tasks."""
    job, docs = _job_and_docs(num_cities=32)
    rows = []
    for label, speculative in (("speculation on", True),
                               ("speculation off", False)):
        cluster = SimulatedCluster(
            ClusterConfig(num_workers=4, seed=7, straggler_prob=0.25,
                          straggler_factor=8.0,
                          speculative_execution=speculative)
        )
        result = run_mapreduce(job, docs, cluster=cluster)
        rows.append([label, result.makespan])
    return rows


def run_bench() -> dict:
    """The three tables and their gates; writes ``BENCH_e7.json``."""
    tables = {
        "e7_scaling": (
            "E7: extraction map-reduce makespan vs cluster size "
            "(64 pages, simulated time)",
            ["workers", "makespan", "speedup"], scaling_rows()),
        "e7b_failures": (
            "E7b: makespan under task-failure injection (4 workers)",
            ["failure probability", "makespan"], failure_rows()),
        "e7c_speculation": (
            "E7c: speculative-execution ablation under stragglers "
            "(25% stragglers, 8x slowdown)",
            ["variant", "makespan"], speculation_rows()),
    }
    gates = []
    for name, (title, headers, rows) in tables.items():
        write_table(name, title, headers, rows)
        gates += [gate(f"{name}:{row[0]}:makespan", round(row[1], 3), "==",
                       EXPECTED[name][row[0]]) for row in rows]
    payload = {
        "experiment": "e7_mapreduce_scaling",
        "tables": {name: {"headers": headers, "rows": rows}
                   for name, (_, headers, rows) in tables.items()},
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")
    assert_gates(gates)
    return payload


def test_e7_tables_and_gates():
    run_bench()


def test_e7_scaling_curve(benchmark):
    rows = scaling_rows()
    assert rows[-1][2] > 8.0  # near-linear region persists to 16 workers
    job, docs = _job_and_docs()
    benchmark(lambda: run_mapreduce(job, docs, cluster=SimulatedCluster(
        ClusterConfig(num_workers=4, seed=5))))


def test_e7_failures_cost_bounded(benchmark):
    rows = failure_rows()
    assert rows[0][1] < rows[1][1] < rows[2][1]
    job, docs = _job_and_docs(num_cities=32)
    benchmark(lambda: run_mapreduce(job, docs, cluster=SimulatedCluster(
        ClusterConfig(num_workers=4, seed=6, failure_prob=0.1,
                      max_attempts=20))))


def test_e7_speculative_execution_ablation(benchmark):
    rows = speculation_rows()
    assert rows[0][1] < rows[1][1]
    job, docs = _job_and_docs(num_cities=32)
    benchmark(lambda: run_mapreduce(job, docs, cluster=SimulatedCluster(
        ClusterConfig(num_workers=4, seed=7, straggler_prob=0.25))))


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    payload = run_bench()
    print(f"{len(payload['gates'])} makespan gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
