"""E5 — Diff-based snapshot storage for overlapping daily crawls.

Paper anchor: Section 4, storage layer — "the daily snapshots will overlap
a lot, and hence may be best stored in a device such as Subversion, which
only stores the 'diff' across the snapshots, to save space."

Reported series: on-disk bytes after each of 30 simulated daily re-crawls
(churn 5% of lines in ~15% of pages per day) for the diff store vs the
full-copy store, plus the space ratio and checkout-correctness check.

Checked invariants (recorded as ``gates`` in ``results/BENCH_e5.json``;
``check_gates.py`` re-validates them):
  * the full-copy / diff-store byte ratio after day 30 is >= 13.5;
  * version 0 of every page checks out identical to the original page;
  * the latest version of every page (a chain of up to 29 deltas) checks
    out identical to the full-copy store's;
  * re-committing the unchanged day-30 crawl writes 0 bytes.

Run standalone (writes the tables and ``results/BENCH_e5.json``)::

    PYTHONPATH=src python benchmarks/bench_e5_snapshot_store.py

or via pytest, which also times a checkout and a commit:
``pytest benchmarks/bench_e5_snapshot_store.py``.
"""

import argparse
import json
import os
import sys
import tempfile

import pytest
from _tables import RESULTS_DIR, assert_gates, gate, write_table

from repro.datagen.churn import churn_corpus
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.storage.snapshots import FullCopyStore, SnapshotStore

DAYS = 30
MIN_RATIO = 13.5
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e5.json")


def _run_days(tmp_path, days=DAYS, change_fraction=0.05):
    """Commit ``days`` daily crawls to both stores; returns the stores,
    the (day, diff bytes, full bytes) series, the day-0 texts and the
    last crawl committed."""
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=15, seed=81))
    diff_store = SnapshotStore(os.path.join(str(tmp_path), "diff"),
                               keyframe_every=50)
    full_store = FullCopyStore(os.path.join(str(tmp_path), "full"))
    series = []
    originals = {d.doc_id: d.text for d in corpus}
    current = corpus
    for day in range(days):
        crawl = current
        for doc in crawl:
            diff_store.commit(doc)
            full_store.commit(doc)
        series.append((day, diff_store.total_bytes(), full_store.total_bytes()))
        current = churn_corpus(crawl, change_fraction=change_fraction,
                               seed=1000 + day)
    return diff_store, full_store, series, originals, crawl


def run_bench(base_dir) -> dict:
    """The 30-day series, its table and gates; writes ``BENCH_e5.json``."""
    diff_store, full_store, series, originals, last = _run_days(base_dir)
    rows = [
        [day, diff_bytes, full_bytes, full_bytes / diff_bytes]
        for day, diff_bytes, full_bytes in series
        if day in (0, 4, 9, 19, 29)
    ]
    write_table(
        "e5_snapshot_space",
        "E5: storage bytes over 30 daily snapshots (5% line churn)",
        ["day", "diff-store bytes", "full-copy bytes", "ratio (full/diff)"],
        rows,
    )
    differing = sorted(doc_id for doc_id, text in originals.items()
                       if diff_store.checkout(doc_id, 0).text != text)
    latest_differing = sorted(
        doc_id for doc_id in originals
        if diff_store.checkout(doc_id).text
        != full_store.checkout(doc_id).text)
    before = diff_store.total_bytes()
    for doc in last:
        diff_store.commit(doc)
    recommit_bytes = diff_store.total_bytes() - before
    gates = [
        gate("day30_full_over_diff_bytes", rows[-1][3], ">=", MIN_RATIO),
        gate("version0_checkouts_differing", len(differing), "==", 0),
        gate("latest_checkouts_differing", len(latest_differing), "==", 0),
        gate("unchanged_recommit_bytes", recommit_bytes, "==", 0),
    ]
    payload = {
        "experiment": "e5_snapshot_store",
        "days": DAYS,
        "pages": len(originals),
        "series": [{"day": day, "diff_bytes": diff_bytes,
                    "full_bytes": full_bytes}
                   for day, diff_bytes, full_bytes in series],
        "version0_differing": differing,
        "latest_differing": latest_differing,
        "unchanged_recommit_bytes": recommit_bytes,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")
    assert_gates(gates)
    return payload


def test_e5_space_series(benchmark, tmp_path):
    run_bench(tmp_path)  # the 30-day stores stay under tmp_path
    diff_store = SnapshotStore(str(tmp_path / "diff"), keyframe_every=50)
    doc_id = diff_store.doc_ids()[0]
    benchmark(lambda: diff_store.checkout(doc_id))


@pytest.mark.parametrize("churn", [0.01, 0.10, 0.30])
def test_e5_ratio_vs_churn(benchmark, tmp_path, churn):
    """The diff store's advantage shrinks as churn grows (crossover study)."""
    diff_store, full_store, series, _, _ = _run_days(
        tmp_path, days=10, change_fraction=churn
    )
    _, diff_bytes, full_bytes = series[-1]
    write_table(
        f"e5b_ratio_churn_{int(churn * 100):02d}",
        f"E5b: space ratio at churn {churn:.0%} after 10 days",
        ["churn", "diff bytes", "full bytes", "ratio"],
        [[churn, diff_bytes, full_bytes, full_bytes / diff_bytes]],
    )
    assert full_bytes > diff_bytes
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=5, seed=3))
    store = SnapshotStore(str(tmp_path / f"b{int(churn*100)}"))
    docs = list(corpus)
    benchmark(lambda: [store.commit(d) for d in docs])


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    with tempfile.TemporaryDirectory(prefix="bench_e5_") as base_dir:
        payload = run_bench(base_dir)
    ratio = payload["gates"][0]["actual"]
    print(f"day-30 full/diff ratio {ratio:.2f} (bar {MIN_RATIO}); "
          f"unchanged re-commit wrote {payload['unchanged_recommit_bytes']} "
          "bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
