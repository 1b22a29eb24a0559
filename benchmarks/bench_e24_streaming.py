"""E24 — streaming DGE: O(delta) incremental maintenance under churn.

The perf claim of the PR: once the corpus is seeded, a churn batch
touching 1% of the documents re-scores a pair count proportional to the
*delta's* blocking neighborhoods — at least 10x below what a full
re-resolution of the corpus would score — while the incrementally
maintained state stays byte-identical to a full recompute.

Checked invariants (recorded as machine-readable ``gates``):
  * **pairs_ratio >= 10** — full re-resolution pair count over the mean
    per-batch incremental pair count at 1% churn (non-smoke only);
  * **cluster / fused / notification identity** — after every delta
    batch, the incremental clusters, the fused values, and the standing-
    query notifications are byte-identical (``json.dumps`` with
    ``sort_keys``) to a full recompute oracle;
  * **backpressure** — with a producer running far faster than the
    consumer over a small bounded queue, the observed queue depth never
    exceeds the bound and every submitted delta is processed (nothing
    dropped, memory stays bounded).

Three more gates are counts that repeat exactly for a seed (PR 21: a
delta costs what it changed):
  * **same_name_edit_name_comparisons == 0** — a churn batch that edits
    attribute values on pages that keep their entity name compares no
    names (``er.name_comparisons``), while still visiting its blocks'
    pairs;
  * **wal_records_per_delta == 1** — a delta is one transaction and a
    transaction is one ``commit`` record, whatever the batch size (the
    churn database keeps a WAL in a scratch directory for this);
  * **rows_written_minus_rows_changed == 0** — ``fused_rows_written``
    summed over the batches equals the number of ``fused_facts`` keys
    whose stored columns differ before and after each batch.

The report also carries a micro-benchmark of the attribute-dict hoist in
pair scoring (pre-materialized dicts vs two ``attr_dict()`` calls per
pair), which is not gated.

Run standalone (writes ``results/BENCH_e24.json``)::

    PYTHONPATH=src python benchmarks/bench_e24_streaming.py
    PYTHONPATH=src python benchmarks/bench_e24_streaming.py --smoke

or via pytest: ``pytest benchmarks/bench_e24_streaming.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

from _tables import assert_gates, gate, write_table

from repro.core.streaming import DocDelta, StreamingPipeline
from repro.docmodel.document import Document, Span
from repro.extraction.base import Extraction
from repro.integration.entity_resolution import EntityResolver
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.telemetry import metrics
from repro.userlayer.monitoring import ContinuousQuery, ContinuousQueryManager

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_e24.json")

GIVEN_VARIANTS = ("Maria", "M.", "Mari", "Mary", "Marya")
ATTRS = ("age", "city", "score")
CITIES = ("Ur", "Kish", "Lagash", "Nippur")


class PersonExtractor:
    """Parses ``entity<TAB>attribute<TAB>value`` lines (bench corpus)."""

    def extract(self, doc):
        out = []
        offset = 0
        for line in doc.text.splitlines(keepends=True):
            stripped = line.rstrip("\n")
            parts = stripped.split("\t")
            if len(parts) == 3:
                entity, attribute, raw = parts
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
                out.append(Extraction(
                    entity=entity, attribute=attribute, value=value,
                    span=Span(doc.doc_id, offset, offset + len(stripped),
                              stripped),
                    confidence=0.9, extractor="person",
                ))
            offset += len(line)
        return out


def surname_blocking_key(mention):
    """Block on the full surname token — many small blocks, the regime
    the paper's incremental-maintenance argument assumes."""
    return mention.name.rsplit(" ", 1)[-1].lower()


def make_doc(doc_id: str, identity: int, surnames: list[str],
             rng: random.Random) -> Document:
    """One document describing one person identity, with value noise."""
    surname = surnames[identity % len(surnames)]
    name = f"{rng.choice(GIVEN_VARIANTS)} {surname}"
    age = 20 + identity % 60 + (1 if rng.random() < 0.2 else 0)
    lines = [f"{name}\tage\t{age}",
             f"{name}\tcity\t{rng.choice(CITIES)}"]
    if rng.random() < 0.5:
        lines.append(f"{name}\tscore\t{rng.randrange(1, 5)}")
    return Document(doc_id, "\n".join(lines))


def edit_doc(doc: Document, rng: random.Random) -> Document:
    """The same page about the same name with another age and city; a
    score line keeps its value and only shifts with the city's length."""
    lines = []
    for line in doc.text.splitlines():
        name, attribute, raw = line.split("\t")
        if attribute == "city":
            raw = rng.choice([c for c in CITIES if c != raw])
        elif attribute == "age":
            raw = str(int(raw) + 1)
        lines.append(f"{name}\t{attribute}\t{raw}")
    return Document(doc.doc_id, "\n".join(lines))


def stored_rows(db: Database) -> dict[tuple[str, str], dict]:
    return {(r["entity"], r["attribute"]): r
            for r in execute_sql(db, "SELECT * FROM fused_facts")}


def full_resolution_pairs(pipeline: StreamingPipeline) -> int:
    """Pairs a from-scratch batch resolution of the live mentions scores."""
    key = pipeline.resolver.resolver.blocking_key
    blocks: dict = {}
    for mention in pipeline.resolver.mentions():
        blocks[key(mention)] = blocks.get(key(mention), 0) + 1
    return sum(n * (n - 1) // 2 for n in blocks.values())


def clusters_json(clusters) -> str:
    return json.dumps(sorted(
        (tuple(sorted(c.mention_ids)), c.canonical_name)
        for c in clusters), sort_keys=True)


def fused_values_json(values) -> str:
    return json.dumps(
        [{"entity": v.entity, "attribute": v.attribute,
          "value": repr(v.value), "confidence": round(v.confidence, 12),
          "support": v.support, "conflict": v.conflict,
          "spans": [(s.doc_id, s.start, s.end) for s in v.spans]}
         for v in values], sort_keys=True)


def result_set(db: Database) -> set[str]:
    rows = execute_sql(
        db, "SELECT entity, attribute, value_num, value_text, support "
            "FROM fused_facts")
    return {json.dumps(r, sort_keys=True) for r in rows}


def build_pipeline(db: Database) -> StreamingPipeline:
    return StreamingPipeline(
        db, {"person": PersonExtractor()},
        resolver=EntityResolver(blocking_key=surname_blocking_key),
    )


def bench_churn(num_docs: int, num_surnames: int, churn_batches: int,
                churn_fraction: float) -> dict:
    """Seed the corpus, then run churn batches with identity checks."""
    rng = random.Random(24)
    surnames = [f"Surname{i:04d}" for i in range(num_surnames)]
    # on disk, so the WAL records of a delta can be counted (removed when
    # ``wal_dir`` is collected, at the latest at exit)
    wal_dir = tempfile.TemporaryDirectory(prefix="e24_wal_")
    db = Database(wal_dir.name)
    registry = metrics.get_registry()
    pipeline = build_pipeline(db)
    manager = ContinuousQueryManager(db)
    notifications: list[dict] = []
    manager.register(ContinuousQuery(
        "e24", "SELECT entity, attribute, value_num, value_text, support "
               "FROM fused_facts",
        callback=lambda qid, row: notifications.append(row)))

    live: dict[str, int] = {}  # doc_id -> identity
    pages: dict[str, Document] = {}  # doc_id -> its current page
    next_doc = 0
    seed = []
    for _ in range(num_docs):
        doc_id = f"d{next_doc}"
        identity = rng.randrange(num_docs // 3 + 1)
        live[doc_id] = identity
        seed.append(make_doc(doc_id, identity, surnames, rng))
        next_doc += 1
    pages.update((doc.doc_id, doc) for doc in seed)
    t0 = time.perf_counter()
    pipeline.process(DocDelta(added=tuple(seed)))
    seed_seconds = time.perf_counter() - t0
    seed_pairs = pipeline.stats.pairs_scored

    prev_results = result_set(db)
    prev_stored = stored_rows(db)
    batch_rows = []
    identity_failures = 0
    rows_written = rows_changed = max_wal_records = 0
    batch_size = max(1, int(num_docs * churn_fraction))
    # the last batch is edits only: values move, names stay
    for batch in range(churn_batches + 1):
        notifications.clear()
        doc_ids = sorted(live)
        changed, removed, added = [], [], []
        for doc_id in rng.sample(doc_ids, min(batch_size, len(doc_ids))):
            roll = rng.random()
            if batch == churn_batches:
                changed.append(edit_doc(pages[doc_id], rng))
            elif roll < 0.4:
                changed.append(make_doc(doc_id, live[doc_id], surnames, rng))
            elif roll < 0.7:
                removed.append(doc_id)
                del live[doc_id]
            else:
                changed.append(make_doc(doc_id, rng.randrange(
                    num_docs // 3 + 1), surnames, rng))
        for _ in range(len(removed)):  # keep the corpus size steady
            doc_id = f"d{next_doc}"
            identity = rng.randrange(num_docs // 3 + 1)
            live[doc_id] = identity
            added.append(make_doc(doc_id, identity, surnames, rng))
            next_doc += 1
        for doc in changed:
            live[doc.doc_id] = live.get(doc.doc_id, 0)
        for doc_id in removed:
            del pages[doc_id]
        pages.update((doc.doc_id, doc) for doc in (*added, *changed))

        pairs_before = pipeline.stats.pairs_scored
        written_before = pipeline.stats.fused_rows_written
        names_before = registry.get("er.name_comparisons")
        wal_before = registry.get("rdbms.wal.records")
        t0 = time.perf_counter()
        pipeline.process(DocDelta(tuple(added), tuple(changed),
                                  tuple(removed)))
        batch_seconds = time.perf_counter() - t0
        batch_pairs = pipeline.stats.pairs_scored - pairs_before
        batch_names = int(registry.get("er.name_comparisons") - names_before)
        wal_records = int(registry.get("rdbms.wal.records") - wal_before)
        max_wal_records = max(max_wal_records, wal_records)
        stored = stored_rows(db)
        batch_changed = sum(1 for key in stored.keys() | prev_stored.keys()
                            if stored.get(key) != prev_stored.get(key))
        prev_stored = stored
        batch_written = pipeline.stats.fused_rows_written - written_before
        rows_written += batch_written
        rows_changed += batch_changed
        full_pairs = full_resolution_pairs(pipeline)

        # identity gates: clusters, fused values, notifications
        clusters_ok = (clusters_json(pipeline.resolver.clusters())
                       == clusters_json(pipeline.oracle_clusters()))
        fused_ok = (fused_values_json(pipeline.fused_values())
                    == fused_values_json(pipeline.oracle_fused()))
        current = result_set(db)
        got = sorted(json.dumps(r, sort_keys=True) for r in notifications)
        notify_ok = got == sorted(current - prev_results)
        prev_results = current
        if not (clusters_ok and fused_ok and notify_ok):
            identity_failures += 1
        batch_rows.append({
            "batch": batch,
            "delta_docs": len(added) + len(changed) + len(removed),
            "edits_only": batch == churn_batches,
            "pairs_scored": batch_pairs,
            "name_comparisons": batch_names,
            "wal_records": wal_records,
            "fused_rows_written": batch_written,
            "fused_rows_changed": batch_changed,
            "full_resolution_pairs": full_pairs,
            "pairs_ratio": (full_pairs / batch_pairs
                            if batch_pairs else float(full_pairs)),
            "seconds": batch_seconds,
            "clusters_identical": clusters_ok,
            "fused_identical": fused_ok,
            "notifications_identical": notify_ok,
        })

    db.close()
    wal_dir.cleanup()
    edits = batch_rows.pop()     # reported on its own, not in the ratio
    mean_batch_pairs = (sum(b["pairs_scored"] for b in batch_rows)
                       / len(batch_rows))
    return {
        "edits_only_batch": edits,
        "max_wal_records_per_delta": max_wal_records,
        "fused_rows_written": rows_written,
        "fused_rows_changed": rows_changed,
        "fused_rows_unchanged": pipeline.stats.fused_rows_unchanged,
        "num_docs": num_docs,
        "num_surnames": num_surnames,
        "churn_fraction": churn_fraction,
        "seed_seconds": seed_seconds,
        "seed_pairs_scored": seed_pairs,
        "mean_batch_pairs": mean_batch_pairs,
        "full_resolution_pairs": batch_rows[-1]["full_resolution_pairs"],
        "pairs_ratio": (batch_rows[-1]["full_resolution_pairs"]
                        / mean_batch_pairs if mean_batch_pairs else 0.0),
        "identity_failures": identity_failures,
        "batches": batch_rows,
    }


def bench_backpressure(deltas: int, queue_size: int) -> dict:
    """A producer ~5x faster than the consumer over a bounded queue."""

    consumer_delay = 0.004

    class SlowExtractor(PersonExtractor):
        def extract(self, doc):
            time.sleep(consumer_delay)
            return super().extract(doc)

    rng = random.Random(42)
    surnames = [f"Surname{i:04d}" for i in range(40)]
    db = Database()
    pipeline = StreamingPipeline(
        db, {"person": SlowExtractor()},
        resolver=EntityResolver(blocking_key=surname_blocking_key),
        queue_size=queue_size)
    pipeline.start()
    t0 = time.perf_counter()
    for i in range(deltas):
        doc = make_doc(f"d{i}", i % 60, surnames, rng)
        pipeline.submit(DocDelta(added=(doc,)))
        time.sleep(consumer_delay / 5)  # the producer's own (faster) pace
    submit_seconds = time.perf_counter() - t0
    pipeline.stop()
    fused_ok = (fused_values_json(pipeline.fused_values())
                == fused_values_json(pipeline.oracle_fused()))
    return {
        "deltas_submitted": deltas,
        "deltas_processed": pipeline.stats.deltas_in,
        "queue_size": queue_size,
        "max_queue_depth": pipeline.stats.max_queue_depth,
        "submit_seconds": submit_seconds,
        "producer_throttled": submit_seconds > consumer_delay * deltas * 0.5,
        "fused_identical_after_drain": fused_ok,
    }


def bench_attr_hoist(block_size: int) -> dict:
    """Micro-benchmark: the attribute-dict hoist in pair scoring."""
    from repro.integration.entity_resolution import Mention

    rng = random.Random(7)
    mentions = [
        Mention(i, f"{rng.choice(GIVEN_VARIANTS)} Surname0000",
                tuple((a, rng.randrange(5)) for a in ATTRS))
        for i in range(block_size)]
    resolver = EntityResolver()

    t0 = time.perf_counter()
    for i in range(len(mentions)):
        for j in range(i + 1, len(mentions)):
            resolver.score_pair(mentions[i], mentions[j])  # 2 attr_dicts/pair
    per_pair_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    attrs = [m.attr_dict() for m in mentions]  # hoisted: once per mention
    for i in range(len(mentions)):
        for j in range(i + 1, len(mentions)):
            resolver._score_with_attrs(mentions[i], mentions[j],
                                       attrs[i], attrs[j])
    hoisted_seconds = time.perf_counter() - t0
    return {
        "block_size": block_size,
        "pairs": block_size * (block_size - 1) // 2,
        "per_pair_attr_dict_seconds": per_pair_seconds,
        "hoisted_seconds": hoisted_seconds,
        "speedup": (per_pair_seconds / hoisted_seconds
                    if hoisted_seconds else 1.0),
    }


def run_bench(num_docs: int = 10_000, num_surnames: int = 1_500,
              churn_batches: int = 3, smoke: bool = False) -> dict:
    churn = bench_churn(num_docs, num_surnames, churn_batches,
                        churn_fraction=0.01)
    backpressure = bench_backpressure(deltas=40 if smoke else 120,
                                     queue_size=4)
    hoist = bench_attr_hoist(block_size=60 if smoke else 200)

    gates = [
        gate("identity_failures", churn["identity_failures"], "==", 0.0),
        gate("same_name_edit_name_comparisons",
             churn["edits_only_batch"]["name_comparisons"], "==", 0.0),
        gate("wal_records_per_delta",
             churn["max_wal_records_per_delta"], "==", 1.0),
        gate("rows_written_minus_rows_changed",
             churn["fused_rows_written"] - churn["fused_rows_changed"],
             "==", 0.0),
        gate("backpressure_depth_bound",
             backpressure["max_queue_depth"], "<=",
             backpressure["queue_size"]),
        gate("backpressure_no_drops",
             backpressure["deltas_processed"], "==",
             backpressure["deltas_submitted"]),
        gate("backpressure_fused_identity",
             1.0 if backpressure["fused_identical_after_drain"] else 0.0,
             "==", 1.0),
    ]
    if not smoke:
        gates.append(gate("pairs_ratio", churn["pairs_ratio"], ">=", 10.0))

    write_table(
        "e24_streaming",
        f"E24: streaming DGE under churn ({num_docs} docs, "
        f"{num_surnames} surnames, {churn_batches} x 1% churn batches)",
        ["metric", "value"],
        [["seed pairs scored", churn["seed_pairs_scored"]],
         ["mean churn-batch pairs", churn["mean_batch_pairs"]],
         ["full re-resolution pairs", churn["full_resolution_pairs"]],
         ["pairs ratio (full/batch)", round(churn["pairs_ratio"], 1)],
         ["identity failures", churn["identity_failures"]],
         ["edits-only batch: pairs visited / names compared",
          f"{churn['edits_only_batch']['pairs_scored']}"
          f"/{churn['edits_only_batch']['name_comparisons']}"],
         ["max WAL records per delta", churn["max_wal_records_per_delta"]],
         ["fused rows written / changed / left unchanged",
          f"{churn['fused_rows_written']}/{churn['fused_rows_changed']}"
          f"/{churn['fused_rows_unchanged']}"],
         ["max queue depth / bound",
          f"{backpressure['max_queue_depth']}/{backpressure['queue_size']}"],
         ["deltas processed/submitted",
          f"{backpressure['deltas_processed']}"
          f"/{backpressure['deltas_submitted']}"],
         ["attr-hoist speedup", round(hoist["speedup"], 2)]],
    )

    payload = {
        "experiment": "e24_streaming",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "churn": churn,
        "backpressure": backpressure,
        "attr_hoist": hoist,
        "gates": gates,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(f"\nwrote {JSON_PATH}")

    assert_gates(gates)
    return payload


# --------------------------------------------------------------- pytest


def test_e24_smoke():
    """Small-scale E24: identity + backpressure invariants, no ratio gate."""
    payload = run_bench(num_docs=400, num_surnames=80, churn_batches=2,
                        smoke=True)
    assert payload["churn"]["identity_failures"] == 0
    assert payload["backpressure"]["deltas_processed"] \
        == payload["backpressure"]["deltas_submitted"]
    assert payload["backpressure"]["max_queue_depth"] \
        <= payload["backpressure"]["queue_size"]


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=10_000,
                        help="corpus size (documents)")
    parser.add_argument("--surnames", type=int, default=1_500,
                        help="distinct surname blocking keys")
    parser.add_argument("--batches", type=int, default=3,
                        help="1%% churn batches after the seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, identity gates only")
    args = parser.parse_args(argv)
    if args.smoke:
        args.docs = min(args.docs, 400)
        args.surnames = min(args.surnames, 80)
        args.batches = min(args.batches, 2)
    payload = run_bench(num_docs=args.docs, num_surnames=args.surnames,
                        churn_batches=args.batches, smoke=args.smoke)
    churn = payload["churn"]
    print(f"seed: {churn['seed_pairs_scored']} pairs in "
          f"{churn['seed_seconds']:.2f}s; churn batches: "
          f"{churn['mean_batch_pairs']:.0f} pairs vs "
          f"{churn['full_resolution_pairs']} full "
          f"({churn['pairs_ratio']:.1f}x), "
          f"identity failures {churn['identity_failures']}")
    bp = payload["backpressure"]
    print(f"backpressure: depth {bp['max_queue_depth']}/{bp['queue_size']}, "
          f"{bp['deltas_processed']}/{bp['deltas_submitted']} processed, "
          f"throttled={bp['producer_throttled']}")
    print(f"attr hoist: {payload['attr_hoist']['speedup']:.2f}x over "
          f"per-pair attr_dict construction")
    return 0


if __name__ == "__main__":
    sys.exit(main())
