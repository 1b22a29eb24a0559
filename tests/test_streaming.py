"""Tests for the streaming DGE pipeline (corpus delta -> fused rows).

The differential suites are the heart: after every randomly generated
delta batch, the incrementally maintained clusters, fused values, and
continuous-query notifications must be byte-identical (``json.dumps``
with ``sort_keys``) to a full recompute over the surviving corpus.
"""

import json
import string
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import LRUExtractionCache
from repro.docmodel.document import Document, Span
from repro.errors import CancellationToken, QueryTimeoutError
from repro.extraction.base import Extraction
from repro.faults.deadletter import DeadLetterStore
from repro.core.streaming import DocDelta, StreamingPipeline
from repro.core.system import fact_row
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.storage.snapshots import SnapshotStore
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.userlayer.monitoring import ContinuousQuery, ContinuousQueryManager
from tests.devices import on_both_devices


# ------------------------------------------------------------ test fixtures


class TsvExtractor:
    """Parses lines of ``entity<TAB>attribute<TAB>value``; counts calls."""

    def __init__(self):
        # Underscored: public attributes of a plain-class extractor are
        # configuration to ``extractor_fingerprint``, and the extraction
        # stage fingerprints once, *before* extracting — a public counter
        # would change the cache key between the lookup and the next run.
        self._calls = 0

    @property
    def calls(self):
        return self._calls

    def extract(self, doc):
        self._calls += 1
        out = []
        offset = 0
        for line in doc.text.splitlines(keepends=True):
            stripped = line.rstrip("\n")
            parts = stripped.split("\t")
            if len(parts) == 3 and all(parts):
                entity, attribute, raw = parts
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
                out.append(Extraction(
                    entity=entity, attribute=attribute, value=value,
                    span=Span(doc.doc_id, offset, offset + len(stripped),
                              stripped),
                    confidence=0.9, extractor="tsv",
                ))
            offset += len(line)
        return out


class PoisonExtractor(TsvExtractor):
    """Raises on any document containing the string POISON."""

    def extract(self, doc):
        if "POISON" in doc.text:
            raise ValueError("poison document")
        return super().extract(doc)


def doc(doc_id, *lines):
    return Document(doc_id, "\n".join("\t".join(parts) for parts in lines))


def pipeline_over(db=None, extractor=None, **kw):
    return StreamingPipeline(db if db is not None else Database(),
                             {"tsv": extractor or TsvExtractor()}, **kw)


# Name pool with deliberate near-duplicates so merges (and, under churn,
# splits) actually happen at the resolver's default threshold.
NAME_POOL = ("Smith John", "Smith Jon", "Smyth John",
             "Jones Robert", "Jones Rob", "Baker Ann")
ATTR_POOL = ("age", "city", "score")


def cluster_key(clusters):
    return sorted((tuple(sorted(c.mention_ids)), c.canonical_name)
                  for c in clusters)


def fused_json(values):
    return json.dumps(
        [{"entity": v.entity, "attribute": v.attribute,
          "value": repr(v.value), "confidence": round(v.confidence, 12),
          "support": v.support, "conflict": v.conflict,
          "spans": [(s.doc_id, s.start, s.end) for s in v.spans]}
         for v in values], sort_keys=True)


def assert_table_holds_the_fused_values(pipe):
    """``fused_facts`` is ``fused_values()`` projected to the stored
    columns, row for row (spans are the one field that is not stored)."""
    rows = execute_sql(pipe.db, f"SELECT * FROM {pipe.fused_table}")
    assert sorted(rows, key=lambda r: (r["entity"], r["attribute"])) == [
        {**fact_row(v.entity, v.attribute, v.value, v.confidence),
         "support": v.support, "conflict": v.conflict}
        for v in pipe.fused_values()]


# --------------------------------------------------------- delta source


@on_both_devices
def test_changes_since_names_pages_by_content_hash(root):
    store = SnapshotStore(root)
    store.commit(Document("a", "one"))
    store.commit(Document("b", "two"))
    added, changed, cursor = store.changes_since(0)
    assert (added, changed) == (["a", "b"], [])
    # same content: an empty delta even though the objects differ
    store.commit(Document("a", "one"))
    assert store.changes_since(cursor) == ([], [], cursor)
    store.commit(Document("b", "two!"))
    store.commit(Document("c", "three"))
    added, changed, later = store.changes_since(cursor)
    assert (added, changed, later) == (["c"], ["b"], cursor + 2)
    # from the start, a changed page is still one page, added
    assert store.changes_since(0)[:2] == (["a", "b", "c"], [])


def test_changes_since_cursor_is_one_integer_across_a_reopen(tmp_path):
    store = SnapshotStore(str(tmp_path))
    store.commit(Document("a", "one"))
    store.commit(Document("b", "two"))
    _, _, cursor = store.changes_since(0)
    reopened = SnapshotStore(str(tmp_path))
    for doc in (Document("a", "one"), Document("b", "two")):
        reopened.commit(doc)
    assert reopened.changes_since(cursor) == ([], [], cursor)
    reopened.commit(Document("a", "one*"))
    assert SnapshotStore(str(tmp_path)).changes_since(cursor)[:2] == (
        [], ["a"])


def test_changes_since_follows_another_writer(tmp_path):
    follower = SnapshotStore(str(tmp_path))
    assert follower.changes_since(0) == ([], [], 0)
    writer = SnapshotStore(str(tmp_path))
    writer.commit(Document("a", "one"))
    added, _, cursor = follower.changes_since(0)
    assert added == ["a"]
    writer.commit(Document("a", "one"))  # unchanged: nothing written
    assert follower.changes_since(cursor) == ([], [], cursor)
    writer.commit(Document("a", "two"))
    assert follower.changes_since(cursor)[:2] == ([], ["a"])
    assert follower.checkout("a").text == "two"
    assert follower.checkout("a", 0).text == "one"


# ------------------------------------------------------- pipeline basics


def test_process_writes_fused_rows_and_updates_them():
    db = Database()
    pipe = pipeline_over(db)
    written = pipe.process(DocDelta(added=(
        doc("d1", ("Baker Ann", "age", "41")),
        doc("d2", ("Baker Ann", "age", "41"), ("Baker Ann", "city", "Ur")),
    )))
    assert written == 2  # (Baker Ann, age), (Baker Ann, city)
    rows = execute_sql(
        db, "SELECT entity, attribute, value_num, value_text, support "
            "FROM fused_facts")
    by_attr = {r["attribute"]: r for r in rows}
    assert by_attr["age"]["value_num"] == 41.0
    assert by_attr["age"]["support"] == 2
    assert by_attr["city"]["value_text"] == "Ur"
    # changing d2 drops its city attribute and one age vote
    pipe.process(DocDelta(changed=(doc("d2", ("Baker Ann", "age", "39")),)))
    rows = execute_sql(
        db, "SELECT attribute, support, conflict FROM fused_facts")
    by_attr = {r["attribute"]: r for r in rows}
    assert "city" not in by_attr
    assert by_attr["age"]["support"] + by_attr["age"]["conflict"] == 2
    # removing both documents empties the table
    pipe.process(DocDelta(removed=("d1", "d2")))
    assert execute_sql(db, "SELECT entity FROM fused_facts") == []


def test_fresh_pipeline_owns_the_fused_table():
    db = Database()
    pipe = pipeline_over(db)
    pipe.process(DocDelta(added=(doc("d1", ("Baker Ann", "age", "41")),)))
    assert len(execute_sql(db, "SELECT entity FROM fused_facts")) == 1
    # a second pipeline (new process) starts from a clean table
    pipeline_over(db)
    assert execute_sql(db, "SELECT entity FROM fused_facts") == []


def test_unchanged_documents_cost_nothing():
    pipe = pipeline_over()
    pipe.process(DocDelta(added=(doc("d1", ("Baker Ann", "age", "41")),)))
    before = pipe.stats.pairs_scored
    assert pipe.process(DocDelta()) == 0
    assert pipe.stats.pairs_scored == before


def test_extraction_cache_skips_reextraction():
    extractor = TsvExtractor()
    pipe = pipeline_over(extractor=extractor, cache=LRUExtractionCache())
    d = doc("d1", ("Baker Ann", "age", "41"))
    pipe.process(DocDelta(added=(d,)))
    assert extractor.calls == 1
    pipe.process(DocDelta(removed=("d1",)))
    pipe.process(DocDelta(added=(d,)))  # same content: cache hit
    assert extractor.calls == 1
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())


def test_poison_documents_are_dead_lettered_and_excised():
    deadletter = DeadLetterStore()
    pipe = pipeline_over(extractor=PoisonExtractor(), deadletter=deadletter)
    pipe.process(DocDelta(added=(
        doc("good", ("Baker Ann", "age", "41")),
        Document("bad", "POISON"),
    )))
    assert pipe.stats.docs_deadlettered == 1
    assert [e.doc_id for e in deadletter.entries()] == ["bad"]
    assert {v.entity for v in pipe.fused_values()} == {"Baker Ann"}
    # a good document turning poisonous is retracted from the fused state
    pipe.process(DocDelta(changed=(Document("good", "POISON"),)))
    assert pipe.fused_values() == []
    assert pipe.stats.docs_deadlettered == 2


def test_a_pipeline_built_without_a_dead_letter_store_keeps_poison_pages():
    pipe = pipeline_over(extractor=PoisonExtractor())
    pipe.process(DocDelta(added=(Document("bad", "POISON"),)))
    assert pipe.stats.docs_deadlettered == 1
    assert [e.doc_id for e in pipe.deadletter.entries()] == ["bad"]


def test_cancellation_token_stops_processing():
    event = threading.Event()
    pipe = pipeline_over(token=CancellationToken(event=event))
    pipe.process(DocDelta(added=(doc("d1", ("Baker Ann", "age", "41")),)))
    event.set()
    with pytest.raises(QueryTimeoutError):
        pipe.process(DocDelta(added=(doc("d2", ("Baker Ann", "age", "40")),)))


def test_must_and_cannot_link_propagate_to_fused_rows():
    db = Database()
    pipe = pipeline_over(db)
    pipe.process(DocDelta(added=(
        doc("d1", ("Smith John", "age", "41")),
        doc("d2", ("Baker Ann", "age", "29")),
    )))
    ids = {m.name: m.mention_id for m in pipe.resolver.mentions()}
    # force the two distinct people into one entity
    pipe.add_must(ids["Smith John"], ids["Baker Ann"])
    assert cluster_key(pipe.resolver.clusters()) \
        == cluster_key(pipe.oracle_clusters())
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())
    assert len(pipe.resolver.clusters()) == 1
    # and split them apart again
    pipe.add_cannot(ids["Smith John"], ids["Baker Ann"])
    assert len(pipe.resolver.clusters()) == 2
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())
    entities = {r["entity"] for r in
                execute_sql(db, "SELECT entity FROM fused_facts")}
    assert entities == {"Smith John", "Baker Ann"}


# ------------------------------------------ a delta costs what it changed


def test_an_edit_that_only_moves_spans_writes_and_notifies_nothing(tmp_path):
    db = Database(str(tmp_path))
    pipe = pipeline_over(db)
    manager = ContinuousQueryManager(db)
    received = []
    manager.register(ContinuousQuery(
        "all", "SELECT entity, attribute, value_num FROM fused_facts",
        callback=lambda qid, row: received.append(row)))
    pipe.process(DocDelta(added=(
        doc("d1", ("Baker Ann", "age", "41"), ("Baker Ann", "score", "3")),)))
    before = fused_json(pipe.fused_values())
    received.clear()
    registry = MetricsRegistry()
    with use_registry(registry):
        # a leading blank line: every span moves, no value does
        written = pipe.process(DocDelta(changed=(Document(
            "d1", "\n" + doc("d1", ("Baker Ann", "age", "41"),
                             ("Baker Ann", "score", "3")).text),)))
    assert written == 0 and received == []
    assert registry.get("dge.fused_rows_unchanged") == 2
    assert registry.get("dge.fused_rows_written") == 0
    assert registry.get("rdbms.wal.records") == 0
    assert registry.get("er.name_comparisons") == 0
    assert pipe.stats.fused_rows_unchanged == 2
    assert fused_json(pipe.fused_values()) != before      # the spans did move
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())
    assert_table_holds_the_fused_values(pipe)


def test_an_edit_keeps_mention_ids_and_lands_as_one_wal_record(tmp_path):
    db = Database(str(tmp_path))
    pipe = pipeline_over(db)
    pipe.process(DocDelta(added=(
        doc("d1", ("Smith John", "age", "41"), ("Smith John", "city", "Ur")),
        doc("d2", ("Smith Jon", "age", "41")),
        doc("d3", ("Baker Ann", "age", "29")),
    )))
    ids = {m.name: m.mention_id for m in pipe.resolver.mentions()}
    refreshed = pipe.fusion.groups_refreshed
    registry = MetricsRegistry()
    with use_registry(registry):
        written = pipe.process(DocDelta(
            added=(doc("d4", ("Jones Rob", "age", "50")),),
            changed=(doc("d1", ("Smith John", "age", "42"),
                         ("Smith John", "city", "Ur")),),
            removed=("d3",)))
    assert {m.name: m.mention_id for m in pipe.resolver.mentions()} == {
        "Smith John": ids["Smith John"], "Smith Jon": ids["Smith Jon"],
        "Jones Rob": max(ids.values()) + 1}
    # (Smith John, age) updated, (Jones Rob, age) in, (Baker Ann, age) out;
    # (Smith John, city) was not even re-fused
    assert written == 3
    assert pipe.fusion.groups_refreshed - refreshed == 2
    assert registry.get("er.name_comparisons") == 0    # blocks j / r apart
    assert registry.get("rdbms.wal.records") == 1      # the delta's commit
    assert_table_holds_the_fused_values(pipe)
    recovered = Database(str(tmp_path))
    assert sorted(r.values.items() for r in recovered.begin().scan(
        "fused_facts")) == sorted(r.values.items() for r in db.begin().scan(
            "fused_facts"))


def test_a_fresh_pipeline_clears_the_table_in_one_wal_record(tmp_path):
    db = Database(str(tmp_path))
    pipe = pipeline_over(db)
    pipe.process(DocDelta(added=tuple(
        doc(f"d{i}", ("Baker Ann", f"attr{i}", "1")) for i in range(5))))
    assert db.table_size("fused_facts") == 5
    registry = MetricsRegistry()
    with use_registry(registry):
        pipeline_over(db)
    assert db.table_size("fused_facts") == 0
    assert registry.get("rdbms.wal.records") == 1
    assert Database(str(tmp_path)).table_size("fused_facts") == 0


def test_hi_feedback_survives_an_edit_of_the_page():
    db = Database()
    pipe = pipeline_over(db)
    pipe.process(DocDelta(added=(
        doc("a", ("Smith John", "age", "41")),
        doc("b", ("Baker Ann", "age", "29")))))
    pipe.add_must(0, 1)
    pipe.process(DocDelta(changed=(doc("a", ("Smith John", "age", "42")),)))
    assert [c.mention_ids for c in pipe.resolver.clusters()] == [(0, 1)]
    assert {v.entity for v in pipe.fused_values()} == {"Smith John"}
    assert cluster_key(pipe.resolver.clusters()) \
        == cluster_key(pipe.oracle_clusters())
    assert_table_holds_the_fused_values(pipe)
    # the answer goes when a page stops naming the entity it was about
    pipe.process(DocDelta(changed=(doc("a", ("Smith Jane", "age", "42")),)))
    assert len(pipe.resolver.constraints) == 0
    assert len(pipe.resolver.clusters()) == 2


def test_constraints_are_released_with_the_pages():
    pipe = pipeline_over()
    pipe.process(DocDelta(added=(
        doc("a", ("Smith John", "age", "41")),
        doc("b", ("Baker Ann", "age", "29")))))
    pipe.add_must(0, 1)
    pipe.process(DocDelta(removed=("a", "b")))
    assert len(pipe.resolver.constraints) == 0
    for round_ in range(1000):
        pipe.process(DocDelta(added=(
            doc("a", ("Smith John", "age", "41")),
            doc("b", ("Baker Ann", "age", "29")))))
        a, b = (m.mention_id for m in pipe.resolver.mentions())
        (pipe.add_cannot if round_ % 2 else pipe.add_must)(a, b)
        pipe.process(DocDelta(removed=("a", "b")))
    assert len(pipe.resolver.constraints) == 0
    assert not pipe.resolver._must_of and not pipe.resolver._cannot_of
    assert pipe.fused_values() == [] and not pipe._raw and not pipe._tagged


def test_a_doc_id_repeated_in_one_delta_counts_in_its_last_state():
    pipe = pipeline_over()
    pipe.process(DocDelta(added=(
        doc("d1", ("Baker Ann", "age", "41")),
        doc("d1", ("Baker Ann", "age", "43")))))
    assert len(pipe.resolver) == 1
    assert [(v.value, v.support) for v in pipe.fused_values()] == [(43.0, 1)]
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())


# ------------------------------------------------------ threaded pipeline


def test_threaded_pipeline_matches_sync_and_respects_bounds():
    docs = [doc(f"d{i}", (NAME_POOL[i % len(NAME_POOL)], "age", str(20 + i)))
            for i in range(30)]
    sync = pipeline_over()
    for d in docs:
        sync.process(DocDelta(added=(d,)))

    pipe = pipeline_over(queue_size=4)
    pipe.start()
    for d in docs:
        pipe.submit(DocDelta(added=(d,)))
    pipe.drain()
    pipe.stop()
    assert pipe.stats.deltas_in == len(docs)  # nothing dropped
    assert pipe.stats.max_queue_depth <= pipe.queue_size
    assert fused_json(pipe.fused_values()) == fused_json(sync.fused_values())
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())


def test_backpressure_blocks_fast_producer():
    class SlowExtractor(TsvExtractor):
        def extract(self, doc):
            time.sleep(0.005)
            return super().extract(doc)

    pipe = pipeline_over(extractor=SlowExtractor(), queue_size=2)
    pipe.start()
    submitted = 25
    start = time.monotonic()
    for i in range(submitted):  # producer much faster than the consumer
        pipe.submit(DocDelta(added=(doc(f"d{i}", ("Baker Ann", "age", "4")),)))
    elapsed = time.monotonic() - start
    pipe.stop()
    # the producer was throttled: submitting took at least roughly the
    # consumer's processing time for the overflow beyond the queue bound
    assert elapsed > 0.005 * (submitted - 2 * pipe.queue_size - 2)
    assert pipe.stats.deltas_in == submitted  # every delta survived
    assert pipe.stats.max_queue_depth <= pipe.queue_size
    assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())


def test_stage_errors_do_not_kill_the_pipeline():
    pipe = pipeline_over(extractor=PoisonExtractor(),
                         deadletter=DeadLetterStore())
    pipe.start()
    pipe.submit(DocDelta(added=(Document("bad", "POISON"),)))
    pipe.submit(DocDelta(added=(doc("good", ("Baker Ann", "age", "41")),)))
    pipe.stop()
    assert {v.entity for v in pipe.fused_values()} == {"Baker Ann"}
    assert pipe.stats.docs_deadlettered == 1


# ----------------------------------------------- differential (hypothesis)


line_strategy = st.tuples(
    st.sampled_from(NAME_POOL),
    st.sampled_from(ATTR_POOL),
    st.one_of(st.integers(1, 4).map(str),
              st.sampled_from(("Ur", "Kish", "Lagash"))),
)
text_strategy = st.lists(line_strategy, min_size=1, max_size=4)


def apply_random_delta(data, pipe, live, counter):
    """Draw one add/update/delete batch, apply it, return new counter."""
    added = []
    for _ in range(data.draw(st.integers(0, 2), label="n_add")):
        lines = data.draw(text_strategy, label="add_lines")
        added.append(doc(f"d{counter}", *lines))
        counter += 1
    changed = []
    removed = []
    if live:
        victims = data.draw(
            st.lists(st.sampled_from(sorted(live)), max_size=2,
                     unique=True), label="victims")
        for doc_id in victims:
            if data.draw(st.booleans(), label="is_removal"):
                removed.append(doc_id)
            else:
                lines = data.draw(text_strategy, label="change_lines")
                changed.append(doc(doc_id, *lines))
    delta = DocDelta(tuple(added), tuple(changed), tuple(removed))
    for d in delta.added:
        live[d.doc_id] = d
    for d in delta.changed:
        live[d.doc_id] = d
    for doc_id in delta.removed:
        del live[doc_id]
    pipe.process(delta)
    return counter


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_incremental_state_matches_full_recompute(data):
    pipe = pipeline_over()
    live, counter = {}, 0
    for _ in range(data.draw(st.integers(2, 6), label="steps")):
        counter = apply_random_delta(data, pipe, live, counter)
        assert cluster_key(pipe.resolver.clusters()) \
            == cluster_key(pipe.oracle_clusters())
        assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())
        assert_table_holds_the_fused_values(pipe)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_constraints_survive_churn(data):
    pipe = pipeline_over()
    live, counter = {}, 0
    for _ in range(data.draw(st.integers(2, 5), label="steps")):
        counter = apply_random_delta(data, pipe, live, counter)
        mentions = pipe.resolver.mentions()
        if len(mentions) >= 2 and data.draw(st.booleans(), label="constrain"):
            pair = data.draw(st.lists(
                st.sampled_from([m.mention_id for m in mentions]),
                min_size=2, max_size=2, unique=True), label="pair")
            if data.draw(st.booleans(), label="is_must"):
                pipe.add_must(*pair)
            else:
                pipe.add_cannot(*pair)
        assert cluster_key(pipe.resolver.clusters()) \
            == cluster_key(pipe.oracle_clusters())
        assert fused_json(pipe.fused_values()) == fused_json(pipe.oracle_fused())
        assert_table_holds_the_fused_values(pipe)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_notifications_match_result_set_deltas(data):
    """Standing-query notifications == per-commit result-set diff oracle."""
    db = Database()
    pipe = pipeline_over(db)
    manager = ContinuousQueryManager(db)
    received = []
    manager.register(ContinuousQuery(
        "all", "SELECT entity, attribute, value_num, value_text "
               "FROM fused_facts",
        callback=lambda qid, row: received.append(row)))
    live, counter, prev = {}, 0, set()
    for _ in range(data.draw(st.integers(2, 6), label="steps")):
        received.clear()
        counter = apply_random_delta(data, pipe, live, counter)
        current = {json.dumps(r, sort_keys=True) for r in execute_sql(
            db, "SELECT entity, attribute, value_num, value_text "
                "FROM fused_facts")}
        got = sorted(json.dumps(r, sort_keys=True) for r in received)
        assert got == sorted(current - prev)
        prev = current
        assert manager.poke() == 0  # delta stream left nothing behind
        assert_table_holds_the_fused_values(pipe)
