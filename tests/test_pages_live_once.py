"""A page lives once, in the raw log.

``system.corpus`` is ``storage.raw``: ``generate()``, ``retry_deadletter()``
and ``explain_program()`` check pages out from it, and the page keyword
index follows its ``changes_since`` stream, so a reopened workspace works
over its stored pages with no load step.
"""

import json
import re
import sys
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.system as system_module
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.debugger.constraints import RangeConstraint
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.faults.injector import FaultInjector, FaultyExtractor
from repro.storage.filestore import RecordFileStore
from repro.storage.snapshots import SnapshotStore
from repro.userlayer.search import KeywordSearchEngine

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
CORPUS = list(generate_city_corpus(CityCorpusConfig(
    num_cities=8, seed=61, styles=("infobox",)))[0])


def _open(workspace, extractor):
    system = StructureManagementSystem(workspace=workspace)
    system.registry.register_extractor("infobox", extractor)
    # the debugger's constraints are not stored: given, no run learns any
    system.debugger.add_constraint(RangeConstraint("jul_temp", -80, 130))
    return system


def _edited(doc):
    return Document(doc.doc_id, re.sub(
        r"(\| jul_temp\s*=\s*)[\d.]+", r"\g<1>99.5", doc.text))


def _drive(workspace, reopen):
    """Ingest, generate, edit one page, (close and reopen,) then use the
    stored pages every way the system reads them; return the answers."""
    poison = CORPUS[3].doc_id
    # fails the three generate() runs' three attempts, heals on the retry
    extractor = FaultyExtractor(InfoboxExtractor(), FaultInjector(
        mode="error", keys=(poison,), fail_attempts=9))
    system = _open(workspace, extractor)
    system.ingest(CORPUS)
    system.generate(PROGRAM)
    system.ingest([_edited(CORPUS[0])])
    if reopen:
        system.close()
        system = _open(workspace, extractor)
    report = system.generate(PROGRAM)
    wal = system.db.wal_size_bytes()
    again = system.generate(PROGRAM)
    city = re.search(r"\| name = (\w+)", CORPUS[0].text).group(1)
    answers = {
        "report": (report.facts_stored, report.facts_retracted,
                   report.facts_unchanged, report.failed_doc_ids),
        "again": (again.facts_stored, again.facts_retracted,
                  system.db.wal_size_bytes() - wal),
        "facts": sorted(system.query(f"SELECT * FROM {FACTS_TABLE}"),
                        key=lambda row: row["fact_id"]),
        "keyword": [(h.doc_id, h.score, h.snippet)
                    for h in system.keyword(city, k=8)],
        "session": [(h.doc_id, h.score)
                    for h in system.session().keyword("climate", k=8)],
        "explain": system.explain(city, "jul_temp"),
        "corpus": [(doc.doc_id, doc.text) for doc in system.corpus],
        "retry": system.retry_deadletter(PROGRAM),
        "after_retry": system.fact_count(),
    }
    system.close()
    return answers


def test_a_reopened_workspace_answers_like_the_live_one(tmp_path):
    live = _drive(str(tmp_path / "live"), reopen=False)
    reopened = _drive(str(tmp_path / "reopened"), reopen=True)
    for name in live:
        assert reopened[name] == live[name], name
    # none of the answers is vacuous
    assert live["report"][:2] == (1, 1) and live["report"][3] == [
        CORPUS[3].doc_id]
    assert live["again"] == (0, 0, 0)
    assert live["keyword"] and live["session"] and live["facts"]
    assert "99.5" in live["explain"]
    assert [doc_id for doc_id, _ in live["corpus"]] == [
        doc.doc_id for doc in CORPUS]
    assert live["retry"] == (1, 0)
    assert live["after_retry"] > len(live["facts"])


def test_a_second_handle_on_a_workspace_reads_the_pages_the_first_writes(
        tmp_path):
    workspace = str(tmp_path / "ws")
    writer = StructureManagementSystem(workspace=workspace)
    reader = StructureManagementSystem(workspace=workspace)
    assert reader.keyword("madison") == [] and len(reader.corpus) == 0
    writer.ingest([Document("madison", "Madison is a city of lakes\n")])
    assert [h.doc_id for h in reader.keyword("madison")] == ["madison"]
    writer.ingest([Document("madison", "Madison has a capitol\n")])
    assert reader.keyword("lakes") == []
    assert reader.search.corpus_size() == 1
    assert reader.corpus.get("madison").text == "Madison has a capitol\n"
    reader.close()
    writer.close()


# ------------------------------------------------------- the page index

def test_an_unchanged_page_is_not_reindexed_and_an_edit_removes_once():
    system = StructureManagementSystem()
    system.ingest(CORPUS)
    assert system.search.corpus_size() == len(CORPUS)
    calls = []
    index = system.search._doc_index
    for name in ("add", "remove"):
        real = getattr(index, name)
        setattr(index, name, lambda *args, name=name, real=real: (
            calls.append((name, args)), real(*args))[1])
    system.ingest(CORPUS)                         # nothing new
    assert system.search.corpus_size() == len(CORPUS)
    assert [call for call in calls if call[1]] == []
    system.ingest([_edited(CORPUS[0]), _edited(CORPUS[1])])
    system.keyword("city")
    edited = {CORPUS[0].doc_id, CORPUS[1].doc_id}
    assert [(name, set(args)) for name, args in calls
            if name == "remove" and args] == [("remove", edited)]
    assert {args[0] for name, args in calls if name == "add"} == edited
    system.close()


def test_ingest_touches_no_search_engine(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("ingest reached the search engine")

    system = StructureManagementSystem()
    for name, method in vars(KeywordSearchEngine).items():
        if callable(method) and not name.startswith("__"):
            monkeypatch.setattr(system.search, name, refuse)
    assert system.ingest(CORPUS) == len(CORPUS)
    system.close()


QUERIES = ("city", "climate population", "lakes", "jul_temp 99.5",
           *(doc.doc_id.split("_", 1)[1] for doc in CORPUS[:3]))


def test_ingest_and_page_search_in_threads_leave_the_index_as_a_rebuild():
    system = StructureManagementSystem()
    failures = []

    def ingester(w):
        for i in range(40):
            doc = CORPUS[(w + i) % len(CORPUS)]
            system.ingest([doc if i % 3 else Document(
                doc.doc_id, f"{doc.text}\nedit {w} {i} lakes\n")])

    def searcher():
        for i in range(60):
            system.keyword(QUERIES[i % len(QUERIES)], k=4)
            system.search.corpus_size()

    def recording(work, *args):
        try:
            work(*args)
        except Exception as exc:  # asserted empty below
            failures.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=recording, args=(ingester, w))
                   for w in range(3)] + [
            threading.Thread(target=recording, args=(searcher,))
            for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    live = system.search
    live.corpus_size()  # catch up with the last commits
    rebuilt = KeywordSearchEngine(system.storage.raw)
    assert rebuilt.corpus_size() == live.corpus_size() == len(CORPUS)
    terms = rebuilt._doc_index._postings.keys()
    assert live._doc_index._postings.keys() == terms
    for term in terms:
        assert live._doc_index.document_frequency(term) == \
            rebuilt._doc_index.document_frequency(term)
    for query in QUERIES:
        assert live.search(query, k=5) == rebuilt.search(query, k=5)
    system.close()


# ---------------------------------------------- changes_since and its oracle

def _oracle(root, cursor):
    """``changes_since`` as it was first defined: a pass over the chain
    of record ids of every page in the log."""
    chains = {}
    for record in RecordFileStore(root).scan():
        chains.setdefault(record.payload["doc"], []).append(record.record_id)
    added = [d for d, ids in chains.items() if ids[0] >= cursor]
    changed = [d for d, ids in chains.items() if ids[0] < cursor <= ids[-1]]
    top = max((ids[-1] for ids in chains.values()), default=-1)
    return sorted(added), sorted(changed), top + 1


_COMMITS = st.lists(st.tuples(st.sampled_from("abcde"),
                              st.sampled_from(["x\n", "y\n", "x\ny\n"])),
                    max_size=25)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(commits=_COMMITS, cursors=st.lists(st.integers(-2, 30), max_size=6))
def test_changes_since_answers_as_a_pass_over_every_page(commits, cursors):
    with tempfile.TemporaryDirectory() as root:
        writer = SnapshotStore(root, keyframe_every=3)
        follower = SnapshotStore(root, keyframe_every=3)
        for n, (doc_id, text) in enumerate(commits):
            writer.commit(Document(doc_id, text))
            handle = follower if n % 4 == 0 else writer
            cursor = cursors[n % len(cursors)] if cursors else n
            assert handle.changes_since(cursor) == _oracle(root, cursor)
        for cursor in (*cursors, 0, len(commits)):
            for handle in (writer, follower, SnapshotStore(root)):
                assert handle.changes_since(cursor) == _oracle(root, cursor)
        writer.close()
        follower.close()


def test_changes_since_at_the_head_reads_no_page():
    store = SnapshotStore(None)
    for i in range(500):
        store.commit(Document(f"p{i}", f"page {i}\n"))
    _, _, head = store.changes_since(0)
    store._chains = _NoScan(store._chains)
    assert store.changes_since(head) == ([], [], head)
    store.commit(Document("p7", "page 7, edited\n"))
    assert store.changes_since(head) == ([], ["p7"], head + 1)


def test_a_log_whose_record_ids_skip_one_is_refused(tmp_path):
    # changes_since reads the page of record id n at position n
    with open(tmp_path / "seg-0000.jsonl", "w", encoding="utf-8") as f:
        for rid, doc_id in ((0, "p"), (2, "q")):
            f.write(json.dumps({"id": rid, "doc": doc_id, "v": 0,
                                "hash": "h", "lines": ["x\n"]}) + "\n")
    with pytest.raises(ValueError, match="record 2 stores q@0"):
        SnapshotStore(str(tmp_path)).doc_ids()


class _NoScan(dict):
    """A head map that refuses a walk over every page."""

    def items(self):
        raise AssertionError("changes_since walked every page")

    __iter__ = values = items


# ------------------------------------------------------- structural guard

def test_a_page_has_one_copy():
    system = StructureManagementSystem()
    system.ingest(CORPUS)
    assert system.keyword("climate") and list(system.corpus)
    assert not hasattr(StructureManagementSystem, "load_stored_pages")
    assert not hasattr(system, "_corpus")
    assert system.corpus is system.storage.raw
    for name in ("document", "has_document", "_documents"):
        assert not hasattr(system.search, name), name
    assert not any(isinstance(obj, Document)
                   for obj in _reachable(system.search))
    with open(system_module.__file__, encoding="utf-8") as f:
        assert "InMemoryCorpus" not in f.read()
    system.close()


def _reachable(root):
    """Every object reachable from ``root`` through containers and
    instance attributes (classes, modules and functions not entered)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, str, bytes, bytearray,
                                               int, float)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not callable(obj):
            stack.extend(vars(obj).values())
