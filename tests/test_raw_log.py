"""The raw page store is one record log.

Covers the log under it (``RecordFileStore``: torn appends, seeks by id,
following another handle) and the store itself (``SnapshotStore``: a crash
at every byte of its last records against a dict model, page ids that are
data rather than paths, the unchanged-page rule, the refused old layout).

The tests that take ``root`` run on both devices (a directory, and memory
for ``root=None``).  The rest stay directory-only: torn bytes on disk
(the every-byte cuts, a torn last line, damage), reopen across handles
(another handle's appends, gets, commits; a reopened lineage log; an
unchanged re-commit through a second handle), the older-layout refusal,
and what a workspace directory holds.
"""

import json
import os

import pytest

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.storage.filestore import RecordFileStore
from repro.storage.snapshots import FullCopyStore, SnapshotStore
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.devices import on_both_devices


def _files(root):
    """Every file under ``root``: relative path -> bytes."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(data)


def _segment(root):
    return os.path.join(str(root), "seg-0000.jsonl")


# --------------------------------------------------------- torn appends


@pytest.mark.parametrize("tolerant", [False, True])
def test_a_torn_last_line_is_cut_and_the_next_append_is_kept(
        tmp_path, tolerant):
    payloads = [{"v": i, "text": "é" * i} for i in range(3)]
    RecordFileStore(str(tmp_path / "base"), tolerant=tolerant).append_many(
        payloads)
    with open(_segment(tmp_path / "base"), "rb") as f:
        data = f.read()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(last, len(data) + 1):
        root = tmp_path / f"cut{cut}"
        _write(_segment(root), data[:cut])
        kept = payloads if cut == len(data) else payloads[:2]
        torn = last < cut < len(data)
        registry = MetricsRegistry()
        with use_registry(registry):
            reopened = RecordFileStore(str(root), tolerant=tolerant)
            assert [r.payload for r in reopened.scan()] == kept
            # the cache reports a torn append; a strict store has no damage
            assert reopened.corrupt_lines == int(torn and tolerant)
            assert reopened.append({"v": "new"}) == len(kept)
        assert registry.get("recovery.truncated_records") == int(torn)
        again = RecordFileStore(str(root), tolerant=tolerant)
        assert [(r.record_id, r.payload) for r in again.scan()] == [
            *enumerate(kept), (len(kept), {"v": "new"})]
        assert again.corrupt_lines == 0
        assert again.append({"v": "next"}) == len(kept) + 1


def test_damage_before_the_last_line_still_raises_in_a_strict_store(
        tmp_path):
    RecordFileStore(str(tmp_path)).append_many([{"v": i} for i in range(3)])
    with open(_segment(tmp_path), "rb") as f:
        lines = f.read().split(b"\n")
    lines[1] = lines[1][:5]
    _write(_segment(tmp_path), b"\n".join(lines))
    with pytest.raises(json.JSONDecodeError):
        list(RecordFileStore(str(tmp_path)).scan())
    with pytest.raises(json.JSONDecodeError):
        RecordFileStore(str(tmp_path)).append({"v": 9})
    tolerant = RecordFileStore(str(tmp_path), tolerant=True)
    assert [r.payload for r in tolerant.scan()] == [{"v": 0}, {"v": 2}]
    assert tolerant.corrupt_lines == 1
    assert tolerant.append({"v": 3}) == 3


@on_both_devices
def test_get_seeks_records_by_id(root):
    store = RecordFileStore(root, segment_max_records=3)
    ids = store.append_many([{"v": i} for i in range(8)])
    store.delete(ids[4])
    assert [r.payload for r in store.get([7, 0, 5])] == [
        {"v": 7}, {"v": 0}, {"v": 5}]
    for missing in (4, 99):
        with pytest.raises(KeyError):
            store.get([missing])
    store.append({"v": 8})
    assert store.get([8])[0].payload == {"v": 8}
    assert store.compact() == 8
    assert [r.payload for r in store.get([8, 0])] == [{"v": 8}, {"v": 0}]
    assert store.segment_count() == 3


def test_get_reads_what_another_handle_appended(tmp_path):
    store = RecordFileStore(str(tmp_path), segment_max_records=3)
    store.append_many([{"v": i} for i in range(8)])
    other = RecordFileStore(str(tmp_path), segment_max_records=3)
    assert [r.record_id for r in other.get([6, 1])] == [6, 1]
    store.append({"v": 8})
    assert other.get([8])[0].payload == {"v": 8}


@on_both_devices
def test_follow_yields_each_record_once(root):
    store = RecordFileStore(root, segment_max_records=2)
    assert list(store.follow()) == []
    store.append_many([{"v": 0}, {"v": 1}, {"v": 2}])
    assert list(store.follow()) == []  # a handle has seen what it wrote
    store.rewind()
    assert [(r.record_id, r.payload) for r in store.follow()] == [
        (0, {"v": 0}), (1, {"v": 1}), (2, {"v": 2})]
    store.delete(1)
    assert [r.payload for r in store.get([2, 0])] == [{"v": 2}, {"v": 0}]
    with pytest.raises(KeyError):
        store.get([1])


def test_follow_yields_what_other_handles_appended(tmp_path):
    writer = RecordFileStore(str(tmp_path))
    reader = RecordFileStore(str(tmp_path))
    assert list(reader.follow()) == []
    writer.append_many([{"v": 0}, {"v": 1}])
    assert [r.payload for r in reader.follow()] == [{"v": 0}, {"v": 1}]
    assert list(reader.follow()) == []
    assert list(writer.follow()) == []  # a handle has seen what it wrote
    with open(_segment(tmp_path), "ab") as f:
        f.write(b'{"id": 2, "v"')  # another process, mid-write
    assert list(reader.follow()) == []
    with open(_segment(tmp_path), "ab") as f:
        f.write(b': 2}\n')
    assert [(r.record_id, r.payload) for r in reader.follow()] == [
        (2, {"v": 2})]


def test_a_handle_that_only_appends_and_scans_keeps_no_positions(tmp_path):
    RecordFileStore(str(tmp_path)).append_many([{"v": i} for i in range(50)])
    store = RecordFileStore(str(tmp_path))  # as the lineage log uses one
    store.append_many([{"v": i} for i in range(50, 60)])
    assert len(list(store.scan())) == 60
    assert store._where is None
    assert [r.payload for r in store.get([3, 55])] == [{"v": 3}, {"v": 55}]
    assert len(store._where) == 60


# ------------------------------------------------- crash points, raw log

#: (page, text) commits: new pages, changes, and unchanged re-commits
#: (which write nothing), with keyframe_every=2 below so chains mix
#: keyframes and deltas.
SCRIPT = [
    ("a", "one\ntwo\nthree\n"), ("b", "x\n"), ("a", "one\ntwo\nthree\n"),
    ("a", "one\n2\nthree\n"), ("c", "solo"), ("b", "x\n"),
    ("a", "one\n2\nthree\nfour\n"), ("b", "y\nx\n"), ("c", "solo"),
    ("a", "zero\none\n2\nthree\nfour\n"), ("b", ""), ("c", "solo\nduo\n"),
]


def test_a_crash_at_every_byte_of_the_last_records_reopens_to_the_model(
        tmp_path):
    base = str(tmp_path / "base")
    store = SnapshotStore(base, keyframe_every=2)
    model: dict[str, list[str]] = {}
    ends, states = [0], [{}]  # log size and model after each record
    for doc_id, text in SCRIPT:
        versions = model.setdefault(doc_id, [])
        if not versions or versions[-1] != text:
            versions.append(text)
        assert store.commit(Document(doc_id, text)) == len(versions) - 1
        size = store.total_bytes()
        if size != ends[-1]:
            ends.append(size)
            states.append({d: list(v) for d, v in model.items()})
    assert len(ends) == 10  # the three unchanged re-commits wrote nothing
    with open(_segment(base), "rb") as f:
        data = f.read()
    cuts = 0
    for cut in range(ends[-4], len(data) + 1):
        expected = states[max(i for i, end in enumerate(ends) if end <= cut)]
        root = str(tmp_path / f"cut{cut}")
        _write(_segment(root), data[:cut])
        reopened = SnapshotStore(root, keyframe_every=2)
        assert {d: reopened.latest_version(d)
                for d in reopened.doc_ids()} == {
            d: len(v) - 1 for d, v in expected.items()}
        for doc_id, versions in expected.items():
            for version, text in enumerate(versions):
                assert reopened.checkout(doc_id, version).text == text
        # the next commit is accepted, after the torn bytes are cut
        a = expected["a"]
        assert reopened.commit(Document("a", a[-1])) == len(a) - 1
        assert reopened.commit(Document("a", "after\n")) == len(a)
        again = SnapshotStore(root, keyframe_every=2)
        assert again.latest_version("a") == len(a)
        assert again.checkout("a").text == "after\n"
        assert again.checkout("a", len(a) - 1).text == a[-1]
        cuts += 1
    assert cuts > 300


# ---------------------------------------------------- ids and the dedup rule


def test_two_handles_that_commit_in_turn_keep_one_consistent_log(tmp_path):
    root = str(tmp_path)
    first = SnapshotStore(root, keyframe_every=2)
    second = SnapshotStore(root, keyframe_every=2)
    model: dict[str, list[str]] = {}
    script = [(first, "p", "a\n"), (second, "p", "a\nb\n"),
              (first, "p", "a\nb\n"), (first, "q", "q\n"),
              (second, "p", "b\n"), (first, "p", "c\nb\n"),
              (second, "q", "q\nq\n"), (second, "p", "c\nb\n")]
    for handle, doc_id, text in script:
        versions = model.setdefault(doc_id, [])
        if not versions or versions[-1] != text:
            versions.append(text)
        assert handle.commit(Document(doc_id, text)) == len(versions) - 1
        assert handle.checkout(doc_id).text == text
    records = list(RecordFileStore(root).scan())
    assert [r.record_id for r in records] == list(range(len(records)))
    assert len(records) == sum(map(len, model.values()))
    for store in (first, second, SnapshotStore(root, keyframe_every=2)):
        store.changes_since(0)
        assert {d: store.latest_version(d) for d in store.doc_ids()} == {
            d: len(v) - 1 for d, v in model.items()}
        for doc_id, versions in model.items():
            for version, text in enumerate(versions):
                assert store.checkout(doc_id, version).text == text


def test_page_ids_are_data_not_paths(tmp_path):
    root = tmp_path / "raw"
    pages = {"a/b": "slash\n", "a_b": "underscore\n", "..": "dots\n",
             ".": "dot\n", "../escape": "up\n"}
    store = SnapshotStore(str(root))
    for doc_id, text in pages.items():
        assert store.commit(Document(doc_id, text)) == 0
    assert store.commit(Document("a/b", "slash, edited\n")) == 1
    assert os.listdir(tmp_path) == ["raw"]
    assert os.listdir(root) == ["seg-0000.jsonl"]
    reopened = SnapshotStore(str(root))
    assert {d: reopened.checkout(d, 0).text
            for d in reopened.doc_ids()} == pages
    assert reopened.latest_version("a_b") == 0
    assert reopened.checkout("a/b").text == "slash, edited\n"


@pytest.mark.parametrize("doc_id", ["a/b", "..", ".", ""])
def test_full_copy_store_rejects_ids_that_are_not_file_names(
        tmp_path, doc_id):
    store = FullCopyStore(str(tmp_path / "full"))
    with pytest.raises(ValueError, match="not a valid file name"):
        store.commit(Document(doc_id, "x"))
    with pytest.raises(ValueError, match="not a valid file name"):
        store.checkout(doc_id)
    assert os.listdir(tmp_path) == ["full"]
    assert os.listdir(tmp_path / "full") == []


def test_an_unchanged_page_writes_nothing_and_keeps_its_version(tmp_path):
    store = SnapshotStore(str(tmp_path), keyframe_every=3)
    assert store.commit(Document("p", "v0\n")) == 0
    assert store.commit(Document("p", "v1\n")) == 1
    before = _files(tmp_path)
    assert store.commit(Document("p", "v1\n")) == 1
    assert SnapshotStore(str(tmp_path)).commit(Document("p", "v1\n")) == 1
    assert _files(tmp_path) == before
    assert store.commit(Document("p", "v0\n")) == 2  # an old text is a change
    assert [i.version for i in store.history("p")] == [0, 1, 2]


def test_reingesting_an_unchanged_corpus_writes_nothing_under_raw(tmp_path):
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=30, seed=5))
    ws = str(tmp_path / "ws")
    raw = os.path.join(ws, "raw")
    system = StructureManagementSystem(workspace=ws)
    system.ingest(corpus)
    assert os.listdir(raw) == ["seg-0000.jsonl"]  # no file or dir per page
    before = _files(raw)
    system.ingest(corpus)
    system.close()
    reopened = StructureManagementSystem(workspace=ws)
    reopened.ingest(corpus)
    assert _files(raw) == before
    assert {reopened.storage.raw.latest_version(d.doc_id)
            for d in corpus} == {0}
    reopened.close()


def test_opening_a_workspace_reads_nothing_from_raw(tmp_path, monkeypatch):
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=5, seed=5))
    ws = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=ws)
    system.ingest(corpus)
    system.close()
    reads = []
    real = RecordFileStore._read
    monkeypatch.setattr(RecordFileStore, "_read", lambda self, *a: (
        reads.append(self._root), real(self, *a))[1])
    StructureManagementSystem(workspace=ws).close()
    assert os.path.join(ws, "raw") not in reads


def test_a_per_directory_raw_store_is_refused_on_open(tmp_path):
    _write(str(tmp_path / "ws" / "raw" / "city_a" / "v0000.json"),
           b'{"keyframe": true, "lines": ["x"]}')
    with pytest.raises(ValueError, match="one directory per page"):
        SnapshotStore(str(tmp_path / "ws" / "raw"))
    with pytest.raises(ValueError, match="one directory per page"):
        StructureManagementSystem(workspace=str(tmp_path / "ws"))


def _unread(store):
    """Leave ``store`` as a fresh handle on its log finds it: nothing
    read yet, so the next use folds every record into the head map."""
    store._chains = None
    store._log.rewind()


@on_both_devices
def test_a_failed_head_map_pass_keeps_every_page(root, monkeypatch):
    store = SnapshotStore(root, keyframe_every=2)
    texts = ["a\n", "a\nb\n", "b\n", "c\nb\n"]
    for text in texts:
        store.commit(Document("p", text))
    store.commit(Document("q", "q\n"))
    _unread(store)
    real, calls = SnapshotStore._fold, []

    def fold_failing_once(self, record):
        calls.append(record.record_id)
        if len(calls) == 3:
            raise OSError("injected")
        real(self, record)

    monkeypatch.setattr(SnapshotStore, "_fold", fold_failing_once)
    with pytest.raises(OSError, match="injected"):
        store.doc_ids()
    assert store.doc_ids() == ["p", "q"]
    assert [store.checkout("p", v).text for v in range(4)] == texts
    assert store.changes_since(0) == (["p", "q"], [], 5)
    assert store.commit(Document("q", "q\n")) == 0
    assert store.commit(Document("p", "d\n")) == 4
    assert len(list(store._log.scan())) == 6


@on_both_devices
def test_a_log_the_store_cannot_read_fails_every_time(root):
    store = SnapshotStore(root)
    store._log.append_many([
        {"doc": "p", "v": 0, "hash": "h0", "lines": ["a\n"]},
        {"doc": "p", "v": 0, "hash": "h1", "lines": ["b\n"]}])
    _unread(store)
    for _ in range(2):
        with pytest.raises(ValueError, match="p@0 after version 0"):
            store.doc_ids()
    with pytest.raises(ValueError, match="p@0 after version 0"):
        store.changes_since(0)
    with pytest.raises(ValueError, match="p@0 after version 0"):
        store.commit(Document("q", "q\n"))
    assert [r.payload["hash"] for r in store._log.scan()] == ["h0", "h1"]
