"""Tests for the append-only record file store.

The tests that take ``root`` run on both devices (a directory, and memory
for ``root=None``).  Directory-only: ``test_reopen_recovers_next_id``,
``test_handles_appending_in_turn_never_reuse_an_id`` and
``test_reopened_store_recovers_on_its_first_write_whatever_it_is`` (reopen
across handles: a memory store is one handle), and
``test_append_many_across_rotation_matches_per_record_append`` (it
compares two stores' segment files byte for byte).
"""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.filestore import RecordFileStore, UncutWriteError
from tests.devices import failing, on_both_devices


@on_both_devices
def test_append_assigns_increasing_ids(root):
    store = RecordFileStore(root)
    ids = [store.append({"v": i}) for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]


@on_both_devices
def test_scan_returns_in_order(root):
    store = RecordFileStore(root)
    store.append_many([{"v": i} for i in range(4)])
    assert [r.payload["v"] for r in store.scan()] == [0, 1, 2, 3]


@on_both_devices
def test_delete_tombstones(root):
    store = RecordFileStore(root)
    ids = store.append_many([{"v": i} for i in range(3)])
    store.delete(ids[1])
    assert [r.payload["v"] for r in store.scan()] == [0, 2]
    assert store.count() == 2


@on_both_devices
def test_reserved_key_rejected(root):
    store = RecordFileStore(root)
    with pytest.raises(ValueError):
        store.append({"__deleted__": True})


@on_both_devices
def test_segment_rotation(root):
    store = RecordFileStore(root, segment_max_records=3)
    store.append_many([{"v": i} for i in range(10)])
    assert store.segment_count() == 4
    assert store.count() == 10


@on_both_devices
def test_compact_drops_tombstones_and_shrinks(root):
    store = RecordFileStore(root, segment_max_records=5)
    ids = store.append_many([{"v": i} for i in range(20)])
    for rid in ids[:15]:
        store.delete(rid)
    before = store.total_bytes()
    live = store.compact()
    assert live == 5
    assert store.total_bytes() < before
    assert [r.payload["v"] for r in store.scan()] == [15, 16, 17, 18, 19]


def test_reopen_recovers_next_id(tmp_path):
    store = RecordFileStore(str(tmp_path))
    store.append_many([{"v": 1}, {"v": 2}])
    reopened = RecordFileStore(str(tmp_path))
    new_id = reopened.append({"v": 3})
    assert new_id == 2
    assert reopened.count() == 3


@on_both_devices
def test_scan_where(root):
    store = RecordFileStore(root)
    store.append_many([{"v": i} for i in range(10)])
    evens = list(store.scan_where(lambda p: p["v"] % 2 == 0))
    assert [r.payload["v"] for r in evens] == [0, 2, 4, 6, 8]


@on_both_devices
def test_invalid_segment_size(root):
    with pytest.raises(ValueError):
        RecordFileStore(root, segment_max_records=0)


@on_both_devices
def test_ids_continue_after_compact(root):
    store = RecordFileStore(root)
    ids = store.append_many([{"v": i} for i in range(3)])
    store.delete(ids[0])
    store.compact()
    assert store.append({"v": 99}) > ids[-1]


def _segment_bytes(root):
    return {name: (root / name).read_bytes() for name in sorted(
        p.name for p in root.iterdir())}


def test_append_many_across_rotation_matches_per_record_append(tmp_path):
    payloads = [{"v": i, "text": "x" * i} for i in range(11)]
    one_by_one = RecordFileStore(str(tmp_path / "a"), segment_max_records=4)
    one_by_one.append({"v": "head"})  # batches start mid-segment
    ids = [one_by_one.append(p) for p in payloads]
    batched = RecordFileStore(str(tmp_path / "b"), segment_max_records=4)
    batched.append({"v": "head"})
    assert batched.append_many(payloads[:7]) == ids[:7]
    assert batched.append_many(payloads[7:]) == ids[7:]
    assert batched.segment_count() == 3
    assert _segment_bytes(tmp_path / "b") == _segment_bytes(tmp_path / "a")
    assert batched.append({"v": "tail"}) == one_by_one.append({"v": "tail"})
    assert _segment_bytes(tmp_path / "b") == _segment_bytes(tmp_path / "a")


@on_both_devices
def test_append_many_rejecting_a_payload_writes_nothing(root):
    store = RecordFileStore(root)
    with pytest.raises(ValueError):
        store.append_many([{"v": 1}, {"__deleted__": True}])
    assert store.count() == 0 and store.append({"v": 2}) == 0


@pytest.mark.parametrize("segment_max_records", [2, 100])
def test_handles_appending_in_turn_never_reuse_an_id(
        tmp_path, segment_max_records):
    first, second = (RecordFileStore(str(tmp_path),
                                     segment_max_records=segment_max_records)
                     for _ in range(2))
    ids = []
    for i, handle in enumerate([first, second, first, first, second, first]):
        ids += handle.append_many([{"v": i}, {"v": i}])
    assert ids == list(range(12))
    assert [r.record_id for r in RecordFileStore(str(tmp_path)).scan()] == ids


def test_reopened_store_recovers_on_its_first_write_whatever_it_is(tmp_path):
    store = RecordFileStore(str(tmp_path), segment_max_records=3)
    ids = store.append_many([{"v": i} for i in range(5)])
    deleter = RecordFileStore(str(tmp_path), segment_max_records=3)
    deleter.delete(ids[4])  # lands in the active segment, not a new one
    assert deleter.segment_count() == 2
    compactor = RecordFileStore(str(tmp_path), segment_max_records=3)
    assert compactor.compact() == 4
    assert compactor.append({"v": "next"}) == 5  # ids are never reused


@on_both_devices
def test_compact_and_clear_remove_the_segments_they_empty(root):
    store = RecordFileStore(root, segment_max_records=4)
    ids = store.append_many([{"v": i} for i in range(10)])
    store.delete(*ids[:6])
    assert store.segment_count() == 4
    assert store.compact() == 4
    assert store.segment_count() == 1
    assert store.clear() == 1
    assert (store.segment_count(), store.total_bytes()) == (0, 0)
    assert store.append({"v": "again"}) == 0


def test_reading_one_record_from_memory_copies_that_line():
    store = RecordFileStore(None)
    text = "x" * 100_000
    store.append_many([{"text": text}] * 105)
    assert store.segment_count() == 1
    assert store.total_bytes() >= 10 * 2**20
    store.get([0])  # positions are read once, on the first get
    tracemalloc.start()
    try:
        [record] = store.get([52])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.payload == {"text": text}
    assert peak < 2**20


@pytest.mark.parametrize("shape", ["one string", "many strings", "rows"])
def test_appending_a_1_mb_record_holds_at_most_one_encoded_copy(
        tmp_path, shape):
    """The payload is traced too: the peak stays under it plus one copy
    of its line (a line is encoded as it is written, never held whole
    as text and as bytes)."""
    store = RecordFileStore(str(tmp_path))
    tracemalloc.start()
    try:
        payload = {"one string": lambda: {"text": "é" * 180_000},
                   "many strings": lambda: {"parts": [
                       "y" * 16_000 for _ in range(64)]},
                   "rows": lambda: {"rows": {str(rid): {
                       "n": rid, "f": rid / 3, "s": f"s{rid}", "b": None}
                       for rid in range(16_000)}}}[shape]()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        store.append(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    line = (tmp_path / "seg-0000.jsonl").read_bytes()
    assert len(line) >= 10**6 and json.loads(line)["id"] == 0
    assert peak <= held + len(line)


@given(payload=st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 70), 1 << 70)
    | st.floats() | st.text(max_size=3) | st.sampled_from(
        ["x" * 40_000, "é\U0001F600\n" * 9_000]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2) | st.integers(), inner,
                      max_size=4)
    | st.lists(st.integers(), min_size=3_000, max_size=3_000),
    max_leaves=12))
@settings(max_examples=80, deadline=None)
def test_a_line_written_in_pieces_is_the_json_of_its_record(payload):
    store = RecordFileStore(None)
    store.append_many([{"v": payload}, {"w": [payload, payload]}])
    expected = "".join(json.dumps(record) + "\n" for record in (
        {"id": 0, "v": payload}, {"id": 1, "w": [payload, payload]}))
    assert bytes(store._device._data[0]) == expected.encode("ascii")
    assert store.appended_bytes == len(expected)


# ------------------------------------------------- a write that raises


@pytest.mark.parametrize("fail", ["write", "sync"])
@pytest.mark.parametrize("after", [0, 1])  # 1: it fails in a second segment
@on_both_devices
def test_an_append_that_raises_leaves_none_of_its_lines(root, fail, after):
    store = RecordFileStore(root, segment_max_records=3, sync=True)
    store.append_many([{"v": 0}, {"v": 1}])
    store.get([0])                            # the handle keeps positions
    with failing(store, fail, after=after):
        with pytest.raises(OSError):
            store.append_many([{"v": i} for i in range(2, 7)])
        with pytest.raises(OSError):
            store.delete(0)
    assert [(r.record_id, r.payload) for r in store.scan()] == [
        (0, {"v": 0}), (1, {"v": 1})]
    assert store.append_many([{"v": "next"}, {"v": "then"}]) == [2, 3]
    assert store.get([1, 3])[1].payload == {"v": "then"}
    if root is not None:                      # another handle reads the same
        assert [r.payload["v"] for r in RecordFileStore(root).scan()] == [
            0, 1, "next", "then"]


@on_both_devices
def test_a_handle_that_cannot_take_a_write_back_writes_no_more(root):
    store = RecordFileStore(root)
    store.append({"v": 0})
    with failing(store, "write", cut=False):
        with pytest.raises(UncutWriteError):
            store.append({"v": 1})
    for write in (lambda: store.append({"v": 2}), lambda: store.delete(0),
                  store.compact, store.rotate):
        with pytest.raises(UncutWriteError):
            write()
    assert [r.payload["v"] for r in store.scan()] == [0, 1]  # it stayed
