"""Tests for the diff-based snapshot store.

The tests that take ``root`` run on both devices (a directory, and memory
for ``root=None``).  ``test_diff_store_smaller_than_full_copy_on_overlap``
stays directory-only: it weighs the log against ``FullCopyStore``'s files.
"""

import pytest

from repro.datagen.churn import churn_corpus
from repro.docmodel.corpus import InMemoryCorpus
from repro.docmodel.document import Document
from repro.storage.snapshots import (
    FullCopyStore,
    SnapshotStore,
    apply_delta,
    compute_delta,
)
from tests.devices import on_both_devices


def test_delta_roundtrip_basic():
    old = ["a\n", "b\n", "c\n"]
    new = ["a\n", "B\n", "c\n", "d\n"]
    delta = compute_delta(old, new)
    assert apply_delta(old, delta) == new


def test_delta_empty_to_content():
    delta = compute_delta([], ["x\n"])
    assert apply_delta([], delta) == ["x\n"]


def test_delta_content_to_empty():
    delta = compute_delta(["x\n", "y\n"], [])
    assert apply_delta(["x\n", "y\n"], delta) == []


def test_apply_delta_detects_corruption():
    delta = compute_delta(["a\n", "b\n"], ["a\n"])
    with pytest.raises(ValueError):
        apply_delta(["a\n"], delta)  # wrong base


@on_both_devices
def test_commit_and_checkout_latest(root):
    store = SnapshotStore(root)
    doc = Document("page", "line1\nline2\n")
    assert store.commit(doc) == 0
    doc2 = Document("page", "line1\nline2 changed\nline3\n")
    assert store.commit(doc2) == 1
    assert store.checkout("page").text == doc2.text
    assert store.checkout("page", 0).text == doc.text


@on_both_devices
def test_checkout_unknown_raises(root):
    store = SnapshotStore(root)
    with pytest.raises(KeyError):
        store.checkout("missing")
    store.commit(Document("p", "x"))
    with pytest.raises(KeyError):
        store.checkout("p", 5)


@on_both_devices
def test_keyframe_interval(root):
    store = SnapshotStore(root, keyframe_every=3)
    for i in range(7):
        store.commit(Document("p", f"version {i}\ncommon\n"))
    infos = list(store.history("p"))
    keyframes = [i.version for i in infos if i.is_keyframe]
    assert keyframes == [0, 3, 6]
    # every version still reconstructs
    for i in range(7):
        assert store.checkout("p", i).text == f"version {i}\ncommon\n"


@on_both_devices
def test_invalid_keyframe_interval(root):
    with pytest.raises(ValueError):
        SnapshotStore(root, keyframe_every=0)


def test_diff_store_smaller_than_full_copy_on_overlap(tmp_path):
    base = "\n".join(f"line {i} with stable content here" for i in range(80))
    diff_store = SnapshotStore(str(tmp_path / "diff"), keyframe_every=50)
    full_store = FullCopyStore(str(tmp_path / "full"))
    corpus = InMemoryCorpus([Document("p", base)])
    for day in range(10):
        doc = next(iter(corpus))
        diff_store.commit(doc)
        full_store.commit(doc)
        corpus = churn_corpus(corpus, change_fraction=0.05, seed=day)
    assert diff_store.total_bytes() < full_store.total_bytes() / 2


@on_both_devices
def test_multiple_documents_tracked_separately(root):
    store = SnapshotStore(root)
    store.commit(Document("a", "A0"))
    store.commit(Document("b", "B0"))
    store.commit(Document("a", "A1"))
    assert store.latest_version("a") == 1
    assert store.latest_version("b") == 0
    assert store.doc_ids() == ["a", "b"]
    assert store.checkout("b").text == "B0"


def test_full_copy_store_checkout(tmp_path):
    store = FullCopyStore(str(tmp_path))
    store.commit(Document("p", "v0"))
    store.commit(Document("p", "v1"))
    assert store.checkout("p").text == "v1"
    assert store.checkout("p", 0).text == "v0"
    with pytest.raises(KeyError):
        store.checkout("missing")
