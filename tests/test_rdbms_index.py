"""Tests for hash and sorted indexes."""

from repro.storage.rdbms.index import HashIndex, SortedIndex


def test_hash_insert_lookup_remove():
    index = HashIndex("t", "c")
    index.insert("a", 1)
    index.insert("a", 2)
    index.insert("b", 3)
    assert index.lookup("a") == [1, 2]
    index.remove("a", 1)
    assert index.lookup("a") == [2]
    assert index.lookup("missing") == []


def test_hash_ignores_none_values():
    index = HashIndex("t", "c")
    index.insert(None, 1)
    assert len(index) == 0
    index.remove(None, 1)  # no-op, no error


def test_hash_buckets_stay_sorted_without_per_lookup_sort():
    # Out-of-order inserts, duplicates, and removals must leave buckets
    # already sorted: lookup() is a plain O(k) copy, so it returns the
    # deterministic ascending order only if mutation maintains it.
    index = HashIndex("t", "c")
    for rid in [9, 2, 7, 2, 0, 5]:
        index.insert("a", rid)
    assert index._buckets["a"] == sorted(set([9, 2, 7, 2, 0, 5]))
    index.remove("a", 7)
    assert index._buckets["a"] == [0, 2, 5, 9]
    assert index.lookup("a") == [0, 2, 5, 9]
    assert index.lookup("a") is not index._buckets["a"]  # caller-owned copy


def test_hash_update_moves_rid():
    index = HashIndex("t", "c")
    index.insert("a", 1)
    index.update("a", "b", 1)
    assert index.lookup("a") == []
    assert index.lookup("b") == [1]


def test_hash_update_same_value_noop():
    index = HashIndex("t", "c")
    index.insert("a", 1)
    index.update("a", "a", 1)
    assert index.lookup("a") == [1]


def test_sorted_lookup_and_duplicates():
    index = SortedIndex("t", "c")
    for rid, value in enumerate([5, 3, 5, 1]):
        index.insert(value, rid)
    assert index.lookup(5) == [0, 2]
    assert index.lookup(4) == []


def test_sorted_range_inclusive_exclusive():
    index = SortedIndex("t", "c")
    for rid, value in enumerate([1, 2, 3, 4, 5]):
        index.insert(value, rid)
    assert list(index.range(2, 4)) == [1, 2, 3]
    assert list(index.range(2, 4, include_low=False)) == [2, 3]
    assert list(index.range(2, 4, include_high=False)) == [1, 2]
    assert list(index.range(low=4)) == [3, 4]
    assert list(index.range(high=2)) == [0, 1]
    assert list(index.range()) == [0, 1, 2, 3, 4]


def test_sorted_remove():
    index = SortedIndex("t", "c")
    index.insert(1, 0)
    index.insert(1, 1)
    index.remove(1, 0)
    assert index.lookup(1) == [1]
    index.remove(99, 5)  # unknown pair: silent


def test_sorted_ignores_none():
    index = SortedIndex("t", "c")
    index.insert(None, 1)
    assert len(index) == 0
