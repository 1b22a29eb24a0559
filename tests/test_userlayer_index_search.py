"""Tests for the inverted index and keyword search engine."""

import pytest

from repro.docmodel.document import Document
from repro.storage.snapshots import SnapshotStore
from repro.userlayer.index import InvertedIndex, index_tokens
from repro.userlayer.search import KeywordSearchEngine


def test_index_tokens():
    assert index_tokens("Madison's sep_temp = 70!") == [
        "madison", "s", "sep_temp", "70"
    ]


def test_add_and_search_ranks_relevant_first():
    index = InvertedIndex()
    index.add("relevant", "madison temperature madison weather")
    index.add("less", "madison city hall")
    index.add("noise", "unrelated page about trains")
    hits = index.search("madison temperature")
    assert hits[0].doc_id == "relevant"
    assert {h.doc_id for h in hits} == {"relevant", "less"}


def test_duplicate_add_rejected():
    index = InvertedIndex()
    index.add("a", "text")
    with pytest.raises(ValueError):
        index.add("a", "text again")


def test_remove_document():
    index = InvertedIndex()
    index.add("a", "unique term here")
    index.add("b", "other things")
    index.remove("a")
    assert index.search("unique") == []
    assert len(index) == 1
    with pytest.raises(KeyError):
        index.remove("a")


def test_remove_visits_only_the_documents_own_posting_lists():
    class Counting(dict):
        visited = 0

        def __getitem__(self, term):
            Counting.visited += 1
            return super().__getitem__(term)

    texts = {f"fact{i}": f"entity_{i} attr_{i % 7} value {i} shared Shared"
             for i in range(60)}
    index = InvertedIndex(_postings=Counting())
    for doc_id, text in texts.items():
        index.add(doc_id, text)
    assert len(index.terms()) > 100
    for i in (3, 31, 59, 10):        # first of a list, middle, last
        Counting.visited = 0
        index.remove(f"fact{i}")
        assert Counting.visited == 5  # entity, attr, value, i, shared
        del texts[f"fact{i}"]
    index.add("fact31", "entity_31 now says something else")
    texts["fact31"] = "entity_31 now says something else"
    rebuilt = InvertedIndex()
    for doc_id in sorted(texts, key=lambda d: (d == "fact31", int(d[4:]))):
        rebuilt.add(doc_id, texts[doc_id])
    assert index._postings == rebuilt._postings   # posting order too
    for query in ("shared", "attr_3 value", "entity_31", "59", "else 12"):
        assert index.search(query, k=100) == rebuilt.search(query, k=100)


def test_idf_prefers_rare_terms():
    index = InvertedIndex()
    for i in range(10):
        index.add(f"common{i}", "common words everywhere")
    index.add("rare", "common words everywhere zanzibar")
    hits = index.search("zanzibar")
    assert hits[0].doc_id == "rare" and len(hits) == 1


def test_length_normalization():
    index = InvertedIndex()
    index.add("short", "madison")
    index.add("long", "madison " + "filler " * 200)
    hits = index.search("madison")
    assert hits[0].doc_id == "short"


def test_search_empty_query_or_index():
    index = InvertedIndex()
    assert index.search("anything") == []
    index.add("a", "text")
    assert index.search("") == []


def test_top_k_limit():
    index = InvertedIndex()
    for i in range(30):
        index.add(f"d{i}", "same words here")
    assert len(index.search("words", k=7)) == 7


def test_document_frequency_and_contains():
    index = InvertedIndex()
    index.add("a", "apple banana")
    index.add("b", "apple")
    assert index.document_frequency("apple") == 2
    assert index.document_frequency("banana") == 1
    assert "a" in index and "zz" not in index


def _pages(*docs):
    pages = SnapshotStore(None)
    for doc in docs:
        pages.commit(doc)
    return pages


def test_engine_indexes_corpus_and_snippets():
    engine = KeywordSearchEngine(_pages(
        Document("d1", "x " * 50 + "the september temperature is 70 " + "y " * 50),
        Document("d2", "irrelevant content"),
    ))
    results = engine.search("september temperature")
    assert results[0].doc_id == "d1"
    assert "september" in results[0].snippet.lower()
    assert "..." in results[0].snippet


def test_engine_fact_search():
    engine = KeywordSearchEngine(_pages())
    engine.index_facts({
        1: {"fact_id": 7, "entity": "Madison", "attribute": "sep_temp",
            "value": 70.0},
        2: {"fact_id": 9, "entity": "Austin", "attribute": "sep_temp",
            "value": 85.0},
    })
    assert engine.search_facts("madison sep_temp") == [7, 9]
    assert engine.fact_count() == 2
    # a rewritten row replaces what was indexed from it
    engine.index_facts({1: {"fact_id": 7, "entity": "Madison",
                            "attribute": "september_temp", "value": 70.0}},
                       rewritten=[1])
    assert engine.fact_count() == 2
    assert engine.search_facts("sep_temp") == [9]
    assert engine.search_facts("september_temp") == [7]
    # a deleted one drops it
    engine.index_facts({}, rewritten=[2])
    assert engine.search_facts("sep_temp") == []
    assert engine.fact_count() == 1


def test_engine_finds_a_committed_page_only():
    engine = KeywordSearchEngine(_pages(Document("d1", "hello")))
    assert [r.doc_id for r in engine.search("hello")] == ["d1"]
    assert engine.corpus_size() == 1
