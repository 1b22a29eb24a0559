"""Tests for incremental best-effort extraction."""

import pytest

from repro.core.incremental import IncrementalExtractionManager
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document, Span
from repro.extraction.base import Extraction
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.regex_extractor import RegexExtractor
from repro.extraction.normalize import normalize_number


def _manager():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=12, seed=17, styles=("infobox",))
    )
    manager = IncrementalExtractionManager(corpus=list(corpus))
    manager.register(
        "temps",
        InfoboxExtractor(include_fields=tuple(
            f"{m}_temp" for m in
            ("jan", "feb", "mar", "apr", "may", "jun",
             "jul", "aug", "sep", "oct", "nov", "dec")
        )),
        attributes=[f"{m}_temp" for m in
                    ("jan", "feb", "mar", "apr", "may", "jun",
                     "jul", "aug", "sep", "oct", "nov", "dec")],
    )
    manager.register(
        "population",
        RegexExtractor(pattern=r"population = (?P<population>[\d,]+)",
                       normalizers={"population": normalize_number}),
        attributes=["population"],
    )
    manager.register(
        "state",
        RegexExtractor(pattern=r"state = (?P<state>[A-Za-z ]+)"),
        attributes=["state"],
    )
    return manager, truth


def test_demand_runs_only_covering_extractors():
    manager, _ = _manager()
    results = manager.demand(["sep_temp"])
    assert results
    assert all(r.attribute == "sep_temp" for r in results)
    assert manager.demanded_attributes() >= {"sep_temp", "jan_temp"}
    assert "population" not in manager.demanded_attributes()


def test_demand_is_cached():
    manager, _ = _manager()
    manager.demand(["sep_temp"])
    work_after_first = manager.work_done
    manager.demand(["sep_temp", "jan_temp"])  # same extractor, no rerun
    assert manager.work_done == work_after_first


def test_incremental_cost_grows_with_need():
    manager, _ = _manager()
    manager.demand(["sep_temp"])
    cost1 = manager.work_done
    manager.demand(["population"])
    cost2 = manager.work_done
    assert cost2 > cost1


def test_incremental_total_can_stay_below_one_shot():
    incremental, _ = _manager()
    incremental.demand(["sep_temp"])
    incremental.demand(["population"])
    one_shot, _ = _manager()
    one_shot.extract_all()
    assert incremental.work_done < one_shot.work_done  # 'state' never needed


def test_one_shot_equals_incremental_union():
    a, _ = _manager()
    a.demand(["sep_temp"])
    a.demand(["population"])
    a.demand(["state"])
    b, _ = _manager()
    b.extract_all()
    key = lambda e: (e.entity, e.attribute, str(e.value))
    assert sorted(map(key, a.cached())) == sorted(map(key, b.cached()))


def test_unknown_attribute_raises():
    manager, _ = _manager()
    with pytest.raises(KeyError):
        manager.demand(["nonexistent_attr"])


def test_register_validation():
    manager = IncrementalExtractionManager(corpus=[])
    extractor = RegexExtractor(pattern=r"(?P<x>\d)")
    manager.register("a", extractor, ["x"])
    with pytest.raises(ValueError):
        manager.register("a", extractor, ["y"])
    with pytest.raises(ValueError):
        manager.register("b", extractor, [])


def test_values_match_ground_truth():
    manager, truth = _manager()
    results = manager.demand(["sep_temp"])
    by_city = {r.entity: r.value for r in results}
    for facts in truth:
        assert by_city[facts.name] == facts.monthly_temps[8]


# ------------------------------------------------------- failure atomicity


class _Flaky:
    """Doubles every letter of a document into one extraction; fails the
    first ``failures`` calls on the document named ``victim``."""

    cost_per_char = 1.5

    def __init__(self, victim, failures):
        self.victim = victim
        self._left = failures

    def extract(self, doc):
        if doc.doc_id == self.victim and self._left > 0:
            self._left -= 1
            raise RuntimeError("transient")
        return [Extraction(doc.doc_id, "echo", doc.text,
                           Span(doc.doc_id, 0, len(doc.text), doc.text))]


def _two_docs():
    return [Document("a", "xy"), Document("b", "zw")]


def test_flaky_document_is_extracted_once_and_counted_once():
    # Regression: the parent raised half-way through the corpus with the
    # first document's extractions already kept, so the second demand()
    # returned them twice and double-counted work_done (6.0 for 4 chars).
    manager = IncrementalExtractionManager(corpus=_two_docs())
    manager.register("echo", _Flaky("b", failures=2), ["echo"])
    first = manager.demand(["echo"])
    again = manager.demand(["echo"])
    assert [(e.entity, e.value) for e in first] == [("a", "xy"), ("b", "zw")]
    assert again == first
    assert manager.work_done == 1.5 * 4  # each scanned character once
    assert manager.failures == []


def test_exhausted_document_is_skipped_and_reported_not_raised():
    manager = IncrementalExtractionManager(corpus=_two_docs())
    manager.register("echo", _Flaky("a", failures=99), ["echo"])
    results = manager.demand(["echo"])
    assert [(e.entity, e.value) for e in results] == [("b", "zw")]
    assert manager.demand(["echo"]) == results
    assert manager.work_done == 1.5 * 2  # the quarantined scan yielded nothing
    assert [(f["doc_id"], f["extractor"], f["error_type"], f["attempts"])
            for f in manager.failures] == [("a", "echo", "RuntimeError", 3)]
