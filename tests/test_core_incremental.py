"""Incremental best-effort generation (DGE model, Section 3.2): one xlog
program per demand over a shared extraction cache.  "What has already
run" is a cache hit; a demand's cost is the characters it scanned times
the extractor's ``cost_per_char``; and through ``system.generate()`` a
demanded fact lands like any other."""

from repro.cache.store import LRUExtractionCache
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document, Span
from repro.extraction.base import Extraction
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.regex_extractor import RegexExtractor
from repro.extraction.normalize import normalize_number
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry

MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
          "jul", "aug", "sep", "oct", "nov", "dec")
ONE_SHOT = ('p = docs()\n'
            't = extract(p, "temps")\n'
            'n = extract(p, "population")\n'
            's = extract(p, "state")\n'
            'tn = union(t, n)\n'
            'all = union(tn, s)\n'
            'output all')


def _system():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=12, seed=17, styles=("infobox",))
    )
    system = StructureManagementSystem(cache="memory")
    system.registry.register_extractor("temps", InfoboxExtractor(
        include_fields=tuple(f"{m}_temp" for m in MONTHS)))
    system.registry.register_extractor("population", RegexExtractor(
        pattern=r"population = (?P<population>[\d,]+)",
        normalizers={"population": normalize_number}))
    system.registry.register_extractor("state", RegexExtractor(
        pattern=r"state = (?P<state>[A-Za-z ]+)"))
    system.ingest(corpus)
    return system, truth


def _demand(system, extractor, attribute=None):
    """Run the program of one demand; returns (report, its cost)."""
    program = f'p = docs()\nf = extract(p, "{extractor}")\n'
    if attribute is None:
        program += 'output f'
    else:
        program += f'g = filter(f, attribute = "{attribute}")\noutput g'
    report = system.generate(program)
    return report, report.chars_scanned \
        * system.registry.extractor(extractor).cost_per_char


def _facts(system):
    return sorted(
        (r["entity"], r["attribute"], str(r["value_num"]), str(r["value_text"]))
        for r in system.query(f"SELECT * FROM {FACTS_TABLE}"))


def test_demand_is_cached():
    system, _ = _system()
    first, cost = _demand(system, "temps", "sep_temp")
    assert cost > 0 and first.cache_misses == len(system.corpus)
    again, cost = _demand(system, "temps", "jan_temp")  # same extractor
    assert cost == 0
    assert (again.cache_hits, again.cache_misses) == (len(system.corpus), 0)
    assert again.facts_stored == first.facts_stored == len(system.corpus)


def test_incremental_cost_grows_with_need():
    system, _ = _system()
    _, cost1 = _demand(system, "temps", "sep_temp")
    _, cost2 = _demand(system, "population")
    assert cost1 + cost2 > cost1 > 0


def test_incremental_total_can_stay_below_one_shot():
    incremental, _ = _system()
    spent = _demand(incremental, "temps", "sep_temp")[1] \
        + _demand(incremental, "population")[1]
    one_shot, _ = _system()
    corpus_chars = sum(len(d.text) for d in one_shot.corpus)
    assert one_shot.generate(ONE_SHOT).chars_scanned == 3 * corpus_chars
    assert spent < corpus_chars * sum(  # 'state' never needed
        one_shot.registry.extractor(name).cost_per_char
        for name in ("temps", "population", "state"))


def test_one_shot_equals_incremental_union():
    a, _ = _system()
    for extractor in ("temps", "population", "state"):
        _demand(a, extractor)
    b, _ = _system()
    b.generate(ONE_SHOT)
    assert _facts(a) == _facts(b) != []


def test_values_match_ground_truth():
    system, truth = _system()
    _demand(system, "temps", "sep_temp")
    by_city = {r["entity"]: r["value_num"] for r in system.query(
        f"SELECT entity, value_num FROM {FACTS_TABLE} "
        "WHERE attribute = 'sep_temp'")}
    for facts in truth:
        assert by_city[facts.name] == facts.monthly_temps[8]


def test_on_demand_programs_share_one_cache():
    system, _ = _system()
    corpus_chars = sum(len(d.text) for d in system.corpus)
    first, _ = _demand(system, "temps", "sep_temp")
    assert first.chars_scanned == corpus_chars
    second, _ = _demand(system, "temps", "jan_temp")  # already extracted
    assert second.chars_scanned == 0
    third, _ = _demand(system, "population")           # the new extractor
    assert third.chars_scanned == corpus_chars
    assert third.cache_misses == len(system.corpus)
    # every demanded fact landed like any other: stored, with lineage,
    # keyword-indexed, nothing dead-lettered
    stored = system.query(f"SELECT entity, attribute FROM {FACTS_TABLE}")
    assert len(stored) == first.facts_stored + second.facts_stored \
        + third.facts_stored == 3 * len(system.corpus)
    assert {r["attribute"] for r in stored} == \
        {"sep_temp", "jan_temp", "population"}
    for row in stored:
        assert system.explain(row["entity"], row["attribute"]).startswith(
            f"[fact] {row['entity']}.{row['attribute']} = ")
    hits = system.keyword_facts("population", k=3)
    assert [h["attribute"] for h in hits] == ["population"] * 3
    assert system.deadletter.entries() == []


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


ECHO = 'p = docs()\nf = extract(p, "echo")\noutput f'


def _two_docs():
    return [Document("a", "xy"), Document("b", "zw")]


def test_flaky_document_is_extracted_once_and_counted_once():
    registry = OperatorRegistry()
    registry.register_extractor("echo", _Flaky("b", failures=2))
    cache = LRUExtractionCache()
    first = run_program(ECHO, _two_docs(), registry, optimize=False,
                        cache=cache)
    again = run_program(ECHO, _two_docs(), registry, optimize=False,
                        cache=cache)
    assert [(r["entity"], r["value"]) for r in first.rows] == \
        [("a", "xy"), ("b", "zw")]
    assert again.rows == first.rows
    # each character scanned once, over both demands
    assert first.stats.total_chars_scanned == 4
    assert again.stats.total_chars_scanned == 0
    assert first.failed_docs == again.failed_docs == []


def test_exhausted_document_is_skipped_and_reported_not_raised():
    system = StructureManagementSystem(cache="memory")
    system.registry.register_extractor("echo", _Flaky("a", failures=99))
    system.ingest(_two_docs())
    report = system.generate(ECHO, optimize=False)
    assert (report.facts_stored, report.failed_doc_ids) == (1, ["a"])
    assert [(r["entity"], r["value_text"]) for r in system.query(
        f"SELECT entity, value_text FROM {FACTS_TABLE}")] == [("b", "zw")]
    assert [(e.doc_id, e.extractor, e.error_type, e.attempts)
            for e in system.deadletter.entries()] == \
        [("a", "echo", "RuntimeError", 3)]
    # a failure is retried by the next demand, not remembered; the page
    # that succeeded is a hit
    again = system.generate(ECHO, optimize=False)
    assert (again.cache_hits, again.failed_doc_ids) == (1, ["a"])
