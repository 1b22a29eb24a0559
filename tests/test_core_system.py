"""Tests for the end-to-end StructureManagementSystem."""

import statistics

import pytest

from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.normalize import MONTHS, normalize_temperature
from repro.extraction.rules import ContextRule, RuleCascadeExtractor
from repro.extraction.dictionary import DictionaryExtractor
from repro.hi.crowd import SimulatedCrowd
from repro.integration.entity_resolution import EntityResolver

PROGRAM = """
pages = docs()
facts = extract(pages, "infobox")
output facts
"""


@pytest.fixture
def city_system():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=16, seed=13)
    )
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    names = [t.name for t in truth]
    cities = DictionaryExtractor(attribute="city", phrases=names)
    rules = [
        ContextRule(f"{m[:3]}_temp", (m.capitalize(), "temperature"),
                    r"(\d+(?:\.\d+)?)\s*degrees",
                    normalizer=normalize_temperature, confidence=0.75)
        for m in MONTHS
    ]
    system.registry.register_extractor(
        "prose", RuleCascadeExtractor(rules=rules, entity_dictionary=cities)
    )
    system.registry.register_resolver("er", EntityResolver())
    system.registry.crowd = SimulatedCrowd.uniform(5, accuracy=0.95, seed=3)
    system.ingest(corpus)
    return system, truth


def test_ingest_indexes_pages(city_system):
    system, truth = city_system
    assert system.search.corpus_size() == 16
    hits = system.keyword(f"{truth[0].name} climate")
    assert hits


def test_reingesting_an_edited_page_reindexes_it():
    system = StructureManagementSystem()
    system.ingest([Document("p1", "Madison is a city with lakes")])
    system.ingest([Document("p1", "Springfield has a nuclear plant")])
    assert [(r.doc_id, r.snippet) for r in system.keyword("nuclear")] == [
        ("p1", "Springfield has a nuclear plant")]
    assert system.keyword("lakes") == []
    system.close()


def test_the_last_of_a_doc_id_repeated_in_one_batch_is_indexed():
    system = StructureManagementSystem()
    system.ingest([Document("p1", "Madison is a city with lakes"),
                   Document("p1", "Springfield has a nuclear plant")])
    assert system.corpus.get("p1").text == "Springfield has a nuclear plant"
    assert [r.doc_id for r in system.keyword("nuclear")] == ["p1"]
    assert system.keyword("lakes") == []
    system.close()


def test_a_page_committed_to_the_raw_log_is_reindexed(tmp_path):
    system = StructureManagementSystem(workspace=str(tmp_path / "ws"))
    system.ingest([Document("p1", "Madison is a city with lakes")])
    system.storage.raw.commit(Document("p1", "Springfield has a plant"))
    assert len(system.corpus) == 1
    assert [r.doc_id for r in system.keyword("springfield")] == ["p1"]
    assert system.keyword("lakes") == []
    system.close()


def test_generate_stores_queryable_facts(city_system):
    system, truth = city_system
    report = system.generate(PROGRAM)
    assert report.facts_stored > 0
    assert system.fact_count() == report.facts_stored
    infobox_city = next(t for t in truth if t.style == "infobox")
    rows = system.query(
        f"SELECT value_num FROM {FACTS_TABLE} "
        f"WHERE entity = '{infobox_city.name}' AND attribute = 'sep_temp'"
    )
    assert rows and rows[0]["value_num"] == infobox_city.monthly_temps[8]


def test_aggregate_query_matches_ground_truth(city_system):
    system, truth = city_system
    system.generate(PROGRAM)
    infobox_city = next(t for t in truth if t.style == "infobox")
    months = ["mar", "apr", "may", "jun", "jul", "aug", "sep"]
    attr_list = ", ".join(f"'{m}_temp'" for m in months)
    rows = system.query(
        f"SELECT AVG(value_num) AS avg_t FROM {FACTS_TABLE} "
        f"WHERE entity = '{infobox_city.name}' AND attribute IN ({attr_list})"
    )
    expected = statistics.fmean(infobox_city.monthly_temps[2:9])
    assert rows[0]["avg_t"] == pytest.approx(expected)


def test_generate_with_full_pipeline_program(city_system):
    system, truth = city_system
    program = """
pages = docs()
box = extract(pages, "infobox")
prose = extract(pages, "prose")
all = union(box, prose)
canon = resolve(all, "er")
fused = fuse(canon, "weighted_vote")
output fused
"""
    report = system.generate(program)
    assert report.facts_stored > 0
    # prose-only cities are now covered too
    prose_city = next(t for t in truth if t.style == "prose")
    rows = system.query(
        f"SELECT value_num FROM {FACTS_TABLE} "
        f"WHERE entity = '{prose_city.name}' AND attribute = 'sep_temp'"
    )
    assert rows and rows[0]["value_num"] == pytest.approx(
        prose_city.monthly_temps[8]
    )


def test_debugger_flags_corrupted_extraction():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=40, seed=21, corruption_rate=0.2)
    )
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    # teach the debugger sane ranges under both attribute naming styles
    system.debugger.learn(
        [{f"{m[:3]}_temp": t.monthly_temps[i]}
         for t in truth for i, m in enumerate(MONTHS)]
        + [{f"{m}_temperature": t.monthly_temps[i]}
           for t in truth for i, m in enumerate(MONTHS)]
        + [{"population": float(t.population)} for t in truth]
    )
    report = system.generate(PROGRAM)
    corrupted_infobox_cities = [
        t for t in truth
        if t.corrupted_month is not None and t.style in ("infobox",
                                                         "infobox_long")
    ]
    assert corrupted_infobox_cities, "seed produced no corrupted infobox city"
    assert report.facts_flagged >= len(corrupted_infobox_cities)
    flagged_values = {a.detail["value"] for a in system.debugger.alerts}
    assert any(t.corrupted_value in flagged_values
               for t in corrupted_infobox_cities)


def test_flagged_facts_get_halved_confidence():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=40, seed=21, corruption_rate=0.2)
    )
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    system.debugger.learn([
        {f"{m[:3]}_temp": t.monthly_temps[i]}
        for t in truth for i, m in enumerate(MONTHS)
    ])
    system.generate(PROGRAM)
    corrupted = next(
        t for t in truth
        if t.corrupted_month is not None and t.style == "infobox"
    )
    attr = f"{MONTHS[corrupted.corrupted_month][:3]}_temp"
    rows = system.query(
        f"SELECT confidence FROM {FACTS_TABLE} "
        f"WHERE entity = '{corrupted.name}' AND attribute = '{attr}'"
    )
    assert rows and rows[0]["confidence"] < 0.6


def test_translator_reflects_stored_structure(city_system):
    system, truth = city_system
    system.generate(PROGRAM)
    translator = system.translator()
    infobox_city = next(t for t in truth if t.style == "infobox")
    candidates = translator.translate(
        f"average sep_temp {infobox_city.name}"
    )
    assert candidates
    rows = system.query(candidates[0].sql)
    assert rows[0]["result"] == pytest.approx(infobox_city.monthly_temps[8])


def test_session_end_to_end(city_system):
    system, truth = city_system
    system.generate(PROGRAM)
    infobox_city = next(t for t in truth if t.style == "infobox")
    session = system.session("enduser")
    session.keyword(f"{infobox_city.name} temperature")
    session.suggest(f"average sep_temp {infobox_city.name}")
    rows = session.choose(0)
    assert rows[0]["result"] == pytest.approx(infobox_city.monthly_temps[8])
    assert "enduser" in session.transcript()


def test_explain_produces_provenance(city_system):
    system, truth = city_system
    system.generate(PROGRAM)
    infobox_city = next(t for t in truth if t.style == "infobox")
    explanation = system.explain(infobox_city.name, "sep_temp")
    assert "[fact]" in explanation
    assert "[span]" in explanation
    assert system.explain("Nowhere", "nothing").startswith("no recorded")


def test_keyword_facts_search(city_system):
    system, truth = city_system
    system.generate(PROGRAM)
    infobox_city = next(t for t in truth if t.style == "infobox")
    facts = system.keyword_facts(f"{infobox_city.name} population")
    assert any(f["attribute"].startswith("population") for f in facts)


def test_workspace_persistence(tmp_path, city_system):
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=4, seed=2))
    system = StructureManagementSystem(workspace=str(tmp_path / "ws"))
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    system.generate(PROGRAM)
    stored = system.fact_count()
    assert stored > 0
    assert system.storage.intermediate.count() > 0
    assert system.storage.raw.latest_version(next(iter(corpus)).doc_id) == 0
    system.close()
    # reopen: final structure survives via WAL recovery
    reopened = StructureManagementSystem(workspace=str(tmp_path / "ws"))
    assert reopened.fact_count() == stored
    reopened.close()


def test_generation_report_counts(city_system):
    system, _ = city_system
    report = system.generate(PROGRAM)
    assert report.intermediate_records == report.facts_stored
    assert report.chars_scanned > 0
    assert "extract" in report.plan_rendering
