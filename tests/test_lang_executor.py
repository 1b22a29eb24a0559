"""Tests for the xlog executor."""

import pytest

from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.docmodel.document import Document
from repro.extraction.dictionary import DictionaryExtractor
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.normalize import normalize_temperature
from repro.extraction.rules import ContextRule, RuleCascadeExtractor
from repro.hi.crowd import SimulatedCrowd
from repro.integration.entity_resolution import EntityResolver
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry, RegistryError


def _registry(crowd=None, oracle=None):
    registry = OperatorRegistry(crowd=crowd, hi_truth_oracle=oracle)
    cities = DictionaryExtractor(
        attribute="city", phrases=["Madison", "Chicago"]
    )
    registry.register_extractor(
        "temps",
        RuleCascadeExtractor(
            rules=[ContextRule("sep_temp", ("September", "temperature"),
                               r"(\d+)\s*degrees",
                               normalizer=normalize_temperature,
                               confidence=0.7)],
            entity_dictionary=cities,
        ),
    )
    registry.register_extractor("cities", cities)
    registry.register_extractor("infobox", InfoboxExtractor())
    registry.register_resolver("er", EntityResolver())
    return registry


CORPUS = [
    Document("d1", "The September temperature in Madison is 70 degrees."),
    Document("d2", "The September temperature in Chicago is 65 degrees."),
    Document("d3", "{{Infobox city | name = Madison | sep_temp = 71 }}"),
    Document("d4", "Nothing to see here at all."),
]


def test_extract_filter_select():
    program = (
        'a = docs()\nb = extract(a, "temps")\n'
        "c = filter(b, value >= 68)\n"
        "d = select(c, entity, value)\noutput d"
    )
    result = run_program(program, CORPUS, _registry(), optimize=False)
    assert result.rows == [{"entity": "Madison", "value": 70.0}]


def test_union_and_fuse():
    program = (
        'a = docs()\nb = extract(a, "temps")\nc = extract(a, "infobox")\n'
        'u = union(b, c)\nf = fuse(u, "weighted_vote")\n'
        'final = filter(f, attribute = "sep_temp")\noutput final'
    )
    result = run_program(program, CORPUS, _registry(), optimize=False)
    by_entity = {r["entity"]: r for r in result.rows}
    # infobox (0.97) beats prose (0.7) for Madison: 71 wins
    assert by_entity["Madison"]["value"] == 71.0
    assert by_entity["Madison"]["conflict"] == 1
    assert by_entity["Chicago"]["value"] == 65.0


def test_join_on_entity():
    program = (
        'a = docs()\nt = extract(a, "temps")\nc = extract(a, "cities")\n'
        "j = join(t, c, on = entity)\noutput j"
    )
    result = run_program(program, CORPUS, _registry(), optimize=False)
    assert all(r["entity"] in ("Madison", "Chicago") for r in result.rows)
    assert len(result.rows) >= 2


def test_limit():
    program = ('a = docs()\nb = extract(a, "cities")\nc = limit(b, 1)\noutput c')
    result = run_program(program, CORPUS, _registry(), optimize=False)
    assert len(result.rows) == 1


def test_resolve_canonicalizes_entities():
    docs = [
        Document("p1", "David Smith is a researcher."),
        Document("p2", "D. Smith wrote a paper."),
    ]
    registry = OperatorRegistry()
    registry.register_extractor(
        "names",
        DictionaryExtractor(attribute="person",
                            phrases=["David Smith", "D. Smith"]),
    )
    registry.register_resolver("er", EntityResolver())
    program = ('a = docs()\nb = extract(a, "names")\nc = resolve(b, "er")\noutput c')
    result = run_program(program, docs, registry, optimize=False)
    assert {r["entity"] for r in result.rows} == {"David Smith"}


def test_ask_validate_drops_crowd_rejected():
    # oracle says tuples with value < 68 are wrong; a reliable crowd drops them
    crowd = SimulatedCrowd.uniform(5, accuracy=0.98, seed=1)
    registry = _registry(crowd=crowd, oracle=lambda row: row["value"] >= 68)
    program = (
        'a = docs()\nb = extract(a, "temps")\n'
        'c = ask(b, "validate", redundancy = 5)\noutput c'
    )
    result = run_program(program, CORPUS, registry, optimize=False)
    assert {r["entity"] for r in result.rows} == {"Madison"}
    assert result.stats.hi_questions == 10  # 2 tuples x 5 workers


def test_ask_verify_sets_confidence_to_vote_share():
    crowd = SimulatedCrowd.uniform(5, accuracy=1.0, seed=1)
    registry = _registry(crowd=crowd, oracle=lambda row: True)
    program = (
        'a = docs()\nb = extract(a, "temps")\n'
        'c = ask(b, "verify", redundancy = 5)\noutput c'
    )
    result = run_program(program, CORPUS, registry, optimize=False)
    assert all(r["confidence"] == 1.0 for r in result.rows)


def test_ask_where_routes_subset():
    crowd = SimulatedCrowd.uniform(3, accuracy=1.0, seed=1)
    registry = _registry(crowd=crowd, oracle=lambda row: True)
    program = (
        'a = docs()\nb = extract(a, "temps")\n'
        'c = ask(b, "validate", where = value < 68, redundancy = 3)\noutput c'
    )
    result = run_program(program, CORPUS, registry, optimize=False)
    assert result.stats.hi_questions == 3  # only Chicago (65) routed
    assert len(result.rows) == 2  # Madison passed through, Chicago accepted


def test_ask_without_crowd_raises():
    registry = _registry(crowd=None)
    program = ('a = docs()\nb = extract(a, "temps")\nc = ask(b, "validate")\noutput c')
    with pytest.raises(RuntimeError):
        run_program(program, CORPUS, registry, optimize=False)


def test_unknown_extractor_raises():
    program = 'a = docs()\nb = extract(a, "ghost")\noutput b'
    with pytest.raises(RegistryError):
        run_program(program, CORPUS, _registry(), optimize=False)


def test_optimized_equals_naive_results():
    program = (
        'a = docs()\nb = extract(a, "temps")\n'
        "c = filter(b, confidence >= 0.5)\noutput c"
    )
    registry = _registry()
    naive = run_program(program, CORPUS, registry, optimize=False)
    optimized = run_program(program, CORPUS, registry, optimize=True)
    key = lambda r: (r["entity"], r["attribute"], r["value"])
    assert sorted(map(key, naive.rows)) == sorted(map(key, optimized.rows))


def test_stats_track_extraction_work():
    program = 'a = docs()\nb = extract(a, "temps")\noutput b'
    result = run_program(program, CORPUS, _registry(), optimize=False)
    assert result.stats.total_chars_scanned == sum(len(d.text) for d in CORPUS)
    assert result.stats.docs_extracted["temps@b"] == 4


def test_cluster_execution_matches_inline():
    program = 'a = docs()\nb = extract(a, "temps")\noutput b'
    registry = _registry()
    inline = run_program(program, CORPUS, registry, optimize=False)
    cluster = SimulatedCluster(ClusterConfig(num_workers=3, seed=2))
    parallel = run_program(program, CORPUS, registry, optimize=False,
                           backend=cluster)
    key = lambda r: (r["doc_id"], r["attribute"], r["value"])
    assert sorted(map(key, inline.rows)) == sorted(map(key, parallel.rows))
    assert parallel.stats.cluster_makespan > 0


def test_dedup_all_fields_and_by_keys():
    program = (
        'a = docs()\nb = extract(a, "cities")\nc = extract(a, "cities")\n'
        "u = union(b, c)\nd = dedup(u)\noutput d"
    )
    result = run_program(program, CORPUS, _registry(), optimize=False)
    single = run_program(
        'a = docs()\nb = extract(a, "cities")\noutput b',
        CORPUS, _registry(), optimize=False,
    )
    assert len(result.rows) == len(single.rows)

    by_key = (
        'a = docs()\nb = extract(a, "cities")\n'
        "d = dedup(b, entity)\noutput d"
    )
    result = run_program(by_key, CORPUS, _registry(), optimize=False)
    entities = [r["entity"] for r in result.rows]
    assert len(entities) == len(set(entities))


def test_dedup_first_occurrence_wins():
    program = (
        'a = docs()\nhigh = extract(a, "infobox")\nlow = extract(a, "temps")\n'
        "u = union(high, low)\nd = dedup(u, entity, attribute)\noutput d"
    )
    result = run_program(program, CORPUS, _registry(), optimize=False)
    madison_sep = [r for r in result.rows
                   if r["entity"] == "Madison" and r["attribute"] == "sep_temp"]
    assert len(madison_sep) == 1
    assert madison_sep[0]["extractor"] == "infobox"  # union order preserved


def test_doc_stream_output_rendered_as_rows():
    program = 'a = docs()\noutput a'
    result = run_program(program, CORPUS, _registry(), optimize=False)
    assert [r["doc_id"] for r in result.rows] == ["d1", "d2", "d3", "d4"]
