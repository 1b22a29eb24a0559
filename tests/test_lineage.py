"""The record ``_land`` appends to the intermediate store is the lineage.

Goldens (``explain()`` text, ``len(system.provenance)``) were written
against the tree that kept an eager graph and ``provenance.json``; the
views built from the lineage records must reproduce them live, after a
reopen, and for a contribution.
"""

import hashlib
import os

import pytest

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.debugger.constraints import RangeConstraint
from repro.extraction.dictionary import DictionaryExtractor
from repro.extraction.infobox import InfoboxExtractor, WikiTableExtractor
from repro.extraction.normalize import (MONTHS, normalize_number,
                                        normalize_temperature)
from repro.extraction.rules import ContextRule, RuleCascadeExtractor
from repro.integration.entity_resolution import EntityResolver

CITY_PROGRAM = (
    'pages = docs()\n'
    'box   = extract(pages, "infobox")\n'
    'prose = extract(pages, "prose")\n'
    'tabs  = extract(pages, "tables")\n'
    'u1    = union(box, prose)\n'
    'u2    = union(u1, tabs)\n'
    'canon = resolve(u2, "er")\n'
    'fused = fuse(canon, "weighted_vote")\n'
    'output fused'
)
INFOBOX_PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'

GOLDEN_NODES = 556
GOLDEN_PAIRS = 192
GOLDEN_SHA = "3a06f113841784ffdaf0e0f5238fd81e7db619d84512026b8834f26495126422"
GOLDEN_EXPLAIN = (
    "[fact] Ashburg.jul_temp = 68.9 (conf 1.00)\n"
    "  [extraction] Ashburg.jul_temp = 68.9 (conf 1.00)\n"
    "    [span] city_ashburg[1267:1271] '68.9'\n"
    "      [document] city_ashburg\n"
    "    [operator] pipeline")
GOLDEN_FLAGGED = (  # screened: the stored confidence is half the pipeline's
    "[fact] Clifmont.may_temp = 999.0 (conf 0.50)\n"
    "  [extraction] Clifmont.may_temp = 999.0 (conf 1.00)\n"
    "    [span] city_clifmont[1165:1168] '999'\n"
    "      [document] city_clifmont\n"
    "    [operator] pipeline")
GOLDEN_CONTRIBUTION = (
    "[fact] Madison.nickname = 'Mad City' (conf 0.75)\n"
    "  [feedback] contributed by user bob")


def _month_attr(key_cell):
    month = key_cell.strip().lower()
    return f"{month[:3]}_temp" if month in MONTHS else None


def _city_system(workspace=None):
    """The e2e benchmark's city program at test scale; returns the
    system and its corpus (not yet ingested)."""
    corpus, truth = generate_city_corpus(CityCorpusConfig(
        num_cities=12, seed=7, corruption_rate=0.1))
    system = StructureManagementSystem(workspace=workspace)
    rules = [
        ContextRule(f"{m[:3]}_temp", (m.capitalize(), "temperature"),
                    r"(\d+(?:\.\d+)?)\s*degrees",
                    normalizer=normalize_temperature, confidence=0.75)
        for m in MONTHS
    ]
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.registry.register_extractor("prose", RuleCascadeExtractor(
        rules=rules, entity_dictionary=DictionaryExtractor(
            attribute="city", phrases=[t.name for t in truth])))
    system.registry.register_extractor("tables", WikiTableExtractor(
        key_column="month",
        value_normalizers={"temperature": normalize_number},
        attribute_namer=_month_attr))
    system.registry.register_resolver("er", EntityResolver(threshold=0.95))
    for month in MONTHS:  # a corrupted reading is flagged: confidence halved
        system.debugger.add_constraint(
            RangeConstraint(f"{month[:3]}_temp", -80.0, 130.0))
    return system, list(corpus)


def _pairs(system):
    rows = system.query("SELECT entity, attribute FROM facts")
    return sorted({(r["entity"], r["attribute"]) for r in rows})


def _all_explanations(system):
    """(number of explained pairs, digest of every explanation)."""
    pairs = _pairs(system)
    digest = hashlib.sha256()
    for entity, attribute in pairs:
        digest.update(system.explain(entity, attribute).encode("utf-8"))
        digest.update(b"\x00")
    return len(pairs), digest.hexdigest()


def _probe(system):
    return next(e for e, a in _pairs(system) if a == "jul_temp")


def _assert_goldens(system):
    assert len(system.provenance) == GOLDEN_NODES
    assert _all_explanations(system) == (GOLDEN_PAIRS, GOLDEN_SHA)
    assert system.explain(_probe(system), "jul_temp") == GOLDEN_EXPLAIN
    assert system.explain("Clifmont", "may_temp") == GOLDEN_FLAGGED


def test_explain_and_node_count_match_goldens_live():
    system, corpus = _city_system()
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    _assert_goldens(system)
    system.close()


def test_explain_and_node_count_match_goldens_after_reopen(tmp_path):
    workspace = str(tmp_path / "ws")
    system, corpus = _city_system(workspace)
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    _assert_goldens(system)
    system.close()
    reopened = StructureManagementSystem(workspace=workspace)
    _assert_goldens(reopened)
    reopened.close()


@pytest.mark.parametrize("with_workspace", [False, True])
def test_contribution_explains_with_a_feedback_node(tmp_path, with_workspace):
    workspace = str(tmp_path / "ws") if with_workspace else None
    system, corpus = _city_system(workspace)
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    system.users.register("bob", "pw")
    system.contribute("bob", "Madison", "nickname", "Mad City")
    assert system.explain("Madison", "nickname") == GOLDEN_CONTRIBUTION
    assert len(system.provenance) == GOLDEN_NODES + 2  # fact + feedback
    system.close()
    if with_workspace:
        reopened = StructureManagementSystem(workspace=workspace)
        assert reopened.explain("Madison", "nickname") == GOLDEN_CONTRIBUTION
        assert len(reopened.provenance) == GOLDEN_NODES + 2
        reopened.close()


def test_lineage_survives_a_process_that_never_closed(tmp_path):
    workspace = str(tmp_path / "ws")
    system, corpus = _city_system(workspace)
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    # dropped without close(): every committed batch's lineage is on disk
    del system
    second = StructureManagementSystem(workspace=workspace)
    _assert_goldens(second)
    second.close()


def _file_stats(root):
    stats = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            st = os.stat(path)
            stats[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return stats


def test_close_after_landing_nothing_writes_nothing(tmp_path):
    workspace = str(tmp_path / "ws")
    system, corpus = _city_system(workspace)
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    system.close()
    before = _file_stats(workspace)
    reopened = StructureManagementSystem(workspace=workspace)
    assert reopened.fact_count() > 0
    assert not reopened.explain(_probe(reopened),
                                "jul_temp").startswith("no recorded")
    reopened.close()
    assert _file_stats(workspace) == before


def test_failed_lineage_append_never_borrows_another_facts_lineage(
        tmp_path, monkeypatch):
    workspace = str(tmp_path / "ws")
    system, corpus = _city_system(workspace)
    first, second = corpus[:6], corpus[6:]
    system.ingest(first)
    store = system.storage.intermediate
    real_append = store.append_many

    def failing_append(payloads):
        raise OSError("disk full")

    monkeypatch.setattr(store, "append_many", failing_append)
    with pytest.raises(OSError):
        system.generate(INFOBOX_PROGRAM)
    monkeypatch.setattr(store, "append_many", real_append)
    lost = _pairs(system)
    assert lost  # the insert committed before the append failed
    landed = system.fact_count()
    for entity, attribute in lost:
        assert system.explain(entity, attribute) == \
            f"no recorded provenance for {entity}.{attribute}"

    system.ingest(second)
    report = system.generate(INFOBOX_PROGRAM)
    assert report.facts_stored > 0
    assert report.facts_unchanged == landed  # kept, lineage or not
    for entity, attribute in _pairs(system):
        explanation = system.explain(entity, attribute)
        if (entity, attribute) in lost:
            assert explanation.startswith("no recorded provenance")
        else:
            assert explanation.startswith(f"[fact] {entity}.{attribute} = ")
    system.close()


def test_keyword_facts_equal_before_close_and_after_reopen(tmp_path):
    workspace = str(tmp_path / "ws")
    system, corpus = _city_system(workspace)
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    probe = _probe(system)
    queries = [probe, f"{probe} jul_temp", "population"]
    before = [system.keyword_facts(q, k=5) for q in queries]
    assert all(before)
    system.close()
    reopened = StructureManagementSystem(workspace=workspace)
    assert [reopened.keyword_facts(q, k=5) for q in queries] == before
    # facts landed after the reopen join the same index, in landing order
    reopened.users.register("bob", "pw")
    reopened.contribute("bob", probe, "nickname", "Mad City")
    assert reopened.keyword_facts("Mad City nickname", k=1) == [
        {"entity": probe, "attribute": "nickname", "value": "Mad City"}]
    reopened.close()


def test_workspace_holds_only_the_documented_entries(tmp_path):
    workspace = str(tmp_path / "ws")
    system, corpus = _city_system(workspace)
    system.ingest(corpus)
    system.generate(CITY_PROGRAM)
    system.close()
    entries = set(os.listdir(workspace))
    assert entries == {
        "raw", "intermediate", "final", "deadletter", "slowlog"}
