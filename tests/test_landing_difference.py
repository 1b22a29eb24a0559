"""``generate()`` lands the difference from what its program landed before.

A program's stored facts are what it derives from the corpus now: a
re-run over an unchanged corpus writes nothing (no WAL bytes, no lineage
record, no commit delta), an edited page replaces the facts it changed,
and any mix of ingests, edits, runs, contributions and reopens ends where
a fresh system running the same programs over the final corpus ends.
"""

import re
import tempfile
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.system import StructureManagementSystem, facts_schema
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.debugger.constraints import RangeConstraint
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor, WikiTableExtractor
from repro.extraction.normalize import MONTHS, normalize_number
from repro.integration.entity_resolution import EntityResolver
from repro.storage.manager import StorageManager
from repro.userlayer.monitoring import ContinuousQuery

INFOBOX_PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
FUSED_PROGRAM = (
    'p = docs()\n'
    'b = extract(p, "infobox")\n'
    't = extract(p, "tables")\n'
    'u = union(b, t)\n'
    'c = resolve(u, "er")\n'
    'f = fuse(c, "weighted_vote")\n'
    'output f'
)
PROGRAMS = (INFOBOX_PROGRAM, FUSED_PROGRAM)
CELLS = ("entity", "attribute", "value_text", "value_num", "confidence",
         "doc_id")


def _month_attr(key_cell):
    month = key_cell.strip().lower()
    return f"{month[:3]}_temp" if month in MONTHS else None


def _system(workspace=None, cache=None, constrained=False):
    system = StructureManagementSystem(workspace=workspace, cache=cache)
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.registry.register_extractor("tables", WikiTableExtractor(
        key_column="month",
        value_normalizers={"temperature": normalize_number},
        attribute_namer=_month_attr))
    system.registry.register_resolver("er", EntityResolver(threshold=0.95))
    if constrained:  # no run learns constraints
        system.debugger.add_constraint(RangeConstraint("jul_temp", -80, 130))
    system.users.register("pat", "pw")
    return system


def _facts(system):
    """``facts`` as a multiset of its cells, ``fact_id`` aside."""
    return Counter(tuple(row[c] for c in CELLS)
                   for row in system.query("SELECT * FROM facts"))


def _edited(doc, value):
    """``doc`` with its first number replaced by ``value``."""
    return Document(doc.doc_id, re.sub(r"\d+(?:\.\d+)?", str(value),
                                       doc.text, count=1))


def test_re_runs_keep_one_copy_and_an_edit_replaces_its_fact():
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=50))
    docs = list(corpus)
    system = _system(cache="memory")
    system.ingest(docs)
    counts = []
    for _ in range(3):
        system.generate(INFOBOX_PROGRAM)
        counts.append(system.fact_count())
    assert counts == [364, 364, 364]

    page = next(d for d in docs if "| jul_temp = " in d.text)
    city = system.query(f"SELECT entity FROM facts "
                        f"WHERE doc_id = '{page.doc_id}'")[0]["entity"]
    system.ingest([Document(page.doc_id, re.sub(
        r"\| jul_temp = \S+", "| jul_temp = 999", page.text))])
    report = system.generate(INFOBOX_PROGRAM)
    assert (report.facts_stored, report.facts_retracted,
            report.facts_unchanged) == (1, 1, 363)
    assert system.fact_count() == 364
    assert [r["value_num"] for r in system.query(
        f"SELECT value_num FROM facts WHERE entity = '{city}' "
        "AND attribute = 'jul_temp'")] == [999.0]
    system.close()


@pytest.mark.parametrize("reopen", [False, True])
@pytest.mark.parametrize("cache", [None, "memory"])
def test_a_re_run_over_an_unchanged_corpus_writes_nothing(
        tmp_path, cache, reopen):
    workspace = str(tmp_path / "ws")
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=12, seed=4))
    system = _system(workspace, cache)
    system.ingest(list(corpus))
    landed = {program: system.generate(program).facts_stored
              for program in PROGRAMS}
    assert all(landed.values())
    if reopen:
        system.close()
        system = _system(workspace, cache)
    ids = sorted(r["fact_id"] for r in system.query(
        "SELECT fact_id FROM facts"))
    wal = system.db.wal_size_bytes()
    lineage = system.storage.intermediate.total_bytes()
    deltas = []
    system.db.add_delta_listener(deltas.append)
    system.monitoring.register(ContinuousQuery(
        "every_fact", "SELECT entity, attribute FROM facts"))

    for program in PROGRAMS:
        report = system.generate(program)
        assert (report.facts_stored, report.facts_retracted,
                report.facts_unchanged) == (0, 0, landed[program])
    assert sorted(r["fact_id"] for r in system.query(
        "SELECT fact_id FROM facts")) == ids
    assert system.db.wal_size_bytes() == wal
    assert system.storage.intermediate.total_bytes() == lineage
    assert deltas == []
    assert system.monitoring.pending() == []
    system.close()


def test_contributions_and_other_programs_are_never_retracted():
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=6, seed=2))
    docs = list(corpus)
    system = _system()
    system.ingest(docs)
    fused = system.generate(FUSED_PROGRAM).facts_stored
    contributed = system.contribute("pat", "Somewhere", "motto", "Onward")
    system.generate(INFOBOX_PROGRAM)
    system.ingest([Document(d.doc_id, "nothing to extract") for d in docs])
    report = system.generate(INFOBOX_PROGRAM)
    assert report.facts_stored == 0 and report.facts_retracted > 0
    rows = system.query("SELECT fact_id FROM facts")
    assert len(rows) == fused + 1
    assert contributed in {r["fact_id"] for r in rows}
    system.close()


def test_a_workspace_without_program_facts_refuses_to_open(tmp_path):
    workspace = str(tmp_path / "ws")
    db = StorageManager(workspace)
    db.final.create_table(facts_schema())
    db.close()
    with pytest.raises(ValueError, match="program_facts"):
        StructureManagementSystem(workspace=workspace)


def _infobox_system(workspace):
    """A workspace whose infobox run landed; (system, largest fact)."""
    corpus, _ = generate_city_corpus(CityCorpusConfig(
        num_cities=6, seed=5, styles=("infobox",)))
    system = _system(workspace)
    system.ingest(list(corpus))
    system.generate(INFOBOX_PROGRAM)
    top = system.query("SELECT * FROM facts ORDER BY fact_id DESC LIMIT 1")
    return system, top[0]


def _reopen(system, workspace):
    system.close()
    return _system(workspace)


def test_a_reopen_never_reuses_an_id_a_program_lists(tmp_path):
    workspace = str(tmp_path / "ws")
    system, top = _infobox_system(workspace)
    system.query(f"DELETE FROM facts WHERE fact_id = {top['fact_id']}")
    system = _reopen(system, workspace)
    contributed = system.contribute("pat", "Somewhere", "motto", "Onward")
    assert contributed > top["fact_id"]
    report = system.generate(INFOBOX_PROGRAM)
    assert (report.facts_stored, report.facts_retracted) == (1, 0)
    assert system.explain("Somewhere", "motto").endswith(
        "contributed by user pat")
    system.close()


def test_an_id_freed_by_a_retraction_explains_its_new_fact_only(tmp_path):
    workspace = str(tmp_path / "ws")
    system, top = _infobox_system(workspace)
    page = system.corpus.get(top["doc_id"])
    system.ingest([Document(page.doc_id, re.sub(
        rf"\n \| {top['attribute']} = [^\n]*", "", page.text))])
    assert system.generate(INFOBOX_PROGRAM).facts_retracted == 1
    system = _reopen(system, workspace)
    assert system.contribute("pat", "Somewhere", "motto", "Onward") > \
        top["fact_id"]
    explanation = system.explain("Somewhere", "motto")
    assert explanation.count("[fact]") == 1
    assert explanation.endswith("contributed by user pat")
    system.close()


# ----------------------------------------------------------- any mix of steps

CORPUS = list(generate_city_corpus(CityCorpusConfig(num_cities=8, seed=7))[0])
FIRST, NEW = CORPUS[:5], CORPUS[5:]

_STEPS = st.one_of(
    st.tuples(st.just("ingest"), st.sampled_from(range(len(NEW)))),
    st.tuples(st.just("edit"), st.sampled_from(range(len(CORPUS))),
              st.sampled_from([12, 57.5, 81.9, 999])),
    st.tuples(st.just("generate"), st.sampled_from(PROGRAMS)),
    st.tuples(st.just("contribute"), st.sampled_from(["Ur", "Kish"]),
              st.sampled_from(["motto", "jul_temp"]),
              st.sampled_from(["Onward", 71.5, 400.0])),
    st.just(("reopen",)),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_STEPS, max_size=10))
def test_any_mix_of_steps_ends_where_a_fresh_system_does(steps):
    with tempfile.TemporaryDirectory() as workspace:
        system = _system(workspace, constrained=True)
        system.ingest(FIRST)
        ran, contributions = [], []
        for step in steps:
            kind = step[0]
            if kind == "ingest":
                system.ingest([NEW[step[1]]])
            elif kind == "edit":
                doc_id = CORPUS[step[1]].doc_id
                if doc_id in system.corpus:
                    system.ingest([_edited(system.corpus.get(doc_id),
                                           step[2])])
            elif kind == "generate":
                system.generate(step[1])
                ran.append(step[1])
            elif kind == "contribute":
                system.contribute("pat", *step[1:])
                contributions.append(step[1:])
            else:
                system.close()
                system = _system(workspace, constrained=True)
        for program in dict.fromkeys(ran):  # the corpus may have moved on
            system.generate(program)
        final = list(system.corpus)

        fresh = _system(constrained=True)
        fresh.ingest(final)
        for program in dict.fromkeys(ran):
            fresh.generate(program)
        for contribution in contributions:
            fresh.contribute("pat", *contribution)
        assert _facts(system) == _facts(fresh)
        system.close()
        fresh.close()
