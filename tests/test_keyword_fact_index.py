"""The keyword fact index catches up from the write history of ``facts``.

Whatever writes ``facts`` — ``_land`` (generate, contribute),
``unify_attributes``, raw SQL, a hand-written transaction — the next
search re-indexes the rows written since (or rebuilds), so
``keyword_facts`` answers as an index built from scratch out of the rows
of ``facts`` would.  A commit runs no index code.
"""

import sys
import tempfile
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.storage.rdbms import engine
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.normalize import MONTHS
from repro.userlayer.index import InvertedIndex
from repro.userlayer.search import KeywordSearchEngine

INFOBOX_PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
CORPUS, TRUTH = generate_city_corpus(CityCorpusConfig(num_cities=4, seed=88))
DOCS = list(CORPUS)
CITIES = [t.name for t in TRUTH]
ENTITIES = CITIES[:2] + ["Town1", "Bay Town"]
ATTRIBUTES = ["nickname", "jul_temp", "july_temperature", "motto"]
VALUES = ["Old Town", "Old Harbor", 70.0, 71.5]
QUERIES = ["jul_temp", "july_temperature", "nickname", "motto", "Old",
           "New Harbor", "Bay", "70", CITIES[0], f"{CITIES[1]} population"]


def _contributed_system():
    system = StructureManagementSystem()
    system.users.register("pat", "pw")
    system.contribute("pat", "Town1", "nickname", "Old Town")
    system.contribute("pat", "Town2", "nickname", "Old Harbor")
    return system


def test_raw_sql_writes_reach_keyword_facts():
    system = _contributed_system()
    assert len(system.keyword_facts("Old", k=5)) == 2
    system.query(f"UPDATE {FACTS_TABLE} SET value_text = 'New Harbor' "
                 "WHERE entity = 'Town2'")
    assert system.keyword_facts("New", k=5) == [
        {"entity": "Town2", "attribute": "nickname", "value": "New Harbor"}]
    system.query(f"INSERT INTO {FACTS_TABLE} (fact_id, entity, attribute, "
                 "value_text, confidence, doc_id) VALUES "
                 "(100, 'Bay Town', 'nickname', 'Bay Town', 1.0, 'sql')")
    assert system.keyword_facts("Bay", k=5) == [
        {"entity": "Bay Town", "attribute": "nickname", "value": "Bay Town"}]
    system.query(f"UPDATE {FACTS_TABLE} SET attribute = 'motto' "
                 "WHERE entity = 'Town1'")
    assert system.keyword_facts("motto", k=5) == [
        {"entity": "Town1", "attribute": "motto", "value": "Old Town"}]
    system.close()


def test_a_system_that_never_searches_facts_indexes_none():
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(DOCS)
    assert system.generate(INFOBOX_PROGRAM).facts_stored > 0
    system.users.register("pat", "pw")
    system.contribute("pat", "Town1", "nickname", "Old Town")
    assert system.search.fact_count() == 0
    assert not system.db._listeners           # no commit folds a delta
    assert system.keyword_facts(CITIES[0], k=3)  # the first search builds
    assert system.search.fact_count() == system.fact_count()
    system.close()


def test_ddl_on_facts_clears_the_index_and_the_next_search_rebuilds_it():
    system = _contributed_system()
    assert len(system.keyword_facts("Old", k=5)) == 2
    schema = system.db.schema(FACTS_TABLE)
    system.db.alter_table(FACTS_TABLE, schema, lambda row: {
        **row, "value_text": (row["value_text"] or "").replace("Old", "Odd")})
    assert system.keyword_facts("Old", k=5) == []
    assert len(system.keyword_facts("Odd", k=5)) == 2
    system.close()


def test_a_transaction_writing_a_fact_several_times_leaves_its_last_row():
    system = _contributed_system()
    assert system.keyword_facts("Town1", k=5)
    row = {"entity": "Ghost", "attribute": "nickname", "value_text": "Boo",
           "value_num": None, "confidence": 1.0, "doc_id": "sql"}

    def script(t):
        ghost = t.insert(FACTS_TABLE, {**row, "fact_id": -1})
        t.delete(FACTS_TABLE, ghost.rid)           # made and consumed
        town1, town2 = sorted(
            t.scan(FACTS_TABLE), key=lambda r: r.values["entity"])
        t.delete(FACTS_TABLE, town1.rid)           # its id comes back ...
        t.insert(FACTS_TABLE, {**town1.values, "value_text": "Bay Town"})
        t.update(FACTS_TABLE, town2.rid, {"attribute": "motto"})
        t.update(FACTS_TABLE, town2.rid, {"attribute": "nickname"})  # undone

    system.db.run(script)
    assert system.keyword_facts("Boo", k=5) == []
    assert system.keyword_facts("Old", k=5) == [
        {"entity": "Town2", "attribute": "nickname", "value": "Old Harbor"}]
    assert system.keyword_facts("Bay", k=5) == [
        {"entity": "Town1", "attribute": "nickname", "value": "Bay Town"}]
    assert system.search.fact_count() == 2
    system.close()


def test_a_search_after_several_commits_to_a_row_indexes_its_last():
    system = _contributed_system()
    assert system.keyword_facts("Old", k=5)
    for text in ("Mid Town", "Last Town"):
        system.query(f"UPDATE {FACTS_TABLE} SET value_text = '{text}' "
                     "WHERE entity = 'Town1'")
    assert system.keyword_facts("Mid", k=5) == []
    assert system.keyword_facts("Last", k=5) == [
        {"entity": "Town1", "attribute": "nickname", "value": "Last Town"}]
    system.close()


def _spy(monkeypatch):
    """Record every KeywordSearchEngine call (name, args) and every
    CommitDelta the engine builds."""
    calls, deltas = [], []
    for name, method in list(vars(KeywordSearchEngine).items()):
        if callable(method) and name != "__init__":
            def spy(self, *args, _name=name, _method=method, **kwargs):
                calls.append((_name, args))
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(KeywordSearchEngine, name, spy)

    class Counted(engine.CommitDelta):
        def __init__(self, *args, **kwargs):
            deltas.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "CommitDelta", Counted)
    return calls, deltas


def _rids(system):
    with system.db.begin_snapshot() as snap:
        return {row["entity"]: row.rid for row in snap.scan(FACTS_TABLE)}


def test_a_commit_runs_no_index_code_and_a_search_takes_in_what_it_wrote(
        monkeypatch):
    system = _contributed_system()
    system.query(f"INSERT INTO {FACTS_TABLE} (fact_id, entity, attribute, "
                 "value_text, confidence, doc_id) VALUES "
                 "(100, 'Bay Town', 'nickname', 'Bay Town', 1.0, 'sql')")
    assert system.keyword_facts("Old", k=5)
    before = _rids(system)
    calls, deltas = _spy(monkeypatch)
    system.query(f"UPDATE {FACTS_TABLE} SET value_text = 'New Harbor' "
                 "WHERE entity = 'Town2'")
    system.query(f"DELETE FROM {FACTS_TABLE} WHERE entity = 'Town1'")
    system.contribute("pat", "Town3", "nickname", "Old Mill")
    assert calls == [] and deltas == []  # writers run no index code
    after = _rids(system)
    system.keyword_facts("Old", k=5)
    (_, (facts, rewritten)), = [c for c in calls if c[0] == "index_facts"]
    assert set(rewritten) == {before["Town1"], after["Town2"],
                              after["Town3"]}
    assert facts.keys() == {after["Town2"], after["Town3"]}
    assert "clear_facts" not in dict(calls)
    calls.clear()
    system.keyword_facts("Old", k=5)  # nothing written: nothing indexed
    assert [(args[0], set(args[1])) for name, args in calls
            if name == "index_facts"] == [({}, set())]
    assert system.search._facts == _rebuilt(system)._facts
    system.close()


def test_after_ddl_or_a_trimmed_history_the_next_search_rebuilds_once(
        monkeypatch):
    system = _contributed_system()
    assert system.keyword_facts("Old", k=5)
    calls, _ = _spy(monkeypatch)

    def rebuilds():
        system.keyword_facts("Old", k=5)
        system.keyword_facts("Old", k=5)
        found = [name for name, _ in calls if name == "clear_facts"]
        indexed = [len(args[0]) for name, args in calls
                   if name == "index_facts"]
        calls.clear()
        return len(found), indexed

    assert rebuilds() == (0, [0, 0])
    schema = system.db.schema(FACTS_TABLE)
    system.db.alter_table(FACTS_TABLE, schema, lambda row: row)
    assert rebuilds() == (1, [2, 0])
    # one commit of more rows than the history keeps trims it off
    system.db.run(lambda t: t.write_many(FACTS_TABLE, [
        ("insert", {"fact_id": 1000 + i, "entity": f"Town{i}",
                    "attribute": "nickname", "value_text": "Bay",
                    "value_num": None, "confidence": 1.0, "doc_id": "sql"})
        for i in range(100)]))
    assert rebuilds() == (1, [102, 0])
    system.query(f"DELETE FROM {FACTS_TABLE} WHERE fact_id = 1000")
    assert rebuilds() == (0, [0, 0])
    assert system.search._facts == _rebuilt(system)._facts
    system.close()


def test_a_large_open_transaction_makes_no_search_rebuild(monkeypatch):
    system = _contributed_system()
    system.db.create_table(TableSchema("other", (
        Column("k", ColumnType.INT),)))
    assert system.keyword_facts("Old", k=5)
    calls, _ = _spy(monkeypatch)
    txn = system.db.begin()  # more rows than the history keeps, open
    txn.insert_many("other", [{"k": i} for i in range(100)])
    txn.insert("facts", {"fact_id": 100, "entity": "Bay Town",
                         "attribute": "nickname", "value_text": "Bay",
                         "value_num": None, "confidence": 1.0,
                         "doc_id": "sql"})
    assert system.keyword_facts("Bay", k=5) == []
    txn.commit()
    assert system.keyword_facts("Bay", k=5) == [
        {"entity": "Bay Town", "attribute": "nickname", "value": "Bay"}]
    assert "clear_facts" not in dict(calls)
    system.close()


def test_writers_and_searchers_in_threads_leave_the_index_as_a_rebuild():
    system = _contributed_system()
    assert system.keyword_facts("Old", k=5)
    rids = [row.rid for row in system.db.run(
        lambda t: t.scan(FACTS_TABLE))]
    failures = []

    def writer(w):
        for i in range(150):
            rid = rids[i % len(rids)]
            system.db.run(lambda t: t.update(
                FACTS_TABLE, rid, {"value_text": f"w{w}v{i}"}))

    def searcher():
        for _ in range(150):
            system.keyword_facts("nickname", k=5)

    def recording(work, *args):
        try:
            work(*args)
        except Exception as exc:  # asserted empty below
            failures.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=recording, args=(writer, w))
                   for w in range(3)] + [
            threading.Thread(target=recording, args=(searcher,))
            for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    rebuilt = _rebuilt(system)
    assert system.search._facts == rebuilt._facts
    assert system.search.search_facts("nickname", k=5) == \
        rebuilt.search_facts("nickname", k=5)
    system.close()


def test_removing_many_documents_filters_each_posting_list_once():
    class Counting(dict):
        visited = 0

        def __getitem__(self, term):
            Counting.visited += 1
            return super().__getitem__(term)

    index = InvertedIndex(_postings=Counting())
    for i in range(2000):
        index.add(f"fact:{i}", f"City{i} july_temperature {i % 10}")
    Counting.visited = 0
    index.remove(*(f"fact:{i}" for i in range(0, 2000, 2)))
    # city1000 terms + the shared attribute + five of the ten digits
    assert Counting.visited == 1000 + 1 + 5
    assert len(index) == 1000 and index.document_frequency("city2") == 0
    assert index.document_frequency("july_temperature") == 1000


# ----------------------------------------------- property: any mix of writers


def _rebuilt(system):
    """An index built from scratch out of the rows of ``facts``."""
    engine = KeywordSearchEngine(system.storage.raw)
    with system.db.begin_snapshot() as snap:
        engine.index_facts({row.rid: _fact(row) for row
                            in snap.scan(FACTS_TABLE)})
    return engine


def _fact(row):
    return {"fact_id": row["fact_id"], "entity": row["entity"],
            "attribute": row["attribute"],
            "value": row["value_text"] if row["value_num"] is None
            else row["value_num"]}


def _assert_answers_as_rebuilt(system, step):
    rebuilt = _rebuilt(system)
    facts = {row["fact_id"]: _fact(row)
             for row in system.query(f"SELECT * FROM {FACTS_TABLE}")}
    for query in QUERIES:
        expected = rebuilt.search_facts(query, k=8)
        assert system.keyword_facts(query, k=8) == [
            {key: facts[fact_id][key]
             for key in ("entity", "attribute", "value")}
            for fact_id in expected], (step, query)
        # the index itself, not only what the primary-key read lets by
        assert system.search.search_facts(query, k=8) == expected
    assert system.search._facts == rebuilt._facts
    assert system.search.fact_count() == rebuilt.fact_count()


def _open(workspace):
    system = StructureManagementSystem(workspace=workspace)
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.users.register("pat", "pw")
    return system


def _value_cells(value):
    return ("NULL", repr(value)) if isinstance(value, float) \
        else (f"'{value}'", "NULL")


_STEPS = st.one_of(
    st.tuples(st.just("contribute"), st.sampled_from(ENTITIES),
              st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES)),
    st.tuples(st.just("generate"),
              st.lists(st.sampled_from(range(len(DOCS))), min_size=1,
                       max_size=2, unique=True)),
    st.just(("unify",)),
    st.tuples(st.just("insert"), st.sampled_from(ENTITIES),
              st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES)),
    st.tuples(st.just("update"), st.sampled_from([
        "UPDATE facts SET value_text = 'New Harbor', value_num = NULL "
        "WHERE entity = '{entity}'",
        "UPDATE facts SET attribute = 'motto' WHERE attribute = 'nickname'",
        "UPDATE facts SET value_num = 71.5 WHERE attribute = 'jul_temp'",
        "UPDATE facts SET entity = 'Bay Town' WHERE entity = '{entity}'",
    ]), st.sampled_from(ENTITIES)),
    st.tuples(st.just("delete"), st.sampled_from([
        "DELETE FROM facts WHERE entity = '{entity}'",
        "DELETE FROM facts WHERE attribute = 'july_temperature'",
        "DELETE FROM facts WHERE value_num > 70.5",
    ]), st.sampled_from(ENTITIES)),
    st.just(("compact",)),
    st.just(("reopen",)),
)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(_STEPS, max_size=8), search_first=st.booleans())
def test_keyword_facts_equal_a_rebuild_after_any_mix_of_writers(
        steps, search_first):
    with tempfile.TemporaryDirectory() as workspace:
        system = _open(workspace)
        if search_first:
            assert system.keyword_facts("anything") == []
        raw_ids = iter(range(-1, -1000, -1))  # never a _land fact id
        for step in steps:
            kind = step[0]
            if kind == "contribute":
                system.contribute("pat", *step[1:])
            elif kind == "generate":
                system.ingest([DOCS[i] for i in step[1]])
                system.generate(INFOBOX_PROGRAM)
            elif kind == "unify":
                system.unify_attributes(
                    [f"{m}_temperature" for m in MONTHS],
                    [f"{m[:3]}_temp" for m in MONTHS])
            elif kind == "insert":
                text, num = _value_cells(step[3])
                system.query(
                    f"INSERT INTO facts (fact_id, entity, attribute, "
                    f"value_text, value_num, confidence, doc_id) VALUES "
                    f"({next(raw_ids)}, '{step[1]}', '{step[2]}', {text}, "
                    f"{num}, 1.0, 'sql')")
            elif kind in ("update", "delete"):
                system.query(step[1].format(entity=step[2]))
            elif kind == "compact":
                system.compact()
            else:
                system.close()
                system = _open(workspace)
            _assert_answers_as_rebuilt(system, step)
        system.close()
