"""Tests for continuous-query monitoring and the built-in form library."""

import pytest

from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.storage.rdbms.engine import Database
from repro.storage.rdbms.sql import execute_sql
from repro.userlayer.builtin_forms import builtin_forms, register_builtin_forms
from repro.userlayer.forms import FormCatalog
from repro.userlayer.monitoring import (ContinuousQuery, ContinuousQueryManager,
                                       canonical_key_bytes)


# ------------------------------------------------------------- monitoring


@pytest.fixture
def db():
    database = Database()
    execute_sql(database, "CREATE TABLE facts (entity TEXT, attribute TEXT, "
                          "value_num FLOAT)")
    return database


def _insert(db, entity, attribute, value):
    execute_sql(db, f"INSERT INTO facts (entity, attribute, value_num) "
                    f"VALUES ('{entity}', '{attribute}', {value})")


def test_new_matches_are_delivered_once(db):
    manager = ContinuousQueryManager(db)
    manager.register(ContinuousQuery(
        "hot", "SELECT entity, value_num FROM facts "
               "WHERE attribute = 'sep_temp' AND value_num > 90",
    ))
    assert manager.poke() == 0
    # matches are delivered at commit time via the delta stream
    _insert(db, "Phoenix", "sep_temp", 95.0)
    assert manager.pending("hot")[0].row["entity"] == "Phoenix"
    # same row does not notify twice, by poke or by further commits
    assert manager.poke() == 0
    _insert(db, "Tucson", "sep_temp", 93.0)
    assert [n.row["entity"] for n in manager.pending("hot")] \
        == ["Phoenix", "Tucson"]
    assert manager.poke() == 0


def test_existing_rows_absorbed_unless_requested(db):
    _insert(db, "Phoenix", "sep_temp", 95.0)
    manager = ContinuousQueryManager(db)
    delivered = manager.register(ContinuousQuery(
        "hot", "SELECT entity FROM facts WHERE value_num > 90"))
    assert delivered == 0
    assert manager.poke() == 0  # existing row was absorbed
    manager2 = ContinuousQueryManager(db)
    delivered = manager2.register(
        ContinuousQuery("hot", "SELECT entity FROM facts WHERE value_num > 90"),
        fire_on_existing=True,
    )
    assert delivered == 1


def test_condition_and_callback(db):
    received = []
    manager = ContinuousQueryManager(db)
    manager.register(ContinuousQuery(
        "watch", "SELECT entity, value_num FROM facts",
        condition=lambda row: row["value_num"] is not None
        and row["value_num"] < 0,
        callback=lambda qid, row: received.append((qid, row["entity"])),
    ))
    _insert(db, "Nome", "jan_temp", -15.0)
    _insert(db, "Miami", "jan_temp", 68.0)
    assert received == [("watch", "Nome")]
    assert manager.poke() == 0  # both rows already handled at commit
    assert manager.pending() == []  # callback queries bypass the inbox


def test_duplicate_registration_and_unregister(db):
    manager = ContinuousQueryManager(db)
    query = ContinuousQuery("q", "SELECT entity FROM facts")
    manager.register(query)
    with pytest.raises(ValueError):
        manager.register(query)
    manager.unregister("q")
    manager.register(query)  # fine after unregister


def test_system_pokes_monitoring_on_generate():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=6, seed=77, styles=("infobox",))
    )
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    system.monitoring.register(ContinuousQuery(
        "any_temp",
        f"SELECT entity, value_num FROM {FACTS_TABLE} "
        "WHERE attribute = 'sep_temp'",
    ))
    system.generate('p = docs()\nf = extract(p, "infobox")\noutput f')
    # one notification per city, delivered as part of generation
    assert len(system.monitoring.pending("any_temp")) == len(truth)


def test_direct_batched_writes_fire_standing_queries():
    """Regression: standing queries must see rows written through the
    batched db paths (insert_many / run_batch), not just generate()."""
    system = StructureManagementSystem()
    system.monitoring.register(ContinuousQuery(
        "hot",
        f"SELECT entity, value_num FROM {FACTS_TABLE} "
        "WHERE attribute = 'sep_temp' AND value_num > 90",
    ))

    def _fact(fact_id, entity, temp):
        return {"fact_id": fact_id, "entity": entity,
                "attribute": "sep_temp", "value_text": None,
                "value_num": temp, "confidence": 1.0, "doc_id": "direct"}

    # batched insert_many through db.run — no generate(), no manual poke
    system.db.run(lambda t: t.insert_many(
        FACTS_TABLE, [_fact(0, "Phoenix", 95.0), _fact(1, "Fargo", 55.0)]
    ))
    assert [n.row["entity"] for n in system.monitoring.pending("hot")] \
        == ["Phoenix"]

    # run_batch path fires too, once per commit
    system.db.run_batch([
        lambda t: t.insert_many(FACTS_TABLE, [_fact(2, "Tucson", 93.0)]),
        lambda t: t.insert(FACTS_TABLE, _fact(3, "Nome", 40.0)),
    ])
    assert [n.row["entity"] for n in system.monitoring.pending("hot")] \
        == ["Phoenix", "Tucson"]

    # read-only transactions (the poke's own SELECTs) do not re-notify
    assert system.query(f"SELECT COUNT(*) AS n FROM {FACTS_TABLE}")[0]["n"] \
        == 4
    assert len(system.monitoring.pending("hot")) == 2


def test_canonical_key_bytes_follow_sql_equality():
    # SQL `=` treats 1, 1.0 and True as equal: one row identity
    assert canonical_key_bytes(1) == canonical_key_bytes(1.0)
    assert canonical_key_bytes(1) == canonical_key_bytes(True)
    assert canonical_key_bytes(0) == canonical_key_bytes(-0.0)
    assert canonical_key_bytes(0) == canonical_key_bytes(False)
    # ...but strings stay in their own namespace,
    assert canonical_key_bytes(1) != canonical_key_bytes("1")
    assert canonical_key_bytes(None) == canonical_key_bytes(None)
    assert canonical_key_bytes(2.5) != canonical_key_bytes(2)
    assert canonical_key_bytes("nan") != canonical_key_bytes(float("nan"))


# ------------------------------------------------------------------ forms


def test_builtin_forms_register_and_instantiate():
    catalog = FormCatalog()
    count = register_builtin_forms(catalog)
    assert count == len(builtin_forms()) == len(catalog)
    sql = catalog.get("average_of").instantiate(
        {"entity": "Madison", "attribute": "sep_temp"}
    )
    assert "AVG(value_num)" in sql and "Madison" in sql


def test_builtin_forms_run_against_system():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=6, seed=78, styles=("infobox",))
    )
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    system.generate('p = docs()\nf = extract(p, "infobox")\noutput f')
    city = truth[0]
    sql = system.forms.get("average_of").instantiate(
        {"entity": city.name, "attribute": "sep_temp"}
    )
    assert system.query(sql)[0]["result"] == city.monthly_temps[8]
    top = system.forms.get("top_entities").instantiate(
        {"attribute": "population", "limit": 3}
    )
    rows = system.query(top)
    assert len(rows) == 3
    assert rows[0]["value"] >= rows[-1]["value"]
    queue = system.forms.get("low_confidence").instantiate({})
    assert len(system.query(queue)) == 20


def test_translator_surfaces_builtin_forms():
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=6, seed=79, styles=("infobox",))
    )
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    system.generate('p = docs()\nf = extract(p, "infobox")\noutput f')
    candidates = system.translator().translate(
        f"average sep_temp {truth[0].name}", k=8
    )
    assert any(c.form_id == "average_of" for c in candidates)


def test_explain_program_shows_both_plans():
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=4, seed=80, styles=("prose",))
    )
    system = StructureManagementSystem()
    from repro.extraction.rules import ContextRule, RuleCascadeExtractor
    system.registry.register_extractor(
        "rules",
        RuleCascadeExtractor(rules=[
            ContextRule("sep_temp", ("September", "temperature"), r"\d+")
        ]),
    )
    system.ingest(corpus)
    text = system.explain_program(
        'p = docs()\nf = extract(p, "rules")\noutput f'
    )
    assert "-- naive plan" in text
    assert "-- optimized plan" in text
    assert "estimated cost" in text
