"""The system's writers beside raw SQL on the same tables.  A landing
leaves ``fact_id`` out and the engine hands out the next key inside its
transaction, so an id raw SQL took, even just before the landing, is
stepped over, and no id is issued twice, across a reopen too.  The
streaming pipeline X-locks the fused rows it is about to write and then
reads them, so a row raw SQL deleted or re-keyed makes its key land as
an insert.  Neither reads a snapshot to find out."""

import re
import threading

import pytest

from repro.core.streaming import FUSED_TABLE, DocDelta, StreamingPipeline
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.storage.rdbms.engine import Database, Transaction
from repro.storage.rdbms.sql import execute_sql
from tests.test_streaming import TsvExtractor

INFOBOX_PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
DOCS = list(generate_city_corpus(CityCorpusConfig(num_cities=2, seed=5))[0])


def _insert_fact(system, fact_id):
    system.query(f"INSERT INTO {FACTS_TABLE} (fact_id, entity, attribute, "
                 "value_text, confidence, doc_id) VALUES "
                 f"({fact_id}, 'Bay Town', 'nickname', 'Bay', 1.0, 'sql')")


def _count_snapshots(monkeypatch, db):
    taken = []
    begin = db.begin_snapshot
    monkeypatch.setattr(db, "begin_snapshot",
                        lambda *a, **k: taken.append(1) or begin(*a, **k))
    return taken


def test_a_contribution_after_a_raw_sql_fact_takes_a_fresh_id():
    system = StructureManagementSystem()
    system.users.register("pat", "pw")
    first = system.contribute("pat", "Town1", "nickname", "Old Town")
    _insert_fact(system, first + 1)
    second = system.contribute("pat", "Town2", "nickname", "Old Harbor")
    assert second > first + 1
    system.query(f"UPDATE {FACTS_TABLE} SET fact_id = 50 "
                 f"WHERE fact_id = {first + 1}")
    assert system.contribute("pat", "Town3", "nickname", "Old Mill") > 50
    assert system.fact_count() == 4
    system.close()


def test_a_generate_after_a_raw_sql_fact_takes_fresh_ids():
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(DOCS[:1])
    stored = system.generate(INFOBOX_PROGRAM).facts_stored
    assert stored > 0
    _insert_fact(system, stored)
    system.ingest(DOCS[1:])
    assert system.generate(INFOBOX_PROGRAM).facts_stored > 0
    ids = [row["fact_id"] for row in system.query(
        f"SELECT fact_id FROM {FACTS_TABLE} WHERE doc_id <> 'sql'")]
    assert max(ids[:stored]) < stored < min(ids[stored:])
    system.close()


def test_a_raw_sql_insert_without_a_fact_id_takes_the_next_one():
    system = StructureManagementSystem()
    system.users.register("pat", "pw")
    first = system.contribute("pat", "Town1", "nickname", "Old Town")
    execute_sql(system.db, f"INSERT INTO {FACTS_TABLE} (entity, attribute, "
                "value_text, confidence, doc_id) VALUES "
                "('Bay Town', 'nickname', 'Bay', 1.0, 'sql'), "
                "('Cove', 'nickname', 'Cove', 1.0, 'sql')")
    raw = sorted(r["fact_id"] for r in execute_sql(
        system.db, f"SELECT fact_id FROM {FACTS_TABLE} WHERE doc_id = 'sql'"))
    assert raw == [first + 1, first + 2]
    assert system.contribute("pat", "Town2", "nickname", "Old Pier") == \
        first + 3
    system.close()


def test_a_raw_sql_insert_of_the_next_id_just_before_a_landing(monkeypatch):
    """Another thread commits the next fact id right before the landing's
    transaction begins: the landing takes the ids after it."""
    system = StructureManagementSystem()
    system.users.register("pat", "pw")
    first = system.contribute("pat", "Town1", "nickname", "Old Town")
    run = system.db.run

    def insert_then_run(work, *args, **kwargs):
        monkeypatch.setattr(system.db, "run", run)  # (the INSERT runs too)
        raw = threading.Thread(target=_insert_fact, args=(system, first + 1))
        raw.start()
        raw.join(10)
        return run(work, *args, **kwargs)

    monkeypatch.setattr(system.db, "run", insert_then_run)
    second = system.contribute("pat", "Town2", "nickname", "Old Harbor")
    assert second > first + 1
    assert sorted(r["fact_id"] for r in system.query(
        f"SELECT fact_id FROM {FACTS_TABLE}")) == [first, first + 1, second]
    system.close()


def _infobox_system(workspace):
    system = StructureManagementSystem(workspace=workspace)
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.users.register("pat", "pw")
    return system


@pytest.mark.parametrize("clean", [True, False], ids=["close", "crash"])
@pytest.mark.parametrize("freed_by", ["raw_delete", "retraction"])
def test_a_fact_id_is_never_issued_again_after_a_reopen(tmp_path, freed_by,
                                                        clean):
    workspace = str(tmp_path / "ws")
    system = _infobox_system(workspace)
    system.ingest(DOCS)
    system.generate(INFOBOX_PROGRAM)
    if freed_by == "raw_delete":
        top = system.contribute("pat", "Town1", "nickname", "Old Town")
        system.query(f"DELETE FROM {FACTS_TABLE} WHERE fact_id = {top}")
    else:
        [fact] = system.query(f"SELECT * FROM {FACTS_TABLE} "
                              "ORDER BY fact_id DESC LIMIT 1")
        top, page = fact["fact_id"], system.corpus.get(fact["doc_id"])
        system.ingest([Document(page.doc_id, re.sub(
            rf"\n \| {fact['attribute']} = [^\n]*", "", page.text))])
        assert system.generate(INFOBOX_PROGRAM).facts_retracted == 1
    assert system.query(f"SELECT MAX(fact_id) AS m FROM {FACTS_TABLE}"
                        )[0]["m"] < top
    if clean:
        system.close()
    system = _infobox_system(workspace)  # (a crash: the first never closed)
    assert system.contribute("pat", "Town2", "nickname", "Old Pier") > top
    system.close()


def test_a_landing_nobody_else_wrote_beside_reads_no_history(monkeypatch):
    """No landing reads a snapshot, even after a raw write."""
    system = StructureManagementSystem()
    system.users.register("pat", "pw")
    system.contribute("pat", "Town1", "nickname", "Old Town")
    taken = _count_snapshots(monkeypatch, system.db)
    system.contribute("pat", "Town2", "nickname", "Old Harbor")
    system._land([{"entity": f"Town{i}", "attribute": "nickname",
                   "value": "Bay", "doc_id": "bulk"} for i in range(300)])
    _insert_fact(system, 1000)
    assert system.contribute("pat", "Town5", "nickname", "Old Quay") > 1000
    assert taken == []
    system.close()


def _page(doc_id, temp):
    return Document(doc_id, f"{doc_id}\ttemp\t{temp}\n"
                            f"{doc_id}\tmotto\tby the {doc_id} sea\n")


def _fused(db):
    return sorted((r["entity"], r["attribute"], r["value_text"],
                   r["value_num"])
                  for r in execute_sql(db, f"SELECT * FROM {FUSED_TABLE}"))


def test_a_delta_lands_after_raw_sql_emptied_or_rekeyed_fused_rows():
    db = Database()
    pipeline = StreamingPipeline(db, {"tsv": TsvExtractor()})
    pipeline.process(DocDelta(added=(_page("alpha", 60), _page("beta", 70))))
    assert len(_fused(db)) == 4
    execute_sql(db, f"DELETE FROM {FUSED_TABLE}")
    pipeline.process(DocDelta(changed=(_page("alpha", 61),)))
    assert _fused(db) == [("alpha", "temp", None, 61.0)]
    execute_sql(db, f"UPDATE {FUSED_TABLE} SET entity = 'gamma'")
    pipeline.process(DocDelta(changed=(_page("alpha", 62),)))
    assert _fused(db) == [("alpha", "temp", None, 62.0),
                          ("gamma", "temp", None, 61.0)]
    pipeline.process(DocDelta(changed=(_page("beta", 71),)))
    assert ("beta", "temp", None, 71.0) in _fused(db)


def test_a_raw_sql_delete_during_a_push_waits_for_its_write(monkeypatch):
    db = Database()
    pipeline = StreamingPipeline(db, {"tsv": TsvExtractor()})
    pipeline.process(DocDelta(added=(_page("alpha", 60), _page("beta", 70))))
    lock_rows, deleters = Transaction.lock_rows, []

    def lock_then_delete(txn, table, rids):
        lock_rows(txn, table, rids)
        if not deleters:  # a DELETE right after the push's lock_rows
            deleters.append(threading.Thread(target=execute_sql, args=(
                db, f"DELETE FROM {FUSED_TABLE}")))
            deleters[0].start()
            deleters[0].join(0.5)

    monkeypatch.setattr(Transaction, "lock_rows", lock_then_delete)
    pipeline.process(DocDelta(changed=(_page("alpha", 61),)))
    deleters[0].join(10)
    assert not deleters[0].is_alive()
    assert _fused(db) == []
    pipeline.process(DocDelta(changed=(_page("alpha", 62),)))
    assert _fused(db) == [("alpha", "temp", None, 62.0)]


def test_a_push_nobody_else_wrote_beside_takes_no_snapshot(monkeypatch):
    """No push takes a snapshot, even after a raw write."""
    db = Database()
    pipeline = StreamingPipeline(db, {"tsv": TsvExtractor()})
    taken = _count_snapshots(monkeypatch, db)
    pipeline.process(DocDelta(added=(_page("alpha", 60), _page("beta", 70))))
    pipeline.process(DocDelta(changed=(_page("alpha", 61),)))
    pipeline.process(DocDelta(removed=("beta",)))
    execute_sql(db, f"UPDATE {FUSED_TABLE} SET value_num = 0.0")
    pipeline.process(DocDelta(changed=(_page("alpha", 62),)))
    pipeline.process(DocDelta(changed=(_page("alpha", 63),)))
    assert taken == []
    assert ("alpha", "temp", None, 63.0) in _fused(db)

