"""Writers that keep state about rows they wrote — the next fact id of a
landing, the fused row of each key of the streaming pipeline — take in
what raw SQL wrote to the same table since, through the table's write
history, and read nothing more when nobody else wrote."""

import threading

from repro.core.streaming import FUSED_TABLE, DocDelta, StreamingPipeline
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.storage.rdbms.engine import Database, WriteCursor
from repro.storage.rdbms.sql import execute_sql
from repro.storage.rdbms.types import Column, ColumnType, TableSchema
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


def test_a_landing_nobody_else_wrote_beside_reads_no_history(monkeypatch):
    system = StructureManagementSystem()
    system.users.register("pat", "pw")
    system.contribute("pat", "Town1", "nickname", "Old Town")
    taken = _count_snapshots(monkeypatch, system.db)
    system.contribute("pat", "Town2", "nickname", "Old Harbor")
    system.contribute("pat", "Town3", "nickname", "Old Mill")
    # a landing larger than the history keeps leaves no gap behind it
    system._land([{"entity": f"Town{i}", "attribute": "nickname",
                   "value": "Bay", "doc_id": "bulk"} for i in range(300)])
    system.contribute("pat", "Town4", "nickname", "Old Pier")
    assert taken == []
    _insert_fact(system, 1000)
    assert system.contribute("pat", "Town5", "nickname", "Old Quay") > 1000
    assert len(taken) == 1  # the one that takes in the raw-SQL row
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
    others, deleters = pipeline._written.others, []

    def others_then_delete():
        found = others()
        if not deleters:  # a DELETE right after the push's check
            deleters.append(threading.Thread(target=execute_sql, args=(
                db, f"DELETE FROM {FUSED_TABLE}")))
            deleters[0].start()
            deleters[0].join(0.5)
        return found

    monkeypatch.setattr(pipeline._written, "others", others_then_delete)
    pipeline.process(DocDelta(changed=(_page("alpha", 61),)))
    deleters[0].join(10)
    assert not deleters[0].is_alive()
    assert _fused(db) == []
    pipeline.process(DocDelta(changed=(_page("alpha", 62),)))
    assert _fused(db) == [("alpha", "temp", None, 62.0)]


def test_a_push_nobody_else_wrote_beside_takes_no_snapshot(monkeypatch):
    db = Database()
    pipeline = StreamingPipeline(db, {"tsv": TsvExtractor()})
    taken = _count_snapshots(monkeypatch, db)
    pipeline.process(DocDelta(added=(_page("alpha", 60), _page("beta", 70))))
    pipeline.process(DocDelta(changed=(_page("alpha", 61),)))
    pipeline.process(DocDelta(removed=("beta",)))
    assert taken == []
    execute_sql(db, f"UPDATE {FUSED_TABLE} SET value_num = 0.0")
    pipeline.process(DocDelta(changed=(_page("alpha", 62),)))
    assert len(taken) == 1  # the push that takes in the UPDATE
    pipeline.process(DocDelta(changed=(_page("alpha", 63),)))
    assert len(taken) == 1


def test_a_cursor_moves_past_its_own_commit_only_when_none_came_between():
    db = Database()
    db.create_table(TableSchema("t", (Column("k", ColumnType.INT),)))
    cursor = WriteCursor(db, "t", db.begin_snapshot().version_of("t"))
    mine = db.begin()
    own = mine.insert("t", {"k": 1})
    other = db.run(lambda t: t.insert("t", {"k": 2}))  # commits in between
    mine.commit()
    cursor.wrote(mine)
    snap, written = cursor.others()
    assert written == {own.rid, other.rid}
    assert cursor.at == snap.version_of("t")
    mine = db.begin()
    mine.insert("t", {"k": 3})
    mine.commit()
    cursor.wrote(mine)  # nothing between: the cursor moves past it
    assert cursor.others() is None
    db.run(lambda t: t.insert("t", {"k": 4}))
    assert cursor.others()[1] == {3}
