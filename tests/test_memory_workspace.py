"""A workspace-less system is a workspace in memory.

``StructureManagementSystem()`` keeps its raw page versions, lineage
records, dead letters and slow queries on the record log's memory device,
through the code a workspace runs; one script on both must answer alike.
"""

import re

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.faults.deadletter import DeadLetterStore
from repro.faults.injector import FaultInjector, FaultyExtractor
from repro.storage.filestore import RecordFileStore
from repro.storage.manager import StorageManager
from repro.telemetry.slowlog import SlowQueryLog

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
#: the wall times an EXPLAIN ANALYZE plan line carries
_TIMES = re.compile(r"time=[0-9.]+ms|in [0-9.]+ ms")


def _untimed(entry):
    """A slow-query entry without its timings."""
    entry = {k: v for k, v in entry.items() if k not in ("ts", "seconds")}
    entry["plan"] = [_TIMES.sub("", line) for line in entry.get("plan", ())]
    return entry


def _drive(workspace):
    """Run one script on a system; return everything it answers."""
    corpus = list(generate_city_corpus(CityCorpusConfig(
        num_cities=8, seed=53, styles=("infobox",)))[0])
    edited, poison = corpus[0], corpus[2].doc_id
    # fails the first generate()'s three attempts, heals on the retry
    injector = FaultInjector(mode="error", keys=(poison,), fail_attempts=5)
    system = StructureManagementSystem(workspace=workspace,
                                       slow_query_seconds=0.0)
    system.registry.register_extractor(
        "infobox", FaultyExtractor(InfoboxExtractor(), injector))
    system.ingest(corpus)
    system.ingest([Document(edited.doc_id, edited.text + "\nAn edit.\n")])
    report = system.generate(PROGRAM)
    quarantined = system.deadletter.entries()
    retried = system.retry_deadletter(PROGRAM)
    system.users.register("ann", "pw")
    for n, city in enumerate(("Ames", "Bend", "Cody")):
        system.contribute("ann", city, "july_temperature", 70.0 + n)
        system.contribute("ann", city, "jul_temp", 70.5 + n)
    unified = system.unify_attributes(["july_temperature"], ["jul_temp"])
    answers = {
        "report": (report.facts_stored, report.failed_doc_ids),
        "quarantined": quarantined,
        "retried": retried,
        "unified": unified,
        "fact_count": system.fact_count(),
        "facts": sorted(system.query("SELECT * FROM facts"),
                        key=lambda row: row["fact_id"]),
        "keyword": system.keyword(edited.doc_id.split("_")[0]),
        "keyword_facts": system.keyword_facts("jul_temp", k=10),
        "explain": system.explain("Bend", "jul_temp"),
        "provenance": len(system.provenance),
        "deadletter": system.deadletter.entries(),
        "slow_queries": [_untimed(e) for e in system.slow_queries()],
        "stored_pages": len(system.corpus),
        "edited_version": system.storage.raw.latest_version(edited.doc_id),
        "edited_text": system.storage.raw.checkout(edited.doc_id).text,
    }
    system.close()
    return answers


def test_a_workspace_less_system_answers_like_a_workspace(tmp_path):
    in_memory = _drive(None)
    on_disk = _drive(str(tmp_path / "ws"))
    assert in_memory.keys() == on_disk.keys()
    for name in in_memory:
        assert in_memory[name] == on_disk[name], name
    # none of the answers is vacuous
    assert [e.doc_id for e in in_memory["quarantined"]] == \
        in_memory["report"][1]
    assert in_memory["retried"] == (1, 0) and in_memory["unified"]
    assert in_memory["stored_pages"] == 8
    assert in_memory["edited_version"] == 1
    assert in_memory["edited_text"].endswith("An edit.\n")
    assert in_memory["provenance"] > 0 and in_memory["slow_queries"]
    assert "[feedback]" in in_memory["explain"]


def test_every_store_of_a_workspace_less_system_is_a_record_log():
    system = StructureManagementSystem()
    assert isinstance(system.storage, StorageManager)
    assert isinstance(system.storage.intermediate, RecordFileStore)
    assert system.db is system.storage.final
    system.close()
    assert isinstance(DeadLetterStore()._log, RecordFileStore)
    assert isinstance(SlowQueryLog()._log, RecordFileStore)
