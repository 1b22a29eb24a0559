"""Every durable file of a workspace is a record log or the checkpoint."""

import json
import os
import re

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.faults import FaultInjector, FaultyExtractor

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
SEGMENT = re.compile(r"seg-\d{4}\.jsonl")


def test_a_workspace_holds_record_logs_and_one_checkpoint(tmp_path):
    corpus, _ = generate_city_corpus(CityCorpusConfig(num_cities=6, seed=3))
    corpus = list(corpus)
    poison = corpus[2].doc_id
    workspace = str(tmp_path / "ws")
    system = StructureManagementSystem(workspace=workspace,
                                       slow_query_seconds=0.0)
    system.registry.register_extractor("infobox", FaultyExtractor(
        InfoboxExtractor(), FaultInjector(mode="error", keys=(poison,),
                                          persistent_share=1.0)))
    system.ingest(corpus)
    assert system.generate(PROGRAM).failed_doc_ids == [poison]
    system.query("SELECT COUNT(*) AS n FROM facts")  # over the threshold
    assert system.slow_queries()
    system.db.checkpoint()
    system.close()

    files = sorted(os.path.relpath(os.path.join(d, name), workspace)
                   for d, _, names in os.walk(workspace) for name in names)
    logs = {os.path.dirname(f) for f in files
            if SEGMENT.fullmatch(os.path.basename(f))}
    assert logs == {"raw", "intermediate", os.path.join("final", "wal"),
                    "deadletter", "slowlog"}
    others = [f for f in files if os.path.dirname(f) not in logs]
    assert others == [os.path.join("final", "checkpoint.json")]
    for name in files:
        if name not in others:
            with open(os.path.join(workspace, name), "rb") as f:
                assert all("id" in json.loads(line) for line in f), name
