"""Every durable file of a workspace is a record-log segment, after a
checkpoint too, and the relational engine reaches no file but through its
record log."""

import ast
import json
import os
import re
from pathlib import Path

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.faults import FaultInjector, FaultyExtractor
from repro.storage import rdbms

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
SEGMENT = re.compile(r"seg-\d{4}\.jsonl")


def test_every_durable_file_of_a_workspace_is_a_record_log_segment(tmp_path):
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
    assert all(SEGMENT.fullmatch(os.path.basename(f)) for f in files), files
    assert {os.path.dirname(f) for f in files} == {
        "raw", "intermediate", os.path.join("final", "wal"), "deadletter",
        "slowlog"}
    for name in files:
        with open(os.path.join(workspace, name), "rb") as f:
            assert all("id" in json.loads(line) for line in f), name


#: The calls that write, move or delete a file off the record log's device.
FILE_CALLS = {"open", "os.replace", "os.rename", "os.fsync", "os.remove"}


def test_the_engine_reaches_no_file_but_through_the_record_log():
    """Every byte the relational engine keeps goes through its WAL, a
    record log, whose device alone touches files."""
    calls = []
    for path in sorted(Path(rdbms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in FILE_CALLS or name.endswith(".open"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
