"""The lineage log and the extraction-cache log, cut at every byte.

A workspace lands a four-page corpus, then a last landing of one small
page: one extraction-cache put and one lineage record per fact.  A crash
anywhere inside those last writes leaves a workspace that reopens to a
consistent state:

* a fact whose lineage record survived explains exactly as before; one
  whose record was cut explains as "no recorded provenance", never as
  another fact; the next landing appends after the cut line (the torn
  line counted in ``recovery.truncated_records``);
* the cache serves whole entries or misses, and ``generate()`` over it
  lands what a cold run lands.
"""

import json
import os
import shutil

import pytest

from repro.cache.store import LRUExtractionCache
from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document
from repro.extraction.infobox import InfoboxExtractor
from repro.storage.filestore import RecordFileStore
from repro.telemetry.metrics import MetricsRegistry, use_registry

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'
CORPUS = list(generate_city_corpus(
    CityCorpusConfig(num_cities=4, seed=88))[0])
TINY = Document("city_tinyville", "{{Infobox city\n | name = Tinyville\n"
                " | population = 120\n | jul_temp = 71.5\n}}\n")
NEXT = Document("city_nextville",
                "{{Infobox city\n | name = Nextville\n | population = 80\n}}\n")
LINEAGE = os.path.join("intermediate", "seg-0000.jsonl")
CACHE = os.path.join("cache", "seg-0000.jsonl")


def _files(root):
    """Every file under ``root``: relative path -> bytes."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _restore(root, files):
    shutil.rmtree(root, ignore_errors=True)
    for relpath, data in files.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)


def _system(workspace=None, cache=None):
    system = StructureManagementSystem(workspace=workspace, cache=cache)
    system.registry.register_extractor("infobox", InfoboxExtractor())
    return system


def _landed(system):
    """What a generation landed: ``facts`` rows and lineage records."""
    rows = system.query("SELECT * FROM facts")
    return (sorted(rows, key=lambda r: r["fact_id"]),
            list(system._lineage_records()))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """(workspace files, lineage bytes before the last landing, cache
    bytes before its last put, tiny's facts: fact id -> (entity,
    attribute, explanation), one earlier fact's (entity, attribute,
    explanation))."""
    workspace = str(tmp_path_factory.mktemp("base") / "ws")
    system = _system(workspace, cache=os.path.join(workspace, "cache"))
    system.ingest(CORPUS)
    system.generate(PROGRAM)
    sizes = {name: os.path.getsize(os.path.join(workspace, name))
             for name in (LINEAGE, CACHE)}
    system.ingest([TINY])
    system.generate(PROGRAM)    # lands Tinyville's facts only
    rows = system.query("SELECT fact_id, entity, attribute FROM facts")
    assert len({(r["entity"], r["attribute"]) for r in rows}) == len(rows)
    facts = {r["fact_id"]: (r["entity"], r["attribute"],
                            system.explain(r["entity"], r["attribute"]))
             for r in rows}
    tiny = {i: f for i, f in facts.items() if f[0] == "Tinyville"}
    assert len(tiny) == 2
    earlier = facts[min(facts)]
    system.close()
    return _files(workspace), sizes[LINEAGE], sizes[CACHE], tiny, earlier


def test_a_cut_in_the_last_landings_lineage_records(base, tmp_path):
    files, start, _, tiny, earlier = base
    data = files[LINEAGE]
    ends = [start + i + 1 for i, byte in enumerate(data[start:])
            if byte == ord("\n")]
    assert len(ends) == len(tiny)   # records land in fact id order
    workspace = str(tmp_path / "ws")
    cuts = 0
    for cut in range(start, len(data) + 1):
        _restore(workspace, {**files, LINEAGE: data[:cut]})
        kept = sum(end <= cut for end in ends)
        system = _system(workspace)
        assert system.explain(*earlier[:2]) == earlier[2]
        for n, (entity, attribute, explanation) in enumerate(
                tiny[i] for i in sorted(tiny)):
            assert system.explain(entity, attribute) == (
                explanation if n < kept
                else f"no recorded provenance for {entity}.{attribute}")
        system.ingest([NEXT])
        registry = MetricsRegistry()
        with use_registry(registry):
            system.generate(PROGRAM)   # the next landing: Nextville's
        torn = cut not in (start, *ends)
        assert registry.get("recovery.truncated_records") == int(torn)
        assert system.explain("Nextville", "population").startswith(
            "[fact] Nextville.population = 80.0")
        system.close()
        records = list(RecordFileStore(
            os.path.join(workspace, "intermediate")).scan())
        assert [r.record_id for r in records] == list(range(len(records)))
        assert [r.payload["entity"] for r in records[-kept - 1:]] == [
            "Tinyville"] * kept + ["Nextville"]
        cuts += 1
    assert cuts > 300


def test_a_cut_in_the_last_cache_put(base, tmp_path):
    files, _, start, _, _ = base
    data = files[CACHE]
    full = _files_cache_index(data)
    assert len(full) == len(CORPUS) + 1
    before = _files_cache_index(data[:start])
    root = str(tmp_path / "cache")
    states = {}
    for cut in range(start, len(data) + 1):
        _restore(root, {"seg-0000.jsonl": data[:cut]})
        registry = MetricsRegistry()
        with use_registry(registry):
            cache = LRUExtractionCache(root)
            index = _cached(cache, full)
            assert len(cache) == len(index)
            assert index == (full if cut == len(data) else before)
            cache.put("doc", "ext", [{"v": 1}])   # the next put is kept
            cache.close()
        torn = start < cut < len(data)
        assert registry.get("recovery.truncated_records") == int(torn)
        again = LRUExtractionCache(root)
        assert len(again) == len(index) + 1
        assert _cached(again, [*full, ("doc", "ext")]) == {
            **index, ("doc", "ext"): [{"v": 1}]}
        assert again.corrupt_entries == 0
        again.close()
        states.setdefault(len(index), data[:cut])
    assert len(states) == 2
    cold = _system()
    cold.ingest([*CORPUS, TINY])
    cold.generate(PROGRAM)
    for n, (kept, state) in enumerate(states.items()):
        _restore(str(tmp_path / f"state{n}"), {"seg-0000.jsonl": state})
        warm = _system(cache=str(tmp_path / f"state{n}"))
        warm.ingest([*CORPUS, TINY])
        report = warm.generate(PROGRAM)
        assert report.cache_hits == kept
        assert _landed(warm) == _landed(cold)
        warm.close()
    cold.close()


def _cached(cache, keys):
    """The entries ``cache`` answers among ``keys``: (doc, ext) -> rows."""
    return {key: rows for key in keys
            if (rows := cache.get(*key)) is not None}


def _files_cache_index(data):
    """The entries a cache log of ``data`` holds: (doc, ext) -> rows."""
    out = {}
    for line in data.split(b"\n"):
        if line.endswith(b"}"):
            payload = json.loads(line)
            out[(payload["doc"], payload["ext"])] = payload["rows"]
    return out
