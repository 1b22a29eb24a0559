"""One differential for the extraction stage (``repro.extraction.stage``).

Batch (``Executor`` inline / serial / thread / cluster / cluster+backend),
streaming (``StreamingPipeline._extract``) and on-demand (a program run by
``system.generate()``, read back from what it landed) generation are
backends of one stage, so for the same corpus and extractor they must
agree on: the per-document extraction tuples, the cache entries they read
and write, what heals, what is quarantined (and with how many attempts),
and what a repeated ``doc_id`` means.
"""

import os

import pytest

from repro.cache.fingerprint import extractor_fingerprint
from repro.cache.store import LRUExtractionCache, document_key
from repro.cluster.backends import make_backend
from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.core.streaming import DocDelta, StreamingPipeline
from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.docmodel.document import Document, Span
from repro.extraction.base import Extraction, Extractor, extraction_to_tuple
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.stage import DEFAULT_DOC_RETRY
from repro.faults import DeadLetterStore, FaultInjector, FaultyExtractor
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry
from repro.storage.rdbms.engine import Database
from repro.telemetry.metrics import MetricsRegistry, use_registry

NAME = "x"
PROGRAM = f'p = docs()\nf = extract(p, "{NAME}")\noutput f'
EXECUTOR_ARMS = ("inline", "serial", "thread", "cluster", "cluster+serial")
PATHS = EXECUTOR_ARMS + ("streaming", "on-demand")


class Counting(Extractor):
    """Counts ``extract`` calls; the counter is underscored, so it is not
    part of the fingerprint (public attributes are configuration)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = f"counting:{inner.name}"
        self._calls = 0

    @property
    def calls(self):
        return self._calls

    @property
    def cost_per_char(self):
        return self.inner.cost_per_char

    def extract(self, doc):
        self._calls += 1
        return self.inner.extract(doc)


def _corpus(n=10):
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=n, seed=5, styles=("infobox",)))
    return list(corpus)


def _canonical(rows):
    """Rows carry their ``doc_id``, so a flat list sorted by document is
    the per-document comparison (a repeated id doubles its rows); within a
    document, rows compare in (span_start, attribute) order."""
    return sorted(rows, key=lambda r: (r["doc_id"], r["span_start"],
                                       r["attribute"]))


def run_path(path, extractor, docs, cache=None):
    """One generation path over ``docs``.

    Returns:
        (canonical rows, [(doc_id, extractor, attempts)] failures).
    """
    if path in EXECUTOR_ARMS:
        registry = OperatorRegistry()
        registry.register_extractor(NAME, extractor)
        backend = {"serial": "serial", "thread": "thread"}.get(path)
        if path.startswith("cluster"):
            backend = SimulatedCluster(
                ClusterConfig(num_workers=3, seed=7),
                make_backend("serial") if path == "cluster+serial" else None)
        result = run_program(PROGRAM, docs, registry, optimize=False,
                             backend=backend, cache=cache)
        return _canonical(result.rows), [
            (f["doc_id"], f["extractor"], f["attempts"])
            for f in result.failed_docs]
    if path == "streaming":
        deadletter = DeadLetterStore()
        pipe = StreamingPipeline(Database(), {NAME: extractor}, cache=cache,
                                 deadletter=deadletter)
        extracted = pipe._extract(DocDelta(added=tuple(docs)))
        rows = [extraction_to_tuple(e)
                for _, extractions in extracted.added for e in extractions]
        return _canonical(rows), [(e.doc_id, e.extractor, e.attempts)
                                  for e in deadletter.entries()]
    assert path == "on-demand"
    # ``generate()`` runs over the corpus, which folds a repeated
    # ``doc_id`` into one page.  Not closed: that would close the
    # caller's cache.
    system = StructureManagementSystem(cache=cache)
    system.registry.register_extractor(NAME, extractor)
    system.ingest(docs)
    system.generate(PROGRAM, optimize=False)
    landed = ("fact_id", "stored_confidence")
    rows = [{k: v for k, v in record.items() if k not in landed}
            for record in system._lineage_records()]
    assert system.fact_count() == len(rows)
    return _canonical(rows), [(e.doc_id, e.extractor, e.attempts)
                              for e in system.deadletter.entries()]


def _expected(docs, skip=()):
    return _canonical([extraction_to_tuple(e) for doc in docs
                       if doc.doc_id not in skip
                       for e in InfoboxExtractor().extract(doc)])


# ------------------------------------------------------------- identity


@pytest.mark.parametrize("path", PATHS)
def test_every_path_yields_the_same_rowsument_tuples(path):
    docs = _corpus()
    rows, failures = run_path(path, InfoboxExtractor(), docs)
    assert rows == _expected(docs)
    assert failures == []


@pytest.mark.parametrize("path", PATHS)
def test_repeated_doc_id_returns_each_occurrence_once(path):
    docs = _corpus(4)
    expected = _expected(docs)
    # union of two document streams; the corpus behind on-demand
    # generation holds each page once
    if path != "on-demand":
        docs = docs + [docs[1], docs[0]]
        expected = _expected(docs)
    for cache in (None, LRUExtractionCache()):
        rows, failures = run_path(path, InfoboxExtractor(), docs, cache)
        assert rows == expected
        assert failures == []


# ---------------------------------------------------------------- caches


def _make_cache(kind, tmp_path, tag):
    if kind == "lru":
        return LRUExtractionCache()
    # "disk-1" holds one row list in memory: the other lookups read the log
    return LRUExtractionCache(str(tmp_path / f"cache-{tag}"),
                              max_entries=1 if kind == "disk-1" else 100_000)


@pytest.mark.parametrize("kind", ["lru", "disk", "disk-1"])
@pytest.mark.parametrize("filler", ["inline", "cluster", "streaming",
                                    "on-demand"])
def test_a_cache_filled_by_one_path_is_all_hits_for_the_others(
        kind, filler, tmp_path):
    docs = _corpus(6)
    cache = _make_cache(kind, tmp_path, filler)
    extractor = Counting(InfoboxExtractor())
    run_path(filler, extractor, docs, cache)
    assert extractor.calls == len(docs)
    expected = _expected(docs)
    for reader in PATHS:
        registry = MetricsRegistry()
        with use_registry(registry):
            rows, _ = run_path(reader, extractor, docs, cache)
        assert rows == expected, reader
        assert extractor.calls == len(docs), reader  # nothing re-extracted
        assert registry.get("cache.hits") == len(docs), reader
        assert registry.get("cache.misses") == 0, reader
    cache.close()


# The two records a parent-commit (00cc226) run wrote for these documents
# through the cache's record log — the persisted form of the one codec.
_PARENT_DOCS = [
    Document("d1", "{{Infobox city\n| name = Ur\n| population = 1200\n"
                   "| sep_temp = 71.5\n}}\n"),
    Document("d2", "no markup here"),
]
_PARENT_SEGMENT = (
    b'{"id": 0, "doc": "c3bdec8b698979c3387adca93d2d87bbf928716fe6fa93f000'
    b'faa75fdc76400a:d1", "ext": "ded0d861c48029bb049e6eaaa0698f81ca53d476'
    b'722d1c7db3dfae226a65eeed", "rows": [{"doc_id": "d1", "entity": "Ur",'
    b' "attribute": "population", "value": 1200.0, "confidence": 0.97, '
    b'"span_start": 42, "span_end": 46, "span_text": "1200", "extractor": '
    b'"infobox"}, {"doc_id": "d1", "entity": "Ur", "attribute": "sep_temp"'
    b', "value": 71.5, "confidence": 0.97, "span_start": 60, "span_end": '
    b'64, "span_text": "71.5", "extractor": "infobox"}]}\n'
    b'{"id": 1, "doc": "dd8951f9550f7bac4f9c30b14c44259acca7bf8e4c0609c843'
    b'4583b2aec9526c:d2", "ext": "ded0d861c48029bb049e6eaaa0698f81ca53d476'
    b'722d1c7db3dfae226a65eeed", "rows": []}\n'
)


@pytest.mark.parametrize("path", ["inline", "streaming", "on-demand"])
def test_disk_cache_written_at_the_parent_commit_is_still_all_hits(
        path, tmp_path):
    root = tmp_path / "cache"
    os.makedirs(root)
    (root / "seg-0000.jsonl").write_bytes(_PARENT_SEGMENT)
    cache = LRUExtractionCache(str(root))
    registry = MetricsRegistry()
    with use_registry(registry):
        rows, _ = run_path(path, InfoboxExtractor(), _PARENT_DOCS, cache)
    assert rows == _expected(_PARENT_DOCS)
    assert registry.get("cache.hits") == 2
    assert registry.get("cache.misses") == 0
    assert registry.get("extraction.docs") == 0
    cache.close()


# ---------------------------------------------------------------- faults


@pytest.mark.parametrize("path", PATHS)
def test_a_transient_fault_heals_on_every_path(path):
    docs = _corpus(6)
    victim = docs[2].doc_id
    injector = FaultInjector(mode="error", keys=(victim,),
                             fail_attempts=DEFAULT_DOC_RETRY.max_attempts - 1)
    cache = LRUExtractionCache()
    rows, failures = run_path(
        path, FaultyExtractor(InfoboxExtractor(), injector), docs, cache)
    assert injector.injected == DEFAULT_DOC_RETRY.max_attempts - 1
    assert failures == []
    assert rows == _expected(docs)
    assert len(cache) == len(docs)


@pytest.mark.parametrize("path", PATHS)
def test_a_permanent_fault_is_quarantined_the_same_on_every_path(path):
    docs = _corpus(6)
    victim = docs[2]
    injector = FaultInjector(mode="error", keys=(victim.doc_id,),
                             persistent_share=1.0)
    extractor = FaultyExtractor(InfoboxExtractor(), injector)
    cache = LRUExtractionCache()
    registry = MetricsRegistry()
    with use_registry(registry):
        rows, failures = run_path(path, extractor, docs, cache)
    assert failures == [
        (victim.doc_id, NAME, DEFAULT_DOC_RETRY.max_attempts)]
    assert rows == _expected(docs, skip={victim.doc_id})
    # a failure is retried next time, not remembered as "no rows"
    assert len(cache) == len(docs) - 1
    assert cache.get(document_key(victim),
                     extractor_fingerprint(extractor)) is None
    assert registry.get("extraction.poison_docs") == 1
    assert registry.get("extraction.docs") == len(docs) - 1


# ------------------------------------------------ streaming's fault contract


def test_streaming_extracts_a_flaky_document_instead_of_dead_lettering_it():
    docs = _corpus(3)
    injector = FaultInjector(mode="error", keys=(docs[0].doc_id,),
                             fail_attempts=1)
    deadletter = DeadLetterStore()
    pipe = StreamingPipeline(
        Database(), {NAME: FaultyExtractor(InfoboxExtractor(), injector)},
        deadletter=deadletter)
    registry = MetricsRegistry()
    with use_registry(registry):
        pipe.process(DocDelta(added=tuple(docs)))
    assert injector.injected == 1
    assert pipe.stats.docs_deadlettered == 0
    assert deadletter.entries() == []
    assert len(pipe._doc_mentions) == len(docs)  # the flaky page has facts
    assert registry.get("extraction.docs") == len(docs)
    assert registry.get("extraction.extractions") == sum(
        len(InfoboxExtractor().extract(d)) for d in docs)
    assert registry.get("tasks.retried") == 1


def test_streaming_dead_letters_once_rowsument_and_extractor():
    docs = _corpus(3)
    injector = FaultInjector(mode="error", keys=(docs[0].doc_id,),
                             persistent_share=1.0)
    deadletter = DeadLetterStore()
    pipe = StreamingPipeline(
        Database(),
        {"bad": FaultyExtractor(InfoboxExtractor(), injector),
         "good": InfoboxExtractor()},
        deadletter=deadletter)
    pipe.process(DocDelta(added=tuple(docs)))
    assert [(e.doc_id, e.extractor, e.error_type, e.attempts)
            for e in deadletter.entries()] == [
        (docs[0].doc_id, "bad", "InjectedFault",
         DEFAULT_DOC_RETRY.max_attempts)]
    assert pipe.stats.docs_deadlettered == 1
    # its other extractor still produced: the page stays in the state
    assert docs[0].doc_id in pipe._doc_mentions


# ------------------------------------------------------------ fusion order


class EntityAttributeValue(Extractor):
    """Reads a page ``"<entity> <attribute> <int>"`` as one extraction."""

    name = "eav"

    def extract(self, doc):
        entity, attribute, value = doc.text.split()
        start = doc.text.rindex(value)
        return [Extraction(entity, attribute, int(value),
                           Span(doc.doc_id, start, len(doc.text), value),
                           confidence=0.9, extractor=self.name)]


@pytest.mark.parametrize("strategy", ["weighted_vote", "max_confidence"])
def test_batch_fusion_depends_on_the_extractions_not_their_order(strategy):
    """Two pages agree on 7 against one reading 5: inline, on the
    simulated cluster and with the pages reversed, the fused row names the
    same supporting span."""
    docs = [Document(doc_id, f"Paris pop {value}")
            for doc_id, value in (("d2", 7), ("d1", 5), ("d0", 7))]
    registry = OperatorRegistry()
    registry.register_extractor("eav", EntityAttributeValue())
    program = ('p = docs()\nf = extract(p, "eav")\n'
               f'g = fuse(f, "{strategy}")\noutput g')
    arms = [run_program(program, docs, registry, optimize=False).rows,
            run_program(program, docs, registry, optimize=False,
                        backend=SimulatedCluster(
                            ClusterConfig(num_workers=3, seed=7))).rows,
            run_program(program, docs[::-1], registry, optimize=False).rows]
    assert arms[0] == arms[1] == arms[2]
    assert [(r["value"], r["support"], r["doc_id"]) for r in arms[0]] \
        == [(7, 2, "d0")]


# ------------------------------------------------- the cluster cost model


_MAKESPAN_PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'


@pytest.mark.parametrize("config, golden", [
    (ClusterConfig(num_workers=3, seed=7), 2091.0920301030956),
    (ClusterConfig(num_workers=5, seed=2, failure_prob=0.2,
                   straggler_prob=0.3), 1393.3388586414721),
])
@pytest.mark.parametrize("arm", ["plain", "cache", "backend"])
def test_cluster_makespan_equals_the_parent_commits_value(config, golden,
                                                          arm):
    """Goldens recorded at the parent commit (00cc226), where the cached
    and uncached sub-branches of the cluster arm were separate code."""
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=12, seed=5, styles=("infobox",)))
    registry = OperatorRegistry()
    registry.register_extractor("infobox", InfoboxExtractor())
    result = run_program(
        _MAKESPAN_PROGRAM, corpus, registry,
        backend=SimulatedCluster(
            config, make_backend("serial") if arm == "backend" else None),
        cache=LRUExtractionCache() if arm == "cache" else None)
    assert result.stats.cluster_makespan == golden
    assert len(result.rows) == 168
