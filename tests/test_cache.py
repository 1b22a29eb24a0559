"""Extraction cache: fingerprints, invalidation, determinism, stores.

The contract under test is twofold: (1) any behaviour-affecting change —
document text, extractor config, normalizer code, explicit version bump —
must miss; (2) with a cache attached, executor output stays byte-identical
to the uncached run on every execution path, across runs and across a
disk-cache close/reopen.
"""

import gc
import sys
import threading
import types

import pytest

from repro.cache.fingerprint import extractor_fingerprint
from repro.cache.store import LRUExtractionCache, document_key, make_cache
from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.core.system import StructureManagementSystem
from repro.docmodel.document import Document
from repro.extraction.base import CompositeExtractor
from repro.extraction.dictionary import DictionaryExtractor
from repro.extraction.regex_extractor import RegexExtractor
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry
from repro.telemetry import metrics
from repro.telemetry.metrics import MetricsRegistry

PROGRAM = 'a = docs()\nb = extract(a, "years")\noutput b'


def _extractor(**overrides):
    config = dict(name="years", pattern=r"\b(?P<year>(18|19|20)\d{2})\b")
    config.update(overrides)
    return RegexExtractor(**config)


def _registry(extractor=None):
    registry = OperatorRegistry()
    registry.register_extractor("years", extractor or _extractor())
    return registry


def _corpus(n=12, salt=""):
    return [
        Document(doc_id=f"d{i}", text=f"{salt}Event {i}: from 19{10 + i} "
                                      f"until 2001, then nothing.")
        for i in range(n)
    ]


# ------------------------------------------------------------ fingerprints


def test_fingerprint_stable_across_equal_instances():
    assert extractor_fingerprint(_extractor()) == \
        extractor_fingerprint(_extractor())


def test_fingerprint_changes_on_pattern_change():
    assert extractor_fingerprint(_extractor()) != \
        extractor_fingerprint(_extractor(pattern=r"(?P<year>19\d{2})"))


def test_fingerprint_changes_on_config_knobs():
    base = extractor_fingerprint(_extractor())
    assert extractor_fingerprint(_extractor(confidence=0.5)) != base
    assert extractor_fingerprint(_extractor(cost_per_char=2.0)) != base
    assert extractor_fingerprint(_extractor(name="other")) != base


def test_fingerprint_changes_on_normalizer_code():
    with_upper = DictionaryExtractor(
        name="dict", attribute="city", phrases={"madison": "Madison"}
    )
    other_phrases = DictionaryExtractor(
        name="dict", attribute="city", phrases={"madison": "MADISON"}
    )
    assert extractor_fingerprint(with_upper) != \
        extractor_fingerprint(other_phrases)

    norm_a = _extractor(normalizers={"year": lambda raw: int(raw)})
    norm_b = _extractor(normalizers={"year": lambda raw: int(raw) + 1})
    assert extractor_fingerprint(norm_a) != extractor_fingerprint(norm_b)


def test_fingerprint_changes_on_version_bump():
    bumped = _extractor()
    bumped.version = 1
    assert extractor_fingerprint(_extractor()) != \
        extractor_fingerprint(bumped)


def test_fingerprint_recurses_into_nested_extractors():
    composite_a = CompositeExtractor(
        name="combo", extractors=[_extractor()])
    composite_b = CompositeExtractor(
        name="combo", extractors=[_extractor(pattern=r"(?P<year>20\d{2})")])
    assert extractor_fingerprint(composite_a) != \
        extractor_fingerprint(composite_b)


def test_document_key_covers_text_and_identity():
    doc = Document(doc_id="d1", text="alpha")
    assert document_key(doc) != document_key(
        Document(doc_id="d1", text="alpha edited"))
    assert document_key(doc) != document_key(
        Document(doc_id="d2", text="alpha"))
    assert document_key(doc) == document_key(
        Document(doc_id="d1", text="alpha"))


# ------------------------------------------------------------- the stores


def test_lru_roundtrip_and_copy_isolation():
    cache = LRUExtractionCache(max_entries=4)
    rows = [{"doc_id": "d1", "value": 7}]
    cache.put("k1", "fp", rows)
    out = cache.get("k1", "fp")
    assert out == rows
    out[0]["value"] = 99  # caller mutation must not corrupt the cache
    assert cache.get("k1", "fp") == rows
    assert cache.get("k1", "other-fp") is None


def test_lru_eviction_and_counters():
    registry = MetricsRegistry()
    with metrics.use_registry(registry):
        cache = LRUExtractionCache(max_entries=2)
        cache.put("a", "fp", [])
        cache.put("b", "fp", [])
        assert cache.get("a", "fp") == []  # refresh a; b becomes LRU
        cache.put("c", "fp", [])  # evicts b
        assert cache.get("b", "fp") is None
        assert cache.get("a", "fp") == []
        assert cache.get("c", "fp") == []
    assert registry.get("cache.evictions") == 1
    assert registry.get("cache.hits") == 3
    assert registry.get("cache.misses") == 1
    assert len(cache) == 2


def test_disk_cache_survives_close_and_reopen(tmp_path):
    root = str(tmp_path / "cache")
    rows = [{"doc_id": "d1", "value": 1.5, "ok": True, "note": None}]
    cache = LRUExtractionCache(root)
    cache.put("k1", "fp", rows)
    cache.put("k1", "fp2", [])
    cache.close()

    reopened = LRUExtractionCache(root)
    assert reopened.get("k1", "fp") == rows
    assert reopened.get("k1", "fp2") == []
    stats = reopened.stats()
    assert stats["entries"] == 2 and stats["kind"] == "disk"
    assert reopened.clear() is None
    assert reopened.get("k1", "fp") is None
    assert LRUExtractionCache(root).stats()["entries"] == 0


def test_disk_cache_refuses_rows_that_json_would_mangle(tmp_path):
    cache = LRUExtractionCache(str(tmp_path / "cache"))
    cache.put("k1", "fp", [{"value": (1, 2)}])  # tuple -> list under JSON
    assert cache.get("k1", "fp") is None  # skipped, not silently stored


def test_disk_cache_skips_corrupt_segment_lines(tmp_path):
    """Flipped bytes in a segment must not abort cache open — the damaged
    entries become misses, counted in cache.corrupt_entries."""
    import os

    root = str(tmp_path / "cache")
    cache = LRUExtractionCache(root)
    cache.put("k1", "fp", [{"doc_id": "d1", "value": 1}])
    cache.put("k2", "fp", [{"doc_id": "d2", "value": 2}])
    cache.put("k3", "fp", [{"doc_id": "d3", "value": 3}])
    cache.close()

    segment = os.path.join(root, sorted(os.listdir(root))[0])
    with open(segment, "rb") as f:
        data = bytearray(f.read())
    # flip bytes inside the middle record's JSON structure
    lines = data.split(b"\n")
    lines[1] = bytes(b ^ 0xFF for b in lines[1])
    with open(segment, "wb") as f:
        f.write(b"\n".join(lines))

    registry = MetricsRegistry()
    with metrics.use_registry(registry):
        reopened = LRUExtractionCache(root)
    assert reopened.get("k1", "fp") == [{"doc_id": "d1", "value": 1}]
    assert reopened.get("k2", "fp") is None  # damaged -> miss
    assert reopened.get("k3", "fp") == [{"doc_id": "d3", "value": 3}]
    assert reopened.corrupt_entries == 1
    assert reopened.stats()["corrupt_entries"] == 1
    assert registry.get("cache.corrupt_entries") == 1


def test_disk_cache_tolerates_torn_final_append(tmp_path):
    """A crash mid-put leaves a truncated last line; reopen drops it."""
    import os

    root = str(tmp_path / "cache")
    cache = LRUExtractionCache(root)
    cache.put("k1", "fp", [{"doc_id": "d1", "value": 1}])
    cache.close()
    segment = os.path.join(root, sorted(os.listdir(root))[0])
    with open(segment, "a", encoding="utf-8") as f:
        f.write('{"id": 1, "doc": "k2", "ext": "fp", "rows": [{"trunc')
    reopened = LRUExtractionCache(root)
    assert reopened.get("k1", "fp") == [{"doc_id": "d1", "value": 1}]
    assert reopened.get("k2", "fp") is None
    assert reopened.corrupt_entries == 1


def _row_lists_held(cache):
    """How many lists of row dicts are reachable from ``cache``."""
    seen, stack, held = set(), [cache], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, list) and obj and all(
                isinstance(row, dict) and "doc_id" in row for row in obj):
            held += 1
        stack.extend(gc.get_referents(obj))
    return held


def test_a_directory_cache_holds_max_entries_rows_and_reads_the_rest(
        tmp_path):
    root = str(tmp_path / "cache")
    entries = {
        (f"k{i}", "fp"): [{"doc_id": f"d{i}", "value": i * 0.5, "n": i,
                           "ok": i % 2 == 0, "note": None if i % 3 else "é"}]
        * (1 + i % 3)
        for i in range(200)}
    cache = LRUExtractionCache(root, max_entries=10)
    for (key, fp), rows in entries.items():
        cache.put(key, fp, rows)
    assert _row_lists_held(cache) <= 10
    cache.close()

    registry = MetricsRegistry()
    with metrics.use_registry(registry):
        reopened = LRUExtractionCache(root, max_entries=10)
        assert len(reopened) == 200
        assert _row_lists_held(reopened) <= 10
        for (key, fp), rows in entries.items():
            got = reopened.get(key, fp)
            assert repr(got) == repr(rows), key
            got[0]["value"] = "mutated"  # a caller's copy
            assert repr(reopened.get(key, fp)) == repr(rows), key
        assert _row_lists_held(reopened) <= 10
    assert registry.get("cache.hits") == 400
    assert registry.get("cache.misses") == 0
    assert registry.get("cache.evictions") == 0  # the log forgets nothing
    reopened.close()


def test_threads_sharing_a_directory_cache_read_back_what_was_put(tmp_path):
    cache = LRUExtractionCache(str(tmp_path / "cache"), max_entries=3)

    def rows_of(key):
        return [{"doc_id": key, "n": len(key)}]

    errors = []

    def worker(t):
        try:
            for i in range(200):
                cache.put(f"t{t}-{i % 20}", "fp", rows_of(f"t{t}-{i % 20}"))
                key = f"t{(t + 1) % 8}-{i * 7 % 20}"
                got = cache.get(key, "fp")
                if got not in (None, rows_of(key)):
                    errors.append((key, got))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    cache.close()
    reopened = LRUExtractionCache(str(tmp_path / "cache"), max_entries=3)
    assert len(reopened) == 160
    for key in (f"t{t}-{i}" for t in range(8) for i in range(20)):
        assert reopened.get(key, "fp") == rows_of(key)


def test_make_cache_specs(tmp_path):
    assert make_cache(None) is None
    assert make_cache("memory").stats()["kind"] == "memory"
    disk = make_cache(str(tmp_path / "c"))
    assert isinstance(disk, LRUExtractionCache)
    assert disk.stats()["kind"] == "disk"
    assert make_cache(disk) is disk
    with pytest.raises(TypeError):
        make_cache(42)


# --------------------------------------------------- executor integration


def test_warm_run_hits_and_output_is_byte_identical():
    corpus = _corpus()
    cache = LRUExtractionCache()
    uncached = run_program(PROGRAM, corpus, _registry())
    cold = run_program(PROGRAM, corpus, _registry(), cache=cache)
    warm = run_program(PROGRAM, corpus, _registry(), cache=cache)
    assert cold.rows == uncached.rows == warm.rows
    assert cold.stats.cache_misses == len(corpus)
    assert warm.stats.cache_hits == len(corpus)
    assert warm.stats.cache_misses == 0
    assert warm.stats.total_chars_scanned == 0  # counters measure work done


def test_doc_text_change_misses_only_changed_docs():
    corpus = _corpus()
    cache = LRUExtractionCache()
    run_program(PROGRAM, corpus, _registry(), cache=cache)
    churned = list(corpus)
    churned[4] = Document(doc_id="d4", text="Rewritten in 1999 entirely.")
    result = run_program(PROGRAM, churned, _registry(), cache=cache)
    assert result.stats.cache_misses == 1
    assert result.stats.cache_hits == len(corpus) - 1
    assert result.stats.total_chars_scanned == len(churned[4].text)
    assert result.rows == run_program(PROGRAM, churned, _registry()).rows


@pytest.mark.parametrize("make_changed", [
    lambda: _extractor(pattern=r"\b(?P<year>19\d{2})\b"),
    lambda: _extractor(normalizers={"year": lambda raw: int(raw)}),
    lambda: _extractor(confidence=0.4),
])
def test_extractor_config_change_invalidates(make_changed):
    corpus = _corpus()
    cache = LRUExtractionCache()
    run_program(PROGRAM, corpus, _registry(), cache=cache)
    changed = make_changed()
    result = run_program(PROGRAM, corpus, _registry(changed), cache=cache)
    assert result.stats.cache_misses == len(corpus)
    assert result.rows == run_program(PROGRAM, corpus, _registry(changed)).rows


def test_version_bump_invalidates_identical_config():
    corpus = _corpus()
    cache = LRUExtractionCache()
    run_program(PROGRAM, corpus, _registry(), cache=cache)
    bumped = _extractor()
    bumped.version = 1
    result = run_program(PROGRAM, corpus, _registry(bumped), cache=cache)
    assert result.stats.cache_misses == len(corpus)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_cache_hits_across_backends_with_identical_output(backend):
    corpus = _corpus(n=8)
    cache = LRUExtractionCache()
    inline = run_program(PROGRAM, corpus, _registry())
    cold = run_program(PROGRAM, corpus, _registry(), backend=backend,
                       cache=cache)
    warm = run_program(PROGRAM, corpus, _registry(), backend=backend,
                       cache=cache)
    assert cold.rows == warm.rows == inline.rows
    assert warm.stats.cache_hits == len(corpus)
    # An entry written by a backend run serves the inline path too.
    inline_warm = run_program(PROGRAM, corpus, _registry(), cache=cache)
    assert inline_warm.stats.cache_hits == len(corpus)
    assert inline_warm.rows == inline.rows


def test_cache_on_simulated_cluster_path_is_deterministic():
    corpus = _corpus(n=10)
    cache = LRUExtractionCache()

    def cluster():
        return SimulatedCluster(ClusterConfig(num_workers=3, seed=7))

    plain = run_program(PROGRAM, corpus, _registry(), backend=cluster())
    cold = run_program(PROGRAM, corpus, _registry(), backend=cluster(),
                       cache=cache)
    warm = run_program(PROGRAM, corpus, _registry(), backend=cluster(),
                       cache=cache)
    assert cold.rows == warm.rows == plain.rows
    assert warm.stats.cache_hits == len(corpus)
    # Partial warmth: one churned document re-extracts through the wave.
    churned = list(corpus)
    churned[2] = Document(doc_id="d2", text="Replaced in 1987.")
    partial = run_program(PROGRAM, churned, _registry(), backend=cluster(),
                          cache=cache)
    assert partial.stats.cache_misses == 1
    assert partial.rows == run_program(
        PROGRAM, churned, _registry(), backend=cluster()).rows


def test_disk_cache_hits_across_reopen_via_executor(tmp_path):
    root = str(tmp_path / "cache")
    corpus = _corpus()
    baseline = run_program(PROGRAM, corpus, _registry())

    first = LRUExtractionCache(root)
    cold = run_program(PROGRAM, corpus, _registry(), cache=first)
    first.close()

    second = LRUExtractionCache(root)
    warm = run_program(PROGRAM, corpus, _registry(), cache=second)
    assert warm.stats.cache_hits == len(corpus)
    assert warm.stats.cache_misses == 0
    assert cold.rows == warm.rows == baseline.rows


def test_duplicate_doc_ids_bypass_cache_but_stay_correct():
    corpus = _corpus(n=4)
    stream = corpus + [corpus[0]]  # same doc twice via a hypothetical union
    program = 'a = docs()\nb = extract(a, "years")\noutput b'
    cache = LRUExtractionCache()
    cached = run_program(program, stream, _registry(), cache=cache)
    plain = run_program(program, stream, _registry())
    assert cached.rows == plain.rows
    assert cached.stats.cache_hits == 0  # ambiguous stream: cache unused


# --------------------------------------------- on-demand program sharing

def _demanding_system(corpus, cache):
    system = StructureManagementSystem(cache=cache)
    system.registry.register_extractor("years", _extractor())
    system.ingest(corpus)
    return system


def test_incremental_manager_reuses_executor_entries():
    """A demand through ``system.generate()`` costs nothing for what a
    bare ``run_program`` already extracted into the shared cache."""
    corpus = _corpus()
    cache = LRUExtractionCache()
    rows = run_program(PROGRAM, corpus, _registry(), cache=cache).rows

    report = _demanding_system(corpus, cache).generate(PROGRAM)
    assert report.chars_scanned == 0  # every document was already cached
    assert (report.cache_hits, report.cache_misses) == (len(corpus), 0)
    assert report.facts_stored == len(rows)
    baseline = _demanding_system(corpus, None).generate(PROGRAM)
    assert baseline.facts_stored == len(rows)
    assert baseline.chars_scanned == sum(len(d.text) for d in corpus)


def test_incremental_manager_populates_cache_for_executor():
    """... and what the demand extracted is a hit for ``run_program``."""
    corpus = _corpus()
    cache = LRUExtractionCache()
    _demanding_system(corpus, cache).generate(PROGRAM)

    warm = run_program(PROGRAM, corpus, _registry(), cache=cache)
    assert warm.stats.cache_hits == len(corpus)
    assert warm.rows == run_program(PROGRAM, corpus, _registry()).rows
