"""Determinism contract of execution backends at the plan/system level:
serial == thread == process output, and the simulated cluster over each.
"""

import os
from collections import Counter

import pytest

from repro.cluster.backends import BackendError, make_backend
from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.faults import FaultInjector, FaultyExtractor, InjectedFault
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'


def _corpus(num_cities=16):
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_cities, seed=53, styles=("infobox",))
    )
    return list(corpus)


def _registry():
    registry = OperatorRegistry()
    registry.register_extractor("infobox", InfoboxExtractor())
    return registry


def _run(backend=None):
    return run_program(PROGRAM, _corpus(), _registry(), backend=backend)


# --------------------------------------------------------- executor level


@pytest.mark.parametrize("spec", ["serial", "thread", "process"])
def test_executor_backend_rows_match_inline(spec):
    inline = _run()
    with make_backend(spec, max_workers=3) as backend:
        result = _run(backend=backend)
    assert result.rows == inline.rows
    assert result.stats.backend_name == spec
    assert result.stats.real_parallel_seconds >= 0.0
    assert result.stats.wave_task_counts["map"] == len(_corpus())


def test_executor_accepts_backend_spec_string():
    result = _run(backend="serial")
    assert result.stats.backend_name == "serial"
    assert result.rows == _run().rows


def test_inline_stats_report_no_backend():
    stats = _run().stats
    assert stats.backend_name == "inline"
    assert stats.real_parallel_seconds == 0.0
    assert stats.wave_task_counts == Counter()


def test_stats_counters_are_counters():
    stats = _run().stats
    assert isinstance(stats.chars_scanned, Counter)
    assert isinstance(stats.docs_extracted, Counter)
    assert isinstance(stats.tuples_produced, Counter)
    assert stats.total_chars_scanned > 0
    # Counter is a dict: existing readers keep working
    assert dict(stats.docs_extracted)


# ----------------------------------------------------------- system level


def _system_facts(backend, on_cluster=False):
    if on_cluster:
        backend = SimulatedCluster(ClusterConfig(num_workers=4, seed=2),
                                   make_backend(backend, max_workers=3))
    system = StructureManagementSystem(backend=backend, backend_workers=3)
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(_corpus())
    report = system.generate(PROGRAM)
    facts = sorted(
        (r["entity"], r["attribute"], r["value_num"], r["value_text"])
        for r in system.query(
            f"SELECT entity, attribute, value_num, value_text "
            f"FROM {FACTS_TABLE}"
        )
    )
    system.close()
    return facts, report


def test_system_backend_facts_identical_to_inline():
    base, base_report = _system_facts(None)
    assert base_report.backend_name == "inline"
    for spec in ("serial", "thread", "process"):
        facts, report = _system_facts(spec)
        assert facts == base, spec
        assert report.backend_name == spec


def test_system_backend_combines_with_cluster():
    base, _ = _system_facts(None)
    facts, report = _system_facts("thread", on_cluster=True)
    assert facts == base
    assert report.cluster_makespan > 0  # simulated model still reported
    assert report.backend_name == "cluster+thread"
    # and the simulated makespan matches the no-backend cluster run
    _, inline_report = _system_facts(None, on_cluster=True)
    assert report.cluster_makespan == inline_report.cluster_makespan


def test_system_rejects_unknown_backend():
    from repro.cluster.backends import BackendError

    with pytest.raises(BackendError):
        StructureManagementSystem(backend="warp-drive")


def test_ingest_batch_deduplicates_doc_ids():
    system = StructureManagementSystem()
    docs = _corpus(4)
    # same page twice in one batch, plus a reingest of the whole batch
    assert system.ingest(docs + [docs[0]]) == 5
    assert system.search.corpus_size() == 4
    assert system.ingest(docs) == 4
    assert system.search.corpus_size() == 4
    system.close()


def _backend_threads():
    import threading

    return [t for t in threading.enumerate()
            if t.name.startswith("repro-backend")]


def test_backend_built_from_a_spec_string_is_closed_after_the_run(monkeypatch):
    from repro.cluster import backends

    built = []
    real = backends.ThreadPoolBackend

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setitem(backends._BACKENDS, "thread", recording)
    baseline = len(_backend_threads())
    result = run_program(PROGRAM, _corpus(), _registry(), backend="thread")
    assert result.stats.backend_name == "thread"
    assert len(built) == 1 and built[0]._pool is None  # shut down
    assert len(_backend_threads()) == baseline


def test_backend_instance_passed_in_stays_open():
    with make_backend("thread", max_workers=2) as backend:
        run_program(PROGRAM, _corpus(), _registry(), backend=backend)
        assert backend._pool is not None  # the caller's to close
        assert _backend_threads()
    assert backend._pool is None


# ------------------------------------------------ the cluster is a backend


@pytest.mark.parametrize("inner", ["serial", "thread", "process"])
def test_cluster_backend_rows_equal_inline_rows_in_order(inner):
    inline = _run()
    with SimulatedCluster(ClusterConfig(num_workers=3, seed=7),
                          make_backend(inner, max_workers=2)) as cluster:
        result = _run(backend=cluster)
    assert result.rows == inline.rows
    assert result.stats.backend_name == f"cluster+{inner}"
    assert result.stats.cluster_makespan > 0


@pytest.mark.parametrize("backend", [None, "serial", "thread", "process",
                                     "cluster"])
def test_fail_fast_extracts_a_failing_document_once(tmp_path, backend):
    corpus = _corpus(6)
    poison = corpus[3].doc_id
    injector = FaultInjector(keys={poison}, fail_attempts=10**9,
                             state_dir=str(tmp_path / "attempts"))
    registry = OperatorRegistry()
    registry.register_extractor(
        "infobox", FaultyExtractor(InfoboxExtractor(), injector))
    if backend == "cluster":
        backend = SimulatedCluster(ClusterConfig(num_workers=3, seed=7))
    with pytest.raises((BackendError, InjectedFault)):
        run_program(PROGRAM, corpus, registry, backend=backend,
                    fail_fast=True)
    with open(os.path.join(injector.state_dir, os.listdir(
            injector.state_dir)[0]), encoding="utf-8") as f:
        assert int(f.read()) == 1
