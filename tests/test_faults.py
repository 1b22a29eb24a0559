"""Fault-tolerance tests: injection, retry, quarantine, and recovery.

The fault path must preserve the determinism contract: a faulty run
produces byte-identical facts to a fault-free run *minus* the quarantined
documents, and the quarantined set is a pure function of the injector's
``(seed, key)`` hash — predictable before the run ever starts.
"""

import os
import pickle
from dataclasses import dataclass

import pytest

from repro.cluster.backends import BackendError, make_backend
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.faults import (
    DeadLetterEntry,
    DeadLetterStore,
    FaultInjector,
    FaultyExtractor,
    InjectedFault,
    RetryPolicy,
)
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry
from repro.telemetry.metrics import MetricsRegistry, use_registry
from tests.devices import on_both_devices

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'


def _corpus(num_cities=16):
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=num_cities, seed=53, styles=("infobox",))
    )
    return list(corpus)


def _registry(extractor):
    registry = OperatorRegistry()
    registry.register_extractor("infobox", extractor)
    return registry


# ------------------------------------------------------------- RetryPolicy


def test_retry_succeeds_after_transient_failures():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise ValueError("transient")
        return "ok"

    policy = RetryPolicy(max_attempts=3, base_delay=0.0)
    assert policy.run(flaky, sleep=lambda _: None) == "ok"
    assert len(calls) == 3


def test_retry_raises_after_budget_exhausted():
    policy = RetryPolicy(max_attempts=2, base_delay=0.0)

    def always():
        raise ValueError("permanent")

    with pytest.raises(ValueError, match="permanent"):
        policy.run(always, sleep=lambda _: None)


def test_retry_counts_performed_retries():
    registry = MetricsRegistry()
    policy = RetryPolicy(max_attempts=3, base_delay=0.0)
    with use_registry(registry):
        with pytest.raises(ValueError):
            policy.run(lambda: (_ for _ in ()).throw(ValueError()),
                       sleep=lambda _: None)
    # 3 attempts -> 2 retries (the first try is not a retry)
    assert registry.get("tasks.retried") == 2


def test_retry_delay_is_deterministic_and_backs_off():
    policy = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05,
                         multiplier=2.0, jitter=0.25)
    delays = [policy.delay_for(k, salt="task-7") for k in (1, 2, 3, 4)]
    assert delays == [policy.delay_for(k, salt="task-7") for k in (1, 2, 3, 4)]
    # raw backoff grows 0.01, 0.02, 0.04, then caps at 0.05
    assert delays[0] < delays[1] < delays[2]
    assert all(d <= 0.05 * 1.25 for d in delays)
    # different salts de-synchronize the sleep schedule
    assert policy.delay_for(1, salt="a") != policy.delay_for(1, salt="b")


def test_retry_deadline_cuts_the_budget_short():
    policy = RetryPolicy(max_attempts=10, base_delay=10.0, deadline=0.01)
    calls = []

    def always():
        calls.append(1)
        raise ValueError("slow fail")

    with pytest.raises(ValueError):
        policy.run(always, sleep=lambda _: None)
    assert len(calls) == 1  # first backoff (10s) would blow the deadline


def test_retry_does_not_retry_unlisted_exceptions():
    policy = RetryPolicy(max_attempts=5, base_delay=0.0)
    calls = []

    def typeerror():
        calls.append(1)
        raise TypeError("not retryable here")

    with pytest.raises(TypeError):
        policy.run(typeerror, retry_on=(ValueError,), sleep=lambda _: None)
    assert len(calls) == 1


def test_retry_validates_configuration():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)


# ----------------------------------------------------------- FaultInjector


def test_injector_selection_is_deterministic():
    keys = [f"doc-{i}" for i in range(200)]
    a = FaultInjector(mode="error", rate=0.1, seed=42)
    b = FaultInjector(mode="error", rate=0.1, seed=42)
    assert a.faulted_keys(keys) == b.faulted_keys(keys)
    assert 0 < len(a.faulted_keys(keys)) < len(keys)
    # a different seed picks a different subset
    c = FaultInjector(mode="error", rate=0.1, seed=43)
    assert a.faulted_keys(keys) != c.faulted_keys(keys)


def test_injector_transient_key_heals_after_fail_attempts():
    inj = FaultInjector(mode="error", keys=("poison",), fail_attempts=2)
    with pytest.raises(InjectedFault):
        inj.check("poison")
    with pytest.raises(InjectedFault):
        inj.check("poison")
    inj.check("poison")  # third attempt succeeds
    inj.check("healthy")  # unselected keys never fault
    assert inj.injected == 2


def test_injector_persistent_key_always_faults():
    inj = FaultInjector(mode="error", keys=("poison",), persistent_share=1.0)
    for _ in range(5):
        with pytest.raises(InjectedFault):
            inj.check("poison")
    assert inj.is_persistent("poison")
    assert not inj.is_persistent("healthy")


def test_injector_every_n_faults_on_schedule():
    inj = FaultInjector(mode="error", every_n=3)
    outcomes = []
    for _ in range(9):
        try:
            inj.check("any")
            outcomes.append("ok")
        except InjectedFault:
            outcomes.append("fault")
    assert outcomes == ["ok", "ok", "fault"] * 3


def test_injector_corrupt_flips_one_byte_deterministically():
    inj = FaultInjector(mode="corrupt", seed=9)
    data = b'{"lsn": 1, "txn": 2, "type": "commit"}'
    mutated = inj.corrupt(data, key="rec-1")
    assert mutated != data
    assert len(mutated) == len(data)
    assert sum(a != b for a, b in zip(data, mutated)) == 1
    assert inj.corrupt(data, key="rec-1") == mutated  # deterministic
    assert inj.corrupt(data, key="rec-2") != mutated or True  # other key ok
    assert inj.corrupt(b"", key="x") == b""


def test_injector_pickles_and_keeps_config():
    inj = FaultInjector(mode="error", rate=0.25, keys=("a",),
                        persistent_share=0.5, seed=7)
    clone = pickle.loads(pickle.dumps(inj))
    keys = [f"k{i}" for i in range(50)]
    assert clone.faulted_keys(keys) == inj.faulted_keys(keys)
    assert repr(clone) == repr(inj)


def test_injector_attempt_counts_survive_via_state_dir(tmp_path):
    state = str(tmp_path / "state")
    first = FaultInjector(mode="error", keys=("k",), fail_attempts=2,
                          state_dir=state)
    with pytest.raises(InjectedFault):
        first.check("k")
    # a *fresh* injector (as after a worker crash) continues the count
    second = FaultInjector(mode="error", keys=("k",), fail_attempts=2,
                           state_dir=state)
    with pytest.raises(InjectedFault):
        second.check("k")
    second.check("k")  # attempt 3 > fail_attempts


def test_injector_rejects_bad_configuration():
    with pytest.raises(ValueError):
        FaultInjector(mode="explode")
    with pytest.raises(ValueError):
        FaultInjector(rate=1.5)


def test_faulty_extractor_delegates_and_faults():
    inner = InfoboxExtractor()
    inj = FaultInjector(mode="error", keys=("bad",), persistent_share=1.0)
    faulty = FaultyExtractor(inner, inj)
    assert faulty.name == "faulty:infobox"
    assert faulty.cost_per_char == inner.cost_per_char
    doc = _corpus(2)[0]
    assert faulty.extract(doc) == inner.extract(doc)


# ----------------------------------------------------------- dead letters
# The store tests that take ``root`` run on both devices (a directory, and
# memory for ``root=None``).  Directory-only: reopen across handles
# (persists across reopen), torn bytes on disk (torn tail, append after a
# torn tail, the every-byte cut) and the older-layout refusal.


def test_deadletter_store_persists_across_reopen(tmp_path):
    root = str(tmp_path / "dl")
    store = DeadLetterStore(root)
    store.add(DeadLetterEntry("doc-1", "infobox", "boom", "ValueError", 3))
    store.add_many([DeadLetterEntry("doc-2", "infobox", "kaput")])
    reopened = DeadLetterStore(root)
    assert reopened.doc_ids() == ["doc-1", "doc-2"]
    entry = reopened.entries()[0]
    assert entry.error_type == "ValueError" and entry.attempts == 3
    assert reopened.remove(["doc-1"]) == 1
    assert DeadLetterStore(root).doc_ids() == ["doc-2"]
    assert reopened.clear() == 1
    assert len(DeadLetterStore(root)) == 0


@on_both_devices
def test_deadletter_store_memory_mode_without_root(root):
    store = DeadLetterStore(root)
    store.add(DeadLetterEntry("doc-1", "infobox", "boom"))
    assert store.doc_ids() == ["doc-1"]
    assert store.clear() == 1
    assert len(store) == 0


def test_deadletter_store_tolerates_torn_tail(tmp_path):
    root = str(tmp_path / "dl")
    store = DeadLetterStore(root)
    store.add(DeadLetterEntry("doc-1", "infobox", "boom"))
    with open(os.path.join(root, "seg-0000.jsonl"), "a",
              encoding="utf-8") as f:
        f.write('{"doc_id": "doc-2", "extr')  # crash mid-append
    assert DeadLetterStore(root).doc_ids() == ["doc-1"]


def test_deadletter_append_after_a_torn_tail_is_kept(tmp_path):
    root = str(tmp_path / "dl")
    DeadLetterStore(root).add_many([
        DeadLetterEntry("doc-1", "infobox", "boom"),
        DeadLetterEntry("doc-2", "infobox", "kaput")])
    [name] = os.listdir(root)  # the one file the store wrote
    path = os.path.join(root, name)
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:-10])  # a crash mid-append of doc-2
    DeadLetterStore(root).add(DeadLetterEntry("doc-3", "infobox", "again"))
    assert DeadLetterStore(root).doc_ids() == ["doc-1", "doc-3"]


def test_deadletter_cut_at_every_byte_of_its_last_entry(tmp_path):
    base = str(tmp_path / "base")
    DeadLetterStore(base).add_many([
        DeadLetterEntry("doc-1", "infobox", "boom", "ValueError", 3),
        DeadLetterEntry("doc-2", "infobox", "kaput")])
    with open(os.path.join(base, "seg-0000.jsonl"), "rb") as f:
        data = f.read()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(last, len(data) + 1):
        root = str(tmp_path / f"cut{cut}")
        os.makedirs(root)
        with open(os.path.join(root, "seg-0000.jsonl"), "wb") as f:
            f.write(data[:cut])
        kept = ["doc-1", "doc-2"] if cut == len(data) else ["doc-1"]
        store = DeadLetterStore(root)
        assert store.doc_ids() == kept, cut
        store.add(DeadLetterEntry("doc-3", "infobox", "again"))
        assert store.remove(["doc-1"]) == 1
        assert DeadLetterStore(root).doc_ids() == kept[1:] + ["doc-3"], cut


@on_both_devices
def test_quarantining_a_pair_again_replaces_its_entry(root):
    store = DeadLetterStore(root)
    store.add(DeadLetterEntry("doc-1", "infobox", "boom", "ValueError", 3))
    store.add(DeadLetterEntry("doc-1", "links", "other extractor"))
    store.add_many([DeadLetterEntry("doc-2", "infobox", "a"),
                    DeadLetterEntry("doc-1", "infobox", "kaput", "KeyError", 2),
                    DeadLetterEntry("doc-2", "infobox", "b", attempts=4)])
    assert [(e.doc_id, e.extractor, e.error, e.error_type, e.attempts)
            for e in store.entries()] == [
        ("doc-1", "links", "other extractor", "", 1),
        ("doc-2", "infobox", "b", "", 4),
        ("doc-1", "infobox", "kaput", "KeyError", 2)]
    assert len(store) == 3


def test_a_one_file_deadletter_store_is_refused(tmp_path):
    root = tmp_path / "dl"
    root.mkdir()
    (root / "entries.jsonl").write_text(
        '{"doc_id": "doc-1", "extractor": "infobox", "error": "boom"}\n')
    with pytest.raises(ValueError, match="entries.jsonl"):
        DeadLetterStore(str(root))


@on_both_devices
def test_deadletter_store_maintains_size_gauge(root):
    registry = MetricsRegistry()
    with use_registry(registry):
        store = DeadLetterStore(root)
        store.add_many([
            DeadLetterEntry("doc-1", "infobox", "a"),
            DeadLetterEntry("doc-2", "infobox", "b"),
        ])
        assert registry.gauge("deadletter.size") == 2.0
        assert registry.get("deadletter.quarantined") == 2
        store.remove(["doc-1"])
        assert registry.gauge("deadletter.size") == 1.0
        store.clear()
        assert registry.gauge("deadletter.size") == 0.0


# --------------------------------------------------------- backend retries


@dataclass(frozen=True)
class _InjectedPayload:
    """Picklable map payload that consults a fault injector per item."""

    injector: FaultInjector

    def __call__(self, item):
        self.injector.check(f"item-{item}")
        return item * 10


_FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0)


@pytest.mark.parametrize("spec", ["serial", "thread"])
def test_backend_retries_transient_faults(spec):
    # in-memory attempt counts work on serial/thread (no pickling)
    inj = FaultInjector(mode="error", keys=("item-3", "item-7"),
                        fail_attempts=1)
    with make_backend(spec, max_workers=2, retry=_FAST_RETRY) as backend:
        out = backend.map(_InjectedPayload(inj), list(range(10)),
                          chunk_size=2)
    assert out == [i * 10 for i in range(10)]
    assert inj.injected == 2


def test_process_backend_retries_transient_faults(tmp_path):
    # the payload is re-pickled per submission, so durable attempt counts
    # (state_dir) are what lets the retry round observe progress
    inj = FaultInjector(mode="error", keys=("item-3",), fail_attempts=1,
                        state_dir=str(tmp_path / "state"))
    with make_backend("process", max_workers=2, retry=_FAST_RETRY) as backend:
        out = backend.map(_InjectedPayload(inj), list(range(8)),
                          chunk_size=2)
    assert out == [i * 10 for i in range(8)]


@pytest.mark.parametrize("spec", ["serial", "thread"])
def test_backend_routes_persistent_failure_to_callback(spec):
    inj = FaultInjector(mode="error", keys=("item-4",), persistent_share=1.0)
    failures = []

    def on_fail(item, exc):
        failures.append((item, type(exc).__name__))
        return ("failed", item)

    with make_backend(spec, max_workers=2, retry=_FAST_RETRY) as backend:
        out = backend.map(_InjectedPayload(inj), list(range(8)),
                          chunk_size=3, on_item_failure=on_fail)
    expected = [i * 10 for i in range(8)]
    expected[4] = ("failed", 4)
    assert out == expected
    assert failures == [(4, "InjectedFault")]


@pytest.mark.parametrize("spec", ["serial", "thread"])
def test_backend_raises_backend_error_without_callback(spec):
    inj = FaultInjector(mode="error", keys=("item-2",), persistent_share=1.0)
    with make_backend(spec, max_workers=2, retry=_FAST_RETRY) as backend:
        with pytest.raises(BackendError, match="attempt"):
            backend.map(_InjectedPayload(inj), list(range(5)), chunk_size=2)


# --------------------------------------------- worker death (process pool)


def test_process_backend_survives_transient_worker_death(tmp_path):
    """A worker killed by ``os._exit(1)`` mid-chunk breaks the pool; the
    backend must rebuild it and resubmit, and the durable attempt count
    means the culprit item succeeds on the retry round."""
    inj = FaultInjector(mode="crash", keys=("item-5",), fail_attempts=1,
                        state_dir=str(tmp_path / "state"))
    registry = MetricsRegistry()
    with use_registry(registry):
        with make_backend("process", max_workers=2,
                          retry=_FAST_RETRY) as backend:
            out = backend.map(_InjectedPayload(inj), list(range(8)),
                              chunk_size=2)
    assert out == [i * 10 for i in range(8)]
    assert registry.get("backend.pool_rebuilds") >= 1


def test_process_backend_quarantines_persistent_crasher(tmp_path):
    """An item that kills every worker it touches ends up isolated and
    routed to ``on_item_failure``; every other item's result is intact."""
    inj = FaultInjector(mode="crash", keys=("item-3",), persistent_share=1.0,
                        state_dir=str(tmp_path / "state"))
    failures = []

    def on_fail(item, exc):
        failures.append(item)
        return ("quarantined", item)

    retry = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0)
    with make_backend("process", max_workers=2, retry=retry) as backend:
        out = backend.map(_InjectedPayload(inj), list(range(6)),
                          chunk_size=2, on_item_failure=on_fail)
    expected = [i * 10 for i in range(6)]
    expected[3] = ("quarantined", 3)
    assert out == expected
    assert failures == [3]


# ------------------------------------------------- executor-level quarantine


def test_executor_quarantines_exactly_the_persistent_keys():
    corpus = _corpus()
    doc_ids = [d.doc_id for d in corpus]
    inj = FaultInjector(mode="error", rate=0.3, persistent_share=0.5, seed=1)
    transient = inj.faulted_keys(doc_ids) - inj.persistent_keys(doc_ids)
    persistent = inj.persistent_keys(doc_ids)
    assert transient and persistent  # the seed exercises both paths

    faulty = run_program(
        PROGRAM, corpus, _registry(FaultyExtractor(InfoboxExtractor(), inj)),
        optimize=False,
    )
    assert {f["doc_id"] for f in faulty.failed_docs} == persistent
    assert all(f["attempts"] >= 3 for f in faulty.failed_docs)

    # rows are byte-identical to a fault-free run minus the quarantined docs
    survivors = [d for d in corpus if d.doc_id not in persistent]
    baseline = run_program(PROGRAM, survivors, _registry(InfoboxExtractor()),
                           optimize=False)
    assert faulty.rows == baseline.rows


@pytest.mark.parametrize("spec", ["serial", "thread", "process"])
def test_executor_quarantine_is_identical_across_backends(spec):
    corpus = _corpus()
    doc_ids = [d.doc_id for d in corpus]
    inj = FaultInjector(mode="error", rate=0.3, persistent_share=0.5, seed=1)
    persistent = inj.persistent_keys(doc_ids)

    registry = _registry(FaultyExtractor(InfoboxExtractor(), inj))
    with make_backend(spec, max_workers=3) as backend:
        result = run_program(PROGRAM, corpus, registry, backend=backend,
                             optimize=False)
    assert {f["doc_id"] for f in result.failed_docs} == persistent

    survivors = [d for d in corpus if d.doc_id not in persistent]
    baseline = run_program(PROGRAM, survivors, _registry(InfoboxExtractor()),
                           optimize=False)
    assert result.rows == baseline.rows


def test_executor_fail_fast_raises_instead_of_quarantining():
    corpus = _corpus()
    inj = FaultInjector(mode="error", keys=(corpus[0].doc_id,),
                        persistent_share=1.0)
    registry = _registry(FaultyExtractor(InfoboxExtractor(), inj))
    with pytest.raises(InjectedFault):
        run_program(PROGRAM, corpus, registry, optimize=False,
                    fail_fast=True)


def test_executor_counts_failed_docs_in_stats():
    corpus = _corpus()
    inj = FaultInjector(mode="error", keys=(corpus[0].doc_id,),
                        persistent_share=1.0)
    registry = MetricsRegistry()
    with use_registry(registry):
        result = run_program(
            PROGRAM, corpus,
            _registry(FaultyExtractor(InfoboxExtractor(), inj)),
            optimize=False,
        )
    assert len(result.failed_docs) == 1
    assert registry.get("executor.docs_failed") == 1
    assert registry.get("extraction.poison_docs") >= 1


# ------------------------------------------------ system-level dead letters


def _system(tmp_path, extractor, **kwargs):
    from repro.core.system import StructureManagementSystem

    system = StructureManagementSystem(
        workspace=str(tmp_path / "ws"), **kwargs
    )
    system.registry.register_extractor("infobox", extractor)
    return system


def test_system_quarantines_to_persistent_deadletter(tmp_path):
    corpus = _corpus(8)
    poison = corpus[2].doc_id
    inj = FaultInjector(mode="error", keys=(poison,), persistent_share=1.0)
    system = _system(tmp_path, FaultyExtractor(InfoboxExtractor(), inj))
    system.ingest(corpus)
    report = system.generate(PROGRAM)
    assert report.failed_docs == 1
    assert report.failed_doc_ids == [poison]
    assert system.deadletter.doc_ids() == [poison]
    system.close()
    # quarantine survives the restart
    reopened = _system(tmp_path, InfoboxExtractor())
    assert reopened.deadletter.doc_ids() == [poison]
    reopened.close()


def test_a_page_that_fails_every_run_keeps_one_entry(tmp_path):
    corpus = _corpus(8)
    poison = corpus[2].doc_id
    inj = FaultInjector(mode="error", keys=(poison,), persistent_share=1.0)
    system = _system(tmp_path, FaultyExtractor(InfoboxExtractor(), inj))
    system.ingest(corpus)
    for _ in range(3):
        assert system.generate(PROGRAM).failed_doc_ids == [poison]
    system.close()
    reopened = _system(tmp_path, FaultyExtractor(InfoboxExtractor(), inj))
    assert reopened.deadletter.doc_ids() == [poison]
    assert len(reopened.deadletter) == 1
    assert reopened.retry_deadletter(PROGRAM) == (1, 1)
    assert reopened.deadletter.doc_ids() == [poison]
    reopened.close()


def test_system_retry_deadletter_recovers_healed_documents(tmp_path):
    corpus = _corpus(8)
    poison = corpus[2].doc_id
    # fails attempts 1..5: exhausts the first generate()'s 3-attempt budget,
    # then heals during the retry pass (attempts 4, 5 fail; 6 succeeds)
    inj = FaultInjector(mode="error", keys=(poison,), fail_attempts=5)
    system = _system(tmp_path, FaultyExtractor(InfoboxExtractor(), inj))
    system.ingest(corpus)
    report = system.generate(PROGRAM)
    assert report.failed_doc_ids == [poison]

    retried, still_failed = system.retry_deadletter(PROGRAM)
    assert (retried, still_failed) == (1, 0)
    assert system.deadletter.doc_ids() == []
    system.close()


def test_system_retry_deadletter_keeps_still_poison_docs(tmp_path):
    corpus = _corpus(8)
    poison = corpus[1].doc_id
    inj = FaultInjector(mode="error", keys=(poison,), persistent_share=1.0)
    system = _system(tmp_path, FaultyExtractor(InfoboxExtractor(), inj))
    system.ingest(corpus)
    system.generate(PROGRAM)
    retried, still_failed = system.retry_deadletter(PROGRAM)
    assert (retried, still_failed) == (1, 1)
    assert system.deadletter.doc_ids() == [poison]
    system.close()


def test_retry_deadletter_never_swaps_the_corpus(tmp_path):
    # Regression: the retry pass used to replace ``system._corpus`` with a
    # subset for the length of generate(); a page ingested meanwhile (from
    # another thread, or here from inside the extractor) landed in the
    # subset and was lost when the saved corpus came back.
    corpus = _corpus(8)
    poison = corpus[2].doc_id
    late = corpus[-1]
    observed = []

    class IngestsMidRetry(FaultyExtractor):
        def extract(self, doc):
            if armed:
                observed.append(len(system.corpus))
                system.ingest([late])
            return super().extract(doc)

    armed = False
    inj = FaultInjector(mode="error", keys=(poison,), fail_attempts=3)
    system = _system(tmp_path, IngestsMidRetry(InfoboxExtractor(), inj))
    system.ingest(corpus[:-1])
    assert system.generate(PROGRAM).failed_doc_ids == [poison]

    armed = True
    assert system.retry_deadletter(PROGRAM) == (1, 0)
    # system.corpus told the truth: the whole corpus, then the page too
    assert observed == [len(corpus) - 1] + [len(corpus)] * (len(corpus) - 2)
    assert late.doc_id in {d.doc_id for d in system.corpus}
    assert len(system.corpus) == len(corpus)
    system.close()
