"""The e2e benchmark patches ``src/`` callables and reads registry counters
by name from outside (``benchmarks/e2e/trace.py`` / ``spec.py``, neither
of which a ``src/`` PR may edit).  A rename therefore used to surface as a
crashed benchmark run; here it is a failing tier-1 test."""

import importlib
import importlib.util
import inspect
import os

import pytest

from repro.core.system import StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.core.streaming import DocDelta
from repro.telemetry.metrics import MetricsRegistry, use_registry

_E2E = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "e2e")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_e2e_{name}", os.path.join(_E2E, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("trace").TARGETS


@pytest.mark.parametrize("module_name, class_name, attr, metric", TARGETS)
def test_trace_target_resolves(module_name, class_name, attr, metric):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    target = inspect.getattr_static(owner, attr)  # what Recorder.install does
    if isinstance(target, staticmethod):
        target = target.__func__
    assert callable(target), (module_name, class_name, attr)


def test_generation_counters_the_ledger_reads_are_still_recorded():
    generation = {c for c in _load("spec").COUNTERS
                  if c.split(".")[0] in ("cache", "extraction", "dge")}
    assert generation >= {"cache.hits", "cache.misses", "extraction.docs",
                          "extraction.extractions", "dge.deltas_in"}
    corpus, _ = generate_city_corpus(
        CityCorpusConfig(num_cities=4, seed=3, styles=("infobox",)))
    registry = MetricsRegistry()
    with use_registry(registry):
        system = StructureManagementSystem(cache="memory")
        system.registry.register_extractor("infobox", InfoboxExtractor())
        system.ingest(corpus)
        system.generate('p = docs()\nf = extract(p, "infobox")\noutput f')
        pipeline = system.streaming_pipeline()
        pipeline.process(DocDelta(added=tuple(system.corpus)))
        system.close()
    recorded = set(registry.snapshot()["counters"])
    # event counters only appear once such an event has happened (a
    # split, a dead letter, a standing query's notification)
    assert generation - recorded <= {"dge.clusters_split",
                                     "dge.docs_deadlettered",
                                     "dge.rows_pushed"}
