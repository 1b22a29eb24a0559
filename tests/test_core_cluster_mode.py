"""Tests for running the system on the simulated cluster backend."""

from repro.cluster.simulator import ClusterConfig, SimulatedCluster
from repro.core.system import FACTS_TABLE, StructureManagementSystem
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor

PROGRAM = 'p = docs()\nf = extract(p, "infobox")\noutput f'


def _system(on_cluster, workers=4):
    corpus, truth = generate_city_corpus(
        CityCorpusConfig(num_cities=12, seed=53, styles=("infobox",))
    )
    system = StructureManagementSystem(
        backend=SimulatedCluster(ClusterConfig(num_workers=workers, seed=2))
        if on_cluster else None,
    )
    system.registry.register_extractor("infobox", InfoboxExtractor())
    system.ingest(corpus)
    return system, truth


def test_cluster_mode_produces_same_facts_as_inline():
    inline, _ = _system(on_cluster=False)
    clustered, _ = _system(on_cluster=True)
    inline.generate(PROGRAM)
    report = clustered.generate(PROGRAM)
    assert report.cluster_makespan > 0

    def all_facts(system):
        return sorted(
            (r["entity"], r["attribute"], r["value_num"], r["value_text"])
            for r in system.query(
                f"SELECT entity, attribute, value_num, value_text "
                f"FROM {FACTS_TABLE}"
            )
        )

    assert all_facts(inline) == all_facts(clustered)


def test_inline_mode_reports_zero_makespan():
    system, _ = _system(on_cluster=False)
    report = system.generate(PROGRAM)
    assert report.cluster_makespan == 0.0


def test_more_workers_lower_simulated_makespan():
    small, _ = _system(on_cluster=True, workers=1)
    large, _ = _system(on_cluster=True, workers=8)
    makespan_small = small.generate(PROGRAM).cluster_makespan
    makespan_large = large.generate(PROGRAM).cluster_makespan
    assert makespan_large < makespan_small
