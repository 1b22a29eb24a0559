"""repro — a structured approach to managing unstructured data.

A full implementation of the end-to-end system blueprint from
"The Case for a Structured Approach to Managing Unstructured Data"
(Doan, Naughton, et al., CIDR 2009): information extraction (IE),
information integration (II), and human intervention (HI) combined in a
declarative, optimized pipeline over a layered storage architecture, with
uncertainty, provenance, schema evolution, a semantic debugger, and a user
layer that guides keyword queries into structured ones.

Quick start::

    from repro import StructureManagementSystem, OperatorRegistry
    from repro.datagen import generate_city_corpus

    corpus, truth = generate_city_corpus()
    system = StructureManagementSystem()
    system.registry.register_extractor("infobox", ...)
    system.ingest(corpus)
    system.generate('pages = docs()\\n'
                    'facts = extract(pages, "infobox")\\n'
                    'output facts')
    system.query("SELECT AVG(value_num) FROM facts WHERE entity = 'Madison'")

See DESIGN.md for the architecture and EXPERIMENTS.md for the experiment
suite.
"""

from repro.core.system import GenerationReport, StructureManagementSystem
from repro.lang.registry import OperatorRegistry

__version__ = "0.1.0"

__all__ = [
    "StructureManagementSystem",
    "GenerationReport",
    "OperatorRegistry",
    "__version__",
]
