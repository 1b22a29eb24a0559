"""The end-to-end system — the paper's primary contribution (Figure 1).

:class:`StructureManagementSystem` wires every layer together:

* physical — optional simulated cluster for extraction waves;
* storage — snapshot store (raw), record files (intermediate), mini-RDBMS
  (final structure + user contributions);
* processing — the xlog IE+II+HI language with optimizer, the semantic
  debugger screening generated facts, uncertainty + provenance recording;
* user — keyword search over pages *and* facts, SQL, keyword→structured
  query guidance, exploration sessions, accounts/reputation.

Facts are generated three ways — by a program (:meth:`~StructureManagementSystem.
generate`: in one shot, or one program per demand over the shared
extraction cache, which is the DGE model's "incremental, best-effort"
generation, experiment E4), streaming (:class:`~repro.core.streaming.
StreamingPipeline`) and contributed (:meth:`~StructureManagementSystem.
contribute`) — over one extraction stage (:func:`repro.extraction.stage.
run_stage`) and, for the ``facts`` table, one landing path
(``StructureManagementSystem._land``: screen → halve confidence → insert
→ provenance → index).  DESIGN.md has the table of entry point → stage →
sink.
"""

from repro.core.system import GenerationReport, StructureManagementSystem

__all__ = [
    "StructureManagementSystem",
    "GenerationReport",
]
