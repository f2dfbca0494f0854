"""Interprocedural dataflow analyzer (sanitizer Layer 3).

Where the Layer-2 linter judges one expression at a time, this layer
builds a whole-repo call graph (:mod:`repro.sanitize.callgraph`) over
the shared parse cache, runs a fixpoint effect analysis on it
(:mod:`repro.sanitize.flow.engine`), and checks the cross-function
invariants the serving stack actually depends on:

====  ==============================================================
F101  No path from an ``async def`` in ``repro/service/`` to a
      blocking call (fsync, file I/O, ``time.sleep``, thread joins,
      heavy NumPy) except through ``run_in_executor``/``to_thread``
      (or a constructor — setup happens before serving).
F102  Durability protocol order: ``check_fence()`` before segment
      writes on every public WAL commit path; journal-append before
      durable-ack; ``promote()`` runs fence → seal → own → advertise.
F103  Zero-copy shm views must not escape their arena round
      (returned, stored on an attribute, yielded, or closed over)
      without a copy — the dataflow upgrade of lexical R003.
F104  Wall-clock / unseeded-RNG taint must never fold into the
      bit-identical quantities (accountant charges, checkpoint
      payloads, ``simulated_seconds``/``bc`` state).
====  ==============================================================

Run as ``python -m repro.sanitize.flow src/repro`` (formats: text,
json, sarif; exit 1 on any finding not covered by the suppression
baseline).  See docs/SANITIZER.md, "Interprocedural analysis".
"""

from repro.sanitize.flow.baseline import (
    BaselineError,
    apply_baseline,
    empty_baseline,
    load_baseline,
)
from repro.sanitize.flow.cli import analyze_paths, analyze_sources, main
from repro.sanitize.flow.findings import (
    FLOW_RULES,
    FLOW_VERSION,
    FlowFinding,
    FlowReport,
)
from repro.sanitize.flow.sarif import render_sarif, to_sarif

__all__ = [
    "FLOW_RULES",
    "FLOW_VERSION",
    "BaselineError",
    "FlowFinding",
    "FlowReport",
    "analyze_paths",
    "analyze_sources",
    "apply_baseline",
    "empty_baseline",
    "load_baseline",
    "main",
    "render_sarif",
    "to_sarif",
]
