"""The static analyzer (sanitizer Layer 2): one rule table over one
whole-repo call graph.

Each file is parsed once; the call graph
(:mod:`repro.sanitize.callgraph`) holds the modules' imports and
aliases, the functions and classes, and the resolved call sites; a
fixpoint effect analysis (:mod:`repro.sanitize.flow.engine`) runs over
it; then every rule in :data:`FLOW_RULES` runs
(:mod:`repro.sanitize.flow.rules`):

====  ==============================================================
R001  No raw wall-clock (``time.time``/``perf_counter``/...) inside
      ``repro/bc`` or ``repro/gpu``.
R002  No legacy global-state ``numpy.random.*`` call, and no RNG
      constructor without a seed, anywhere (callees resolve through
      the module's imports).
R003  ``ShmArena``/``SharedMemory`` creations paired with a
      ``close``/``unlink`` in their module (or a ``with`` block); no
      raw ``multiprocessing.shared_memory`` import outside
      ``parallel/shm.py``.
R004  No bare ``except:`` and no ``except Exception: pass`` in
      ``resilience/`` and ``parallel/``.
R005  Functions in ``bc/`` taking an ``acc`` accountant charge it.
R006  No non-atomic write-mode ``open()`` in ``resilience/`` and
      ``service/`` (``faults.py`` and ``wal.py`` exempt).
F101  No path from an ``async def`` in ``repro/service/`` to a
      blocking call (fsync, file I/O, ``time.sleep``, thread joins,
      heavy NumPy) except through ``run_in_executor``/``to_thread``
      (or a constructor — setup happens before serving).
F102  Durability protocol order: ``check_fence()`` before segment
      writes on every public WAL commit path; journal-append before
      durable-ack; ``promote()`` runs fence → seal → own → advertise.
F103  Zero-copy shm views must not escape their arena round
      (returned, stored on an attribute, yielded, or closed over)
      without a copy — the dataflow upgrade of R003.
F104  Wall-clock / unseeded-RNG taint must never fold into the
      bit-identical quantities (accountant charges, checkpoint
      payloads, ``simulated_seconds``/``bc`` state).
E001  The file does not parse, so no rule can check it.
====  ==============================================================

Run as ``python -m repro.sanitize.flow src/ tests/ --baseline
.flow-baseline.json`` (formats: text, json, sarif; exit 1 on any
finding not covered by the suppression baseline).  See
docs/SANITIZER.md, "Layer 2".
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
