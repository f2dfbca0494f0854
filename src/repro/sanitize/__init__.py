"""Correctness tooling for the simulated GPU kernels (two layers).

**Layer 1 — kernel race sanitizer** (:mod:`repro.sanitize.tracer`):
an opt-in instrumentation mode that records per-lane read/write sets
inside every simulated barrier interval of the per-level kernels and
flags the hazards GPU memory-model discipline forbids — unprotected
write-write conflicts (S101), read-after-write across lanes within a
level (S102, a missing barrier), and frontier-monotonicity violations
in the Q/Q2/QQ queue kernels (S103).  Exposed as
``DynamicBC(sanitize=True)``, ``brandes_bc(..., sanitize=True)`` and
the ``repro-bc sanitize`` CLI subcommand; results come back as a
structured :class:`~repro.sanitize.report.SanitizerReport`.

**Layer 2 — static analyzer** (:mod:`repro.sanitize.flow`,
``python -m repro.sanitize.flow``): one parse per file, one whole-repo
call graph (:mod:`repro.sanitize.callgraph`), and one rule table
enforcing the repo invariants the simulation's bit-identity guarantees
rest on.  The lexical rules R001–R006 judge one node at a time (no raw
wall-clock in kernel code, no unseeded RNG, shm lifecycle pairing, no
silent exception swallowing in the resilience layers, kernels must
charge counters, atomic durable writes); the interprocedural rules
F101–F104 run a fixpoint effect analysis for what crosses function
boundaries — async paths reaching blocking calls (F101), durability
protocol ordering (F102), shm view lifetime escapes (F103),
determinism taint (F104).  A file that does not parse is finding
E001.  Findings render as text, JSON or SARIF; the justified
suppression baseline is the one escape hatch.

See ``docs/SANITIZER.md`` for the rule table, the benign-race
annotation protocol and usage examples.
"""

from repro.sanitize.report import Finding, SanitizerReport
from repro.sanitize.tracer import MemoryTracer, current_tracer, tracing

__all__ = [
    "Finding",
    "MemoryTracer",
    "SanitizerReport",
    "current_tracer",
    "tracing",
]
