"""Structured output of the kernel race sanitizer.

A :class:`SanitizerReport` is the JSON-serializable artifact the CI
``sanitize-tracer`` job uploads: every hazard the tracer flagged, plus the
coverage counters that prove the instrumentation actually ran (a
zero-finding report over zero intervals proves nothing).

Finding classes:

``S101`` — unprotected write-write conflict: two lanes stored to the
    same address inside one barrier interval without routing through a
    declared atomic helper (:mod:`repro.gpu.primitives`), or a plain
    store overlapped an atomic accumulation in the same interval (the
    seed-then-accumulate pattern needs a barrier between the phases).
``S102`` — read-after-write hazard: an address was both read and
    written inside one barrier interval by different lanes — the level
    loop is missing a barrier, so a lane may observe a torn or
    half-updated value.
``S103`` — frontier-monotonicity violation: a queue kernel enqueued a
    vertex whose distance does not match the target level, re-enqueued
    a vertex the dedup pipeline should have removed, or pushed levels
    out of order (the Q/Q2/QQ invariants of Algorithms 5 and 7).

Ordering is deterministic: findings sort by (code, kernel, stage,
level, array), so two runs over the same stream produce byte-identical
JSON — tooling can diff reports directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: schema version of the JSON document (bump on breaking changes)
REPORT_VERSION = 1

S101 = "S101"  #: unprotected write-write conflict
S102 = "S102"  #: read-after-write hazard (missing barrier)
S103 = "S103"  #: frontier-monotonicity violation

FINDING_CLASSES: Dict[str, str] = {
    S101: "unprotected write-write conflict",
    S102: "read-after-write hazard (missing barrier)",
    S103: "frontier-monotonicity violation",
}


@dataclass(frozen=True)
class Finding:
    """One hazard flagged by the tracer.

    ``sample`` holds up to the first few conflicting addresses so a
    finding is actionable without storing whole index arrays.
    """

    code: str  #: S101 | S102 | S103
    kernel: str  #: kernel session label, e.g. "case2-insert:17"
    stage: str  #: barrier-interval stage, e.g. "sp", "dep-accumulate"
    level: int  #: BFS/queue level of the interval
    array: str  #: array (S101/S102) or queue (S103) name
    count: int  #: number of conflicting addresses / vertices
    sample: Tuple[int, ...]  #: first few offending addresses
    message: str

    def to_dict(self) -> dict:
        """JSON-ready representation of one finding."""
        return {
            "code": self.code,
            "class": FINDING_CLASSES.get(self.code, "unknown"),
            "kernel": self.kernel,
            "stage": self.stage,
            "level": self.level,
            "array": self.array,
            "count": self.count,
            "sample": list(self.sample),
            "message": self.message,
        }

    def sort_key(self) -> tuple:
        """Stable report order: finding class first, then location."""
        return (self.code, self.kernel, self.stage, self.level, self.array,
                self.message)


@dataclass
class SanitizerReport:
    """Everything one tracing session observed."""

    findings: List[Finding] = field(default_factory=list)
    #: kernel sessions traced (one per instrumented kernel invocation)
    kernels: int = 0
    #: barrier intervals checked
    intervals: int = 0
    #: gather/scatter accesses recorded
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    #: declared-benign race activity actually observed, keyed
    #: ``"array:intent"`` → number of conflicting lanes whitelisted by
    #: construction (see ``repro.gpu.primitives.BENIGN_RACES``)
    benign: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no hazard was found."""
        return not self.findings

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` schema)."""
        return {
            "version": REPORT_VERSION,
            "ok": self.ok,
            "kernels": self.kernels,
            "intervals": self.intervals,
            "reads": self.reads,
            "writes": self.writes,
            "atomics": self.atomics,
            "benign": {k: self.benign[k] for k in sorted(self.benign)},
            "findings": [
                f.to_dict() for f in sorted(self.findings,
                                            key=Finding.sort_key)
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """Stable JSON rendering (sorted findings, sorted keys inside
        the benign map) — safe to diff or archive."""
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """Human one-screen rendering (the ``--format text`` body)."""
        lines = [
            f"sanitizer: {'ok' if self.ok else 'FAIL'} — "
            f"{len(self.findings)} finding(s) over {self.kernels} kernels, "
            f"{self.intervals} barrier intervals "
            f"({self.reads} reads, {self.writes} writes, "
            f"{self.atomics} atomics)"
        ]
        for key in sorted(self.benign):
            lines.append(f"  benign race [{key}]: {self.benign[key]} "
                         f"whitelisted lane conflicts")
        for f in sorted(self.findings, key=Finding.sort_key):
            lines.append(
                f"  {f.code} {FINDING_CLASSES.get(f.code, '?')}: "
                f"kernel={f.kernel} stage={f.stage} level={f.level} "
                f"{f.array} x{f.count} sample={list(f.sample)} — {f.message}"
            )
        return "\n".join(lines)

    def merge(self, other: "SanitizerReport") -> None:
        """Fold *other* into this report in place (used when several
        tracing sessions contribute to one replay report)."""
        self.findings.extend(other.findings)
        self.kernels += other.kernels
        self.intervals += other.intervals
        self.reads += other.reads
        self.writes += other.writes
        self.atomics += other.atomics
        for key, count in other.benign.items():
            self.benign[key] = self.benign.get(key, 0) + count
