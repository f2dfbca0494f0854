"""Rule table, finding and report types for the static analyzer.

Mirrors the stable-JSON discipline of the race tracer's
:class:`~repro.sanitize.report.SanitizerReport`: findings sort
deterministically, serialize to a versioned document, and carry a
**fingerprint** that is independent of line numbers — so a suppression
baseline survives unrelated edits above the finding and only drifts
when the finding itself changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: schema version of the ``--format json`` document
FLOW_VERSION = 1

#: rule code → (summary, fix-it hint): the lexical rules R001–R006,
#: the interprocedural rules F101–F104, and E001 for a file that does
#: not parse (no rule can check it)
FLOW_RULES: Dict[str, Tuple[str, str]] = {
    "E001": (
        "unparseable source",
        "fix the syntax error: a file that does not parse is checked "
        "by no rule",
    ),
    "R001": (
        "raw wall-clock read in simulated-kernel code",
        "route simulated time through CostModel; if you need wall "
        "time, use repro.utils.timing.WallTimer outside bc/ and gpu/",
    ),
    "R002": (
        "module-level or unseeded numpy RNG",
        "take an explicit seed or np.random.Generator argument and "
        "build it with repro.utils.prng.default_rng(seed)",
    ),
    "R003": (
        "shared-memory lifecycle hazard",
        "pair the creation with close()/unlink() in the same "
        "function/class (or use a with-block), and go through "
        "repro.parallel.shm instead of multiprocessing.shared_memory",
    ),
    "R004": (
        "silently swallowed exception in a resilience-critical layer",
        "catch the narrowest exception you can handle, or make "
        "best-effort teardown explicit with contextlib.suppress(...)",
    ),
    "R005": (
        "kernel function never charges its accountant",
        "call a method on `acc` (acc.sp_level/acc.dep_level/...) or "
        "pass `acc` to a helper that does, before returning",
    ),
    "R006": (
        "non-atomic write to a durable path",
        "write through repro.utils.atomicio.atomic_write (or an "
        "inline tmp-file + os.replace) so readers never observe a "
        "torn file after a crash",
    ),
    "F101": (
        "async path reaches a blocking call without an executor hop",
        "route the blocking call off the event loop: await "
        "asyncio.to_thread(fn, ...) or loop.run_in_executor(pool, fn)",
    ),
    "F102": (
        "durability protocol order violated",
        "commit paths must check_fence() before any segment write; "
        "durable-ack paths must journal-append before awaiting the "
        "ack; promote() must fence -> seal -> own -> advertise",
    ),
    "F103": (
        "shared-memory view escapes its arena/round scope",
        "materialize before the buffer can be reused or unmapped: "
        "view.copy() / np.array(view) at the escape point",
    ),
    "F104": (
        "wall-clock or unseeded-RNG taint reaches deterministic state",
        "simulated results must fold only simulated quantities: use "
        "CostModel time / report.simulated_seconds, and seed every "
        "generator (repro.utils.prng.default_rng(seed))",
    ),
}


@dataclass(frozen=True)
class FlowFinding:
    """One finding, with the call-path evidence when a rule has one."""

    code: str
    path: str
    line: int
    col: int
    #: dotted qname of the function the finding is in (the module's
    #: name for a finding outside every function)
    function: str
    message: str
    #: call-path evidence, caller-first (``Class.fn (path:line)`` steps)
    trace: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the suppression
        baseline: rule + file + function + message."""
        basis = "\0".join((self.code, self.path, self.function,
                           self.message))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    @property
    def hint(self) -> str:
        """The rule's fix-it hint."""
        return FLOW_RULES[self.code][1]

    def to_dict(self) -> dict:
        """JSON-stable dict form (the ``--format json`` unit)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "summary": FLOW_RULES[self.code][0],
            "message": self.message,
            "trace": list(self.trace),
            "fingerprint": self.fingerprint,
            "hint": self.hint,
        }

    def render(self) -> str:
        """Multi-line human form: location, trace, fix-it, fingerprint."""
        lines = [f"{self.path}:{self.line}:{self.col}: {self.code} "
                 f"[{self.function}] {self.message}"]
        for step in self.trace:
            lines.append(f"    via {step}")
        lines.append(f"    fix-it: {self.hint}")
        lines.append(f"    fingerprint: {self.fingerprint}")
        return "\n".join(lines)

    def sort_key(self) -> tuple:
        """Deterministic report order: path, line, col, code."""
        return (self.path, self.line, self.col, self.code, self.message)


@dataclass
class FlowReport:
    """One analyzer run: findings plus the coverage counters that make
    an empty report meaningful (how much was actually analyzed)."""

    findings: List[FlowFinding] = field(default_factory=list)
    files: int = 0
    functions: int = 0
    call_edges: int = 0
    #: findings matched (and silenced) by the suppression baseline
    suppressed: List[FlowFinding] = field(default_factory=list)
    #: baseline fingerprints that no longer match anything (stale)
    stale_suppressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when no *new* (unsuppressed) finding remains."""
        return not self.findings

    def by_code(self) -> Dict[str, int]:
        """Finding counts per rule code, sorted by code."""
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """JSON-stable dict form of the whole run."""
        return {
            "version": FLOW_VERSION,
            "ok": self.ok,
            "files": self.files,
            "functions": self.functions,
            "call_edges": self.call_edges,
            "counts": self.by_code(),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stale_suppressions": sorted(self.stale_suppressions),
        }

    def to_json(self) -> str:
        """Pretty-printed JSON report (``--format json``)."""
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        """Human report: findings, stale-baseline warnings, summary."""
        lines = [f.render() for f in self.findings]
        for fp in sorted(self.stale_suppressions):
            lines.append(f"warning: stale suppression {fp} matches "
                         f"nothing (remove it from the baseline)")
        status = "ok" if self.ok else "FAIL"
        summary = (f"sanitize-flow: {status} — {len(self.findings)} new "
                   f"finding(s), {len(self.suppressed)} suppressed, over "
                   f"{self.functions} function(s) in {self.files} file(s)")
        if self.findings:
            summary += " " + json.dumps(self.by_code())
        lines.append(summary)
        return "\n".join(lines)


def sort_findings(findings: Sequence[FlowFinding]) -> List[FlowFinding]:
    """Sort into the deterministic report order."""
    return sorted(findings, key=FlowFinding.sort_key)
