"""Interprocedural fixpoint engine: effect summaries over the call graph.

The framework is a classic bottom-up effect analysis.  Every function
gets a **summary**: the set of effects its execution may transitively
cause.  Root effects are assigned per call site by pattern
(:func:`site_root_effects`); summaries then propagate callee → caller
over the :class:`~repro.sanitize.callgraph.CallGraph` with a worklist
until fixpoint.  The join is set union (a powerset lattice of the
effect atoms, monotone, so termination is immediate).

Which edge kinds an effect crosses is the analysis' precision policy:

* ``BLOCKING`` crosses only ``direct`` edges.  An ``executor`` edge is
  the sanctioned escape hatch (the callee runs on a worker thread) and
  a ``constructor`` edge is setup-time by convention — services are
  built once before serving; e.g. ``BCService.__init__`` legitimately
  recovers a journal synchronously.
* the protocol effects (``CHECKS_FENCE``, ``FH_WRITE``, ``WAL_APPEND``)
  also cross only ``direct`` edges — they describe what a statement on
  the *caller's* thread does, which is exactly what ordering rules
  need.

For every (function, effect) pair the engine records a **witness**: the
call site that introduced the effect.  Following witnesses callee-ward
reconstructs a concrete call path down to the blocking/fencing root —
the trace attached to findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sanitize.callgraph import (
    CallGraph,
    CallSite,
    EXECUTOR_CLASSES,
    FILE_TYPE,
    FunctionInfo,
    ModuleInfo,
    WALL_CLOCK_FUNCS,
)

# effect atoms -----------------------------------------------------------
#: may block the calling thread (sleep, disk, fsync, thread join, ...)
BLOCKING = "blocking"
#: may write bytes into an open segment file handle
FH_WRITE = "fh_write"
#: may re-read + validate the fencing epoch (WriteAheadLog.check_fence)
CHECKS_FENCE = "checks_fence"
#: may append a record to a write-ahead journal
WAL_APPEND = "wal_append"

#: ``os.*`` calls that hit the disk hard enough to stall an event loop
_OS_BLOCKING = {"fsync", "fdatasync", "sync", "unlink", "remove",
                "replace", "rename", "makedirs", "rmdir"}
#: name-based blocking tails (low collision risk, high value)
_BLOCKING_TAILS = {"read_text", "write_text", "read_bytes", "write_bytes"}
#: heavy NumPy entry points (big allocations / LAPACK); deliberately
#: excludes argsort & friends — snapshot reads use them by design
_NP_BLOCKING = {"save", "load", "savez", "savez_compressed"}
_SUBPROCESS = {"run", "call", "check_call", "check_output", "Popen"}

#: method calls on an ``open()``-typed handle, by effect
_FILE_METHOD_EFFECTS = {
    "write": frozenset({BLOCKING, FH_WRITE}),
    "writelines": frozenset({BLOCKING, FH_WRITE}),
    "read": frozenset({BLOCKING}),
    "readline": frozenset({BLOCKING}),
    "readlines": frozenset({BLOCKING}),
    "flush": frozenset({BLOCKING}),
    "close": frozenset({BLOCKING}),
    "seek": frozenset({BLOCKING}),
    "truncate": frozenset({BLOCKING, FH_WRITE}),
}

_EMPTY: FrozenSet[str] = frozenset()


def site_root_effects(site: CallSite, fn: FunctionInfo,
                      mod: ModuleInfo, graph: CallGraph) -> FrozenSet[str]:
    """The effects *this call expression itself* is a root of (before
    any summary propagation)."""
    if site.kind == "executor":
        # the target is shipped to a worker thread, not called here —
        # its effects (and the dispatch call's own name patterns) do
        # not execute on the caller's thread
        return _EMPTY
    chain = site.chain
    if not chain:
        return _EMPTY
    effects: Set[str] = set()
    tail = chain[-1]
    # -- blocking roots ------------------------------------------------
    if chain == ("open",):
        effects.add(BLOCKING)
    elif len(chain) == 2 and chain[0] == "os" and tail in _OS_BLOCKING:
        effects.add(BLOCKING)
    elif len(chain) == 2 and chain[0] in mod.time_aliases \
            and tail == "sleep":
        effects.add(BLOCKING)
    elif len(chain) == 1 and tail == "sleep" \
            and "sleep" in mod.imports \
            and mod.imports["sleep"] == "time.sleep":
        effects.add(BLOCKING)
    elif len(chain) == 2 and chain[0] in mod.np_aliases \
            and tail in _NP_BLOCKING:
        effects.add(BLOCKING)
    elif len(chain) == 2 and chain[0] == "subprocess" \
            and tail in _SUBPROCESS:
        effects.add(BLOCKING)
    elif tail in _BLOCKING_TAILS:
        effects.add(BLOCKING)
    elif tail == "shutdown" and site.receiver_type in EXECUTOR_CLASSES:
        effects.add(BLOCKING)
    # -- file-handle methods -------------------------------------------
    if site.receiver_type == FILE_TYPE and tail in _FILE_METHOD_EFFECTS:
        effects.update(_FILE_METHOD_EFFECTS[tail])
    # -- protocol roots ------------------------------------------------
    if tail == "check_fence":
        effects.add(CHECKS_FENCE)
    if site.callee is not None:
        callee = graph.functions.get(site.callee)
        if callee is not None and callee.name == "append" \
                and callee.class_qname is not None:
            cls = graph.classes.get(callee.class_qname)
            if cls is not None and cls.has_check_fence:
                effects.add(WAL_APPEND)
    return frozenset(effects)


#: which edge kinds each effect crosses during propagation
_PROPAGATE_KINDS: Dict[str, FrozenSet[str]] = {
    BLOCKING: frozenset({"direct"}),
    FH_WRITE: frozenset({"direct"}),
    CHECKS_FENCE: frozenset({"direct"}),
    WAL_APPEND: frozenset({"direct"}),
}


@dataclass
class Witness:
    """How an effect entered a function: the local call site, plus the
    callee it came through (``None`` when the site itself is the root)."""

    site: CallSite
    via_callee: Optional[str] = None


@dataclass
class EffectSummaries:
    """Fixpoint result: per-function effect sets + witnesses."""

    graph: CallGraph
    summary: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    roots: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    witness: Dict[Tuple[str, str], Witness] = field(default_factory=dict)

    def effects_of(self, qname: str) -> FrozenSet[str]:
        """Fixpoint effect set for *qname* (empty when unknown)."""
        return self.summary.get(qname, _EMPTY)

    def site_effects(self, site: CallSite) -> FrozenSet[str]:
        """Everything executing *this call site* may cause: its own
        root effects plus the resolved callee's summary, filtered by
        the effects that legally cross the site's edge kind."""
        effects = set(self.roots.get(id(site), _EMPTY))
        if site.callee is not None:
            for effect in self.effects_of(site.callee):
                if site.kind in _PROPAGATE_KINDS[effect]:
                    effects.add(effect)
        return frozenset(effects)

    def statement_effects(
        self, stmt: ast.stmt,
        sites_by_node: Dict[int, List[CallSite]],
    ) -> FrozenSet[str]:
        """Union of :meth:`site_effects` over every call in *stmt*."""
        effects: Set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                for site in sites_by_node.get(id(node), []):
                    effects.update(self.site_effects(site))
        return frozenset(effects)

    def trace(self, qname: str, effect: str, limit: int = 12) -> List[str]:
        """Reconstruct a call path for (*qname*, *effect*) by chasing
        witnesses callee-ward, rendered as ``Class.fn (path:line)``."""
        steps: List[str] = []
        cur = qname
        seen = set()
        while cur is not None and cur not in seen and len(steps) < limit:
            seen.add(cur)
            wit = self.witness.get((cur, effect))
            if wit is None:
                break
            fn = self.graph.functions.get(cur)
            where = (f"{fn.path}:{wit.site.lineno}" if fn is not None
                     else f"?:{wit.site.lineno}")
            label = ".".join(wit.site.chain) or "<call>"
            steps.append(f"{label}(...) at {where}")
            cur = wit.via_callee
        return steps


def compute_summaries(graph: CallGraph) -> EffectSummaries:
    """Run the worklist to fixpoint over every registered function."""
    result = EffectSummaries(graph=graph)
    # seed: root effects per site, direct summaries per function
    for qname, sites in graph.calls.items():
        fn = graph.functions[qname]
        mod = graph.modules.get(fn.path)
        acc: Set[str] = set()
        for site in sites:
            roots = (site_root_effects(site, fn, mod, graph)
                     if mod is not None else _EMPTY)
            result.roots[id(site)] = roots
            for effect in roots:
                if effect not in acc:
                    result.witness[(qname, effect)] = Witness(site=site)
            acc.update(roots)
        result.summary[qname] = frozenset(acc)
    # propagate callee -> caller until stable
    work = list(graph.functions)
    pending = set(work)
    while work:
        callee = work.pop()
        pending.discard(callee)
        callee_effects = result.summary.get(callee, _EMPTY)
        if not callee_effects:
            continue
        for caller, site in graph.callers.get(callee, ()):  # noqa: B007
            crossing = {e for e in callee_effects
                        if site.kind in _PROPAGATE_KINDS[e]}
            current = result.summary.get(caller, _EMPTY)
            new = crossing - current
            if not new:
                continue
            for effect in new:
                result.witness[(caller, effect)] = Witness(
                    site=site, via_callee=callee
                )
            result.summary[caller] = current | new
            if caller not in pending:
                pending.add(caller)
                work.append(caller)
    return result


def sites_by_call_node(graph: CallGraph,
                       qname: str) -> Dict[int, List[CallSite]]:
    """Index a function's call sites by their ``ast.Call`` node id
    (dispatch calls contribute two sites for one node)."""
    index: Dict[int, List[CallSite]] = {}
    for site in graph.calls.get(qname, ()):  # noqa: B007
        index.setdefault(id(site.call), []).append(site)
    return index
