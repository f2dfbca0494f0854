"""Cost accounting for the three execution strategies.

The *state transitions* of the dynamic update are identical across the
paper's implementations — what differs is how threads are mapped to
units of work, and therefore what each barrier-delimited phase costs:

* :class:`CPUAccountant` — Green et al.'s sequential algorithm: only
  the useful work is executed, one operation at a time (queue pops,
  neighbor scans, σ/δ updates).
* :class:`EdgeParallelAccountant` — Algorithms 4 & 6: every BFS /
  accumulation level re-scans **all** ``2m`` arcs; useful arcs
  additionally pay their update traffic.  This is the "many threads
  that perform an unnecessary comparison" the paper measures.
* :class:`NodeParallelAccountant` — Algorithms 5 & 7: explicit queues.
  The shortest-path stage costs the frontier and its arcs (perfectly
  work-efficient); the dependency stage scans the whole multi-level
  queue ``QQ`` each level (its small inefficiency, §III-B); duplicate
  removal pays the bitonic-sort pipeline of §III-A.

Each strategy writes its per-event step quantities once, in the
``*_steps`` formulas: expressions that work on Python ints and on
arrays over rows alike.  An accountant charges them one source at a
time into a :class:`~repro.gpu.counters.Trace` (the per-source oracle);
the executor charges the same formulas over all rows of a batch into a
:class:`~repro.gpu.ledger.CostLedger`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.costmodel import DEFAULT_OP_COSTS, OpCosts
from repro.gpu.counters import Step, Trace
from repro.gpu.ledger import Dedup
from repro.gpu.primitives import bitonic_sort_steps, prefix_sum_steps

#: The exact step :meth:`UpdateAccountant.classify` records — the same
#: for every strategy (reading d[u], d[v] and branching costs the same
#: everywhere).  Exposed so the engine's vectorized fast path can charge
#: a whole Case-1 source population in bulk (one step × count) without
#: constructing ``count`` accountant objects; see
#: :meth:`repro.gpu.counters.KernelCounters.absorb_step_repeated` and
#: :meth:`repro.gpu.costmodel.CostModel.fold_step_seconds`.
CLASSIFY_STEP = Step(
    work_items=1, cycles_per_item=4.0, bytes_moved=8.0, stage="classify"
)


class UpdateAccountant:
    """Base class: defines the event vocabulary of the update kernels.

    Subclasses write each event's step formulas (``*_steps``); the
    shared update core (:mod:`repro.bc.update_core`) calls the event
    hooks as it executes, and each hook charges its formula's steps.
    A formula returns ``(stage, items, cycles, bytes, atomics,
    conflict)`` tuples and :class:`~repro.gpu.ledger.Dedup` pipelines,
    in trace order;
    steps with zero work and zero atomics are dropped when charged.
    """

    #: human-readable strategy name (used in reports)
    strategy = "abstract"

    def __init__(
        self,
        num_vertices: int,
        total_arcs: int,
        op_costs: OpCosts = DEFAULT_OP_COSTS,
        label: str = "",
        access_cycles: Optional[float] = None,
    ) -> None:
        self.n = int(num_vertices)
        self.arcs_total = int(total_arcs)
        self.ops = op_costs
        self.trace = Trace(label=label)
        #: per-dependent-load cost; CPU strategies thread the
        #: cache-model value through here (GPU strategies hide latency
        #: with multithreading, so they keep the plain op cost).
        self.access_cycles = (
            op_costs.arc_scan_cycles if access_cycles is None else float(access_cycles)
        )

    # -- step formulas (shared trivial events) ---------------------------
    def classify_steps(self):
        """Read d[u], d[v] and branch (paper: 'figuring out which case
        each source node has to compute is trivial')."""
        s = CLASSIFY_STEP
        return ((s.stage, s.work_items, s.cycles_per_item, s.bytes_moved,
                 s.atomic_ops, s.max_conflict),)

    def init_steps(self, n):
        """Algorithm 3: reset t, copy sigma -> sigma_hat, zero delta_hat."""
        return (("init", n, self.ops.init_cycles, self.ops.init_bytes * n,
                 0, 1),)

    def commit_steps(self, n, touched):
        """Algorithm 8: fold delta_hat/sigma_hat back, atomically add BC
        (one block per source: BC adds rarely collide)."""
        return (("commit", n, self.ops.commit_cycles,
                 self.ops.commit_bytes * n, touched, 1),)

    # -- step formulas (overridden) --------------------------------------
    def sp_steps(self, frontier, arcs, onpath, raw_new, new, max_conflict=1):
        """One level of the shortest-path stage: *frontier* queued
        vertices scanned *arcs* arcs, *onpath* hit the next level,
        *raw_new* enqueue attempts produced *new* unique vertices."""
        raise NotImplementedError

    def dep_steps(self, qq, level_nodes, arcs, adds, subs, new_up,
                  max_conflict=1):
        """One level of the dependency stage: *qq* entries in the
        multi-level queue, of which *level_nodes* matched this level
        and scanned *arcs* arcs, issuing *adds* new and *subs* retired
        contributions and discovering *new_up* predecessors."""
        raise NotImplementedError

    def pull_steps(self, frontier, pull_arcs, scan_arcs, raw_new, new):
        """One level of the Case-3 distance/sigma repair: *frontier*
        candidates pulled sigma over *pull_arcs* predecessor arcs and
        scanned *scan_arcs* arcs for the next level."""
        raise NotImplementedError

    def prepass_steps(self, moved, arcs, subs):
        """The Case-3 pre-pass retiring *moved* vertices' old
        contributions (*subs* of them) over *arcs* scanned arcs."""
        raise NotImplementedError

    # -- events: charge one source's formulas into its trace -------------
    def classify(self) -> None:
        """Charge :meth:`classify_steps`."""
        # Append the shared frozen step so the bulk (vectorized) path
        # charges the bit-identical quantity per source.
        self.trace.steps.append(CLASSIFY_STEP)

    def init(self, n: int) -> None:
        """Charge :meth:`init_steps`."""
        self._charge(self.init_steps(n))

    def commit(self, n: int, touched: int) -> None:
        """Charge :meth:`commit_steps`."""
        self._charge(self.commit_steps(n, touched))

    def sp_level(self, frontier: int, arcs: int, onpath: int,
                 raw_new: int, new: int, max_conflict: int = 1) -> None:
        """Charge :meth:`sp_steps`."""
        self._charge(self.sp_steps(frontier, arcs, onpath, raw_new, new,
                                   max_conflict))

    def dep_level(self, qq: int, level_nodes: int, arcs: int, adds: int,
                  subs: int, new_up: int, max_conflict: int = 1) -> None:
        """Charge :meth:`dep_steps`."""
        self._charge(self.dep_steps(qq, level_nodes, arcs, adds, subs,
                                    new_up, max_conflict))

    def pull_level(self, frontier: int, pull_arcs: int, scan_arcs: int,
                   raw_new: int, new: int) -> None:
        """Charge :meth:`pull_steps`."""
        self._charge(self.pull_steps(frontier, pull_arcs, scan_arcs,
                                     raw_new, new))

    def prepass(self, moved: int, arcs: int, subs: int) -> None:
        """Charge :meth:`prepass_steps`."""
        self._charge(self.prepass_steps(moved, arcs, subs))

    def finish(self) -> Trace:
        """Return the accumulated work trace for this source update."""
        return self.trace

    def _charge(self, steps) -> None:
        for step in steps:
            if isinstance(step, Dedup):
                self._charge_dedup(*step)
            else:
                self.trace.add_stage(*step)

    def _charge_dedup(self, raw_len: int, unique_len: int) -> None:
        """Bitonic sort + adjacent compare + prefix sum + scatter
        (§III-A), charged without re-executing the pipeline."""
        if raw_len <= 1:
            return
        p = 1 << (raw_len - 1).bit_length()
        for _ in range(bitonic_sort_steps(raw_len)):
            self.trace.add_stage("dedup", p, 3.0, 8.0 * p)
        self.trace.add_stage("dedup", raw_len, 2.0, 9.0 * raw_len)
        for _ in range(prefix_sum_steps(raw_len)):
            self.trace.add_stage("dedup", raw_len, 2.0, 8.0 * raw_len)
        self.trace.add_stage("dedup", raw_len, 2.0,
                             4.0 * raw_len + 4.0 * unique_len)


class CPUAccountant(UpdateAccountant):
    """Sequential execution: cost tracks exactly the useful operations."""

    strategy = "cpu"

    def init_steps(self, n):
        # Algorithm 2 lines 2-8 construct fresh per-update structures —
        # including the n-level multi-queue QQ — so the sequential
        # baseline pays allocation and scattered writes on top of the
        # array resets (Green et al.'s reference implementation does
        # exactly this).
        return (("init", n, 24.0, 1.5 * self.ops.init_bytes * n, 0, 1),)

    def sp_steps(self, frontier, arcs, onpath, raw_new, new, max_conflict=1):
        ops = self.ops
        return (("sp", frontier + arcs + onpath + new, self.access_cycles,
                 frontier * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
                 + onpath * ops.edge_hit_bytes + new * 12.0, 0, 1),)

    def dep_steps(self, qq, level_nodes, arcs, adds, subs, new_up,
                  max_conflict=1):
        # Sequential dequeue touches only this level's nodes, not all of QQ.
        ops = self.ops
        return (("dep", level_nodes + arcs + 2 * (adds + subs) + new_up,
                 self.access_cycles,
                 level_nodes * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
                 + (adds + subs) * ops.dep_update_bytes + new_up * 16.0,
                 0, 1),)

    def pull_steps(self, frontier, pull_arcs, scan_arcs, raw_new, new):
        ops = self.ops
        return (("pull", frontier + pull_arcs + scan_arcs + new,
                 self.access_cycles,
                 frontier * ops.node_pop_bytes
                 + (pull_arcs + scan_arcs) * ops.arc_scan_bytes + new * 12.0,
                 0, 1),)

    def prepass_steps(self, moved, arcs, subs):
        ops = self.ops
        return (("prepass", moved + arcs + 2 * subs, self.access_cycles,
                 moved * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
                 + subs * ops.dep_update_bytes, 0, 1),)


class EdgeParallelAccountant(UpdateAccountant):
    """One thread per arc, re-launched every level (Algorithms 4 & 6)."""

    strategy = "gpu-edge"

    def sp_steps(self, frontier, arcs, onpath, raw_new, new, max_conflict=1):
        ops = self.ops
        return (("sp",
                 self.arcs_total,  # every arc checks d[v] == current_depth
                 ops.edge_check_cycles,
                 self.arcs_total * ops.edge_check_bytes
                 + onpath * ops.edge_hit_bytes,
                 onpath, max_conflict),)

    def dep_steps(self, qq, level_nodes, arcs, adds, subs, new_up,
                  max_conflict=1):
        ops = self.ops
        return (("dep", self.arcs_total, ops.edge_check_cycles,
                 self.arcs_total * ops.edge_check_bytes
                 + (adds + subs) * ops.dep_update_bytes,
                 # dsv is accumulated in-register, one atomic per hit
                 adds, max_conflict),)

    def pull_steps(self, frontier, pull_arcs, scan_arcs, raw_new, new):
        # Distance relabel pass plus sigma pull pass, each a full scan.
        ops = self.ops
        return (("pull", 2 * self.arcs_total, ops.edge_check_cycles,
                 2 * self.arcs_total * ops.edge_check_bytes
                 + (pull_arcs + scan_arcs) * ops.edge_hit_bytes,
                 pull_arcs, 1),)

    def prepass_steps(self, moved, arcs, subs):
        ops = self.ops
        return (("prepass", self.arcs_total, ops.edge_check_cycles,
                 self.arcs_total * ops.edge_check_bytes
                 + subs * ops.dep_update_bytes, subs, 1),)


class NodeParallelAccountant(UpdateAccountant):
    """One thread per queued vertex (Algorithms 5 & 7)."""

    strategy = "gpu-node"

    def sp_steps(self, frontier, arcs, onpath, raw_new, new, max_conflict=1):
        ops = self.ops
        return (
            ("sp", frontier + arcs, ops.arc_scan_cycles,
             frontier * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
             + onpath * ops.edge_hit_bytes,
             onpath + raw_new,
             # Q2 appends all hit one counter; sigma hits collide
             # per-vertex.
             np.maximum(max_conflict, raw_new)),
            Dedup(raw_new, new),
            # Transfer unique entries Q2 -> Q and append to QQ (Alg. 5
            # lines 25-28; the QQ append is an atomic counter bump).
            ("sp", new, 2.0, 12.0 * new, new, new),
        )

    def dep_steps(self, qq, level_nodes, arcs, adds, subs, new_up,
                  max_conflict=1):
        ops = self.ops
        return (("dep",
                 qq + arcs,  # every queued vertex re-checks its level (Alg. 7 line 5)
                 ops.arc_scan_cycles,
                 qq * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
                 + (adds + subs) * ops.dep_update_bytes,
                 adds + new_up, np.maximum(max_conflict, new_up)),)

    def pull_steps(self, frontier, pull_arcs, scan_arcs, raw_new, new):
        ops = self.ops
        return (
            ("pull", frontier + pull_arcs + scan_arcs, ops.arc_scan_cycles,
             frontier * ops.node_pop_bytes
             + (pull_arcs + scan_arcs) * ops.arc_scan_bytes + new * 12.0,
             raw_new, raw_new),
            Dedup(raw_new, new),
        )

    def prepass_steps(self, moved, arcs, subs):
        ops = self.ops
        return (("prepass", moved + arcs, ops.arc_scan_cycles,
                 moved * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
                 + subs * ops.dep_update_bytes, subs, 1),)


class NodeParallelAtomicDedupAccountant(NodeParallelAccountant):
    """Ablation: node-parallel with atomic test-and-set de-duplication.

    §III-A sketches the alternative the paper rejected: "An atomic
    operation could be used to test and set t[w] ... ensuring that only
    one thread places w into Q2".  That removes the sort/scan pipeline
    but serializes a CAS per discovered arc on hot vertices.  The
    dedup-strategy benchmark compares the two cost profiles.
    """

    strategy = "gpu-node-atomic"

    def sp_steps(self, frontier, arcs, onpath, raw_new, new, max_conflict=1):
        ops = self.ops
        return (
            ("sp", frontier + arcs, ops.arc_scan_cycles,
             frontier * ops.node_pop_bytes + arcs * ops.arc_scan_bytes
             + onpath * ops.edge_hit_bytes,
             # one CAS per on-path arc (test-and-set) + sigma atomics +
             # exactly `new` queue appends; CAS conflicts mirror sigma's.
             2 * onpath + new, np.maximum(max_conflict, new)),
            # Q2 holds unique entries already: plain transfer, no sort.
            ("sp", new, 2.0, 12.0 * new, new, new),
        )

    def pull_steps(self, frontier, pull_arcs, scan_arcs, raw_new, new):
        ops = self.ops
        return (("pull", frontier + pull_arcs + scan_arcs, ops.arc_scan_cycles,
                 frontier * ops.node_pop_bytes
                 + (pull_arcs + scan_arcs) * ops.arc_scan_bytes + new * 12.0,
                 pull_arcs + scan_arcs, np.maximum(1, new)),)


#: strategy name -> accountant class
ACCOUNTANTS = {
    cls.strategy: cls
    for cls in (
        CPUAccountant,
        EdgeParallelAccountant,
        NodeParallelAccountant,
        NodeParallelAtomicDedupAccountant,
    )
}


def make_accountant(
    strategy: str,
    num_vertices: int,
    total_arcs: int,
    op_costs: OpCosts = DEFAULT_OP_COSTS,
    label: str = "",
    access_cycles: Optional[float] = None,
) -> UpdateAccountant:
    """Instantiate the accountant for a strategy name."""
    try:
        cls = ACCOUNTANTS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(ACCOUNTANTS)}"
        ) from None
    return cls(num_vertices, total_arcs, op_costs, label, access_cycles)
