"""Static BC on the virtual GPU (Jia et al. style).

This plays two roles in the reproduction:

* the **recomputation baseline** of Table III ("the implementation
  available from [13]" — edge-parallel, which Jia et al. found best for
  static BC);
* the workload of the **Fig. 1 thread-block sweep**, which retimes the
  same per-source traces under varying grid sizes.

Strategies:

* ``"gpu-edge"`` — one thread per arc, every BFS/accumulation level
  scans all ``2m`` arcs.
* ``"gpu-node"`` — one thread per *vertex*, every level scans all ``n``
  vertices; active vertices additionally walk their adjacency.
* ``"cpu"`` — sequential Brandes: useful work only.

All strategies produce identical scores (they share the vectorized
state math of :mod:`repro.bc.brandes`); only the traces differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bc.brandes import single_source_state
from repro.gpu.costmodel import DEFAULT_OP_COSTS, CostModel, OpCosts
from repro.gpu.counters import KernelCounters, Trace
from repro.gpu.device import DeviceSpec
from repro.gpu.executor import KernelTiming, schedule_blocks
from repro.graph.csr import CSRGraph
from repro.sanitize import tracer as san
from repro.sanitize.report import SanitizerReport

STATIC_STRATEGIES = ("gpu-edge", "gpu-node", "cpu")


@dataclass
class StaticBCResult:
    """Scores plus retimeable per-source traces."""

    bc: np.ndarray
    traces: List[Trace]
    counters: KernelCounters
    strategy: str
    #: race-sanitizer report of the per-source kernels, present when
    #: the run was started with ``sanitize=True``
    sanitizer: Optional[SanitizerReport] = None

    def timing(self, device: DeviceSpec, num_blocks: int = 0) -> KernelTiming:
        """Schedule the stored traces on (device, grid) — used by the
        Fig. 1 sweep to compare block counts without re-running BFS."""
        model = CostModel(device, num_blocks)
        per_source = [model.trace_seconds(t) for t in self.traces]
        return schedule_blocks(
            per_source, device, model.num_blocks, model.launch_overhead_seconds
        )


def _charge_level(
    trace: Trace,
    strategy: str,
    ops: OpCosts,
    n: int,
    arcs_total: int,
    frontier: int,
    frontier_arcs: int,
    updates: int,
    access_cycles: float,
) -> None:
    """One barrier-delimited level of either stage."""
    if strategy == "gpu-edge":
        trace.add(
            arcs_total,
            ops.edge_check_cycles,
            arcs_total * ops.edge_check_bytes + updates * ops.edge_hit_bytes,
            atomic_ops=updates,
        )
    elif strategy == "gpu-node":
        trace.add(
            n + frontier_arcs,
            ops.arc_scan_cycles,
            n * 5.0 + frontier_arcs * ops.arc_scan_bytes
            + updates * ops.edge_hit_bytes,
            atomic_ops=updates,
        )
    else:  # cpu: useful work only
        trace.add(
            frontier + frontier_arcs + updates,
            access_cycles,
            frontier * ops.node_pop_bytes
            + frontier_arcs * ops.arc_scan_bytes
            + updates * ops.edge_hit_bytes,
        )


def trace_static_source(
    graph: CSRGraph,
    source: int,
    strategy: str = "gpu-edge",
    op_costs: OpCosts = DEFAULT_OP_COSTS,
    access_cycles: float = 0.0,
    rebuilt: Optional[tuple] = None,
) -> tuple:
    """Run one source of static Brandes and produce ``(delta, trace)``.

    Also used by the dynamic engines to cost their per-source
    recompute fallback (distance-increasing deletions).  Those callers
    have just run Brandes into the state rows, so they pass the
    ``(d, levels)`` it returned as *rebuilt*: the trace is then built
    from them without a second Brandes pass, and ``delta`` comes back
    as ``None``.
    """
    if strategy not in STATIC_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STATIC_STRATEGIES}"
        )
    ops = op_costs
    if access_cycles <= 0.0:
        access_cycles = ops.arc_scan_cycles
    n = graph.num_vertices
    arcs_total = 2 * graph.num_edges
    trace = Trace(label=f"static:{source}")
    if rebuilt is None:
        d, _, delta, levels = single_source_state(graph, source)
    else:
        (d, levels), delta = rebuilt, None
    # Stage 1: initialization of d/sigma/delta.
    trace.add(n, ops.init_cycles, ops.init_bytes * n)
    # Stage 2: BFS levels.
    degrees = graph.degrees
    for depth, frontier in enumerate(levels):
        f_arcs = int(degrees[frontier].sum())
        # sigma updates = arcs into the next level
        nxt = levels[depth + 1] if depth + 1 < len(levels) else None
        if nxt is not None:
            t_, h_ = graph.frontier_arcs(frontier)
            updates = int(np.count_nonzero(d[h_] == depth + 1))
        else:
            updates = 0
        _charge_level(trace, strategy, ops, n, arcs_total,
                      frontier.size, f_arcs, updates, access_cycles)
    # Stage 3: dependency accumulation, deepest level first.
    for depth in range(len(levels) - 1, 0, -1):
        frontier = levels[depth]
        f_arcs = int(degrees[frontier].sum())
        t_, h_ = graph.frontier_arcs(frontier)
        updates = int(np.count_nonzero(d[h_] == depth - 1))
        _charge_level(trace, strategy, ops, n, arcs_total,
                      frontier.size, f_arcs, updates, access_cycles)
    # Final BC accumulation.
    trace.add(n, ops.commit_cycles, 16.0 * n, atomic_ops=n)
    return delta, trace


def static_bc_gpu(
    graph: CSRGraph,
    sources: Optional[Sequence[int]] = None,
    strategy: str = "gpu-edge",
    op_costs: OpCosts = DEFAULT_OP_COSTS,
    access_cycles: float = 0.0,
    sanitize: bool = False,
) -> StaticBCResult:
    """Static (exact or approximate) BC with per-source cost traces.

    ``sanitize=True`` races-checks every per-source kernel and attaches
    the :class:`SanitizerReport` to the result; scores, traces and
    counters are bit-identical to the untraced run.
    """
    if sanitize:
        tracer = san.MemoryTracer()
        with san.tracing(tracer):
            result = static_bc_gpu(graph, sources, strategy, op_costs,
                                   access_cycles)
        result.sanitizer = tracer.report()
        return result
    n = graph.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    iter_sources = range(n) if sources is None else [int(s) for s in sources]
    traces: List[Trace] = []
    counters = KernelCounters()
    for s in iter_sources:
        delta, trace = trace_static_source(
            graph, int(s), strategy, op_costs, access_cycles
        )
        delta[int(s)] = 0.0
        bc += delta
        traces.append(trace)
        counters.absorb(trace, kernel="static")
    counters.kernel_launches += 2  # forward + backward megakernels
    return StaticBCResult(bc=bc, traces=traces, counters=counters, strategy=strategy)
