"""Analytic timing model: work traces -> simulated seconds.

The model charges each barrier-delimited step of a block the maximum of
its compute time, its memory time, and its (serialized) atomic time —
the classic roofline treatment of a latency-hiding SM:

* **compute**: ``ceil(items / threads) * cycles_per_item / clock`` —
  threads strip-mine the work items, as in the paper ("each thread will
  process multiple units of work").
* **memory**: ``bytes / bw_per_block`` where one block alone sustains
  only :attr:`DeviceSpec.sm_mem_gbs` (outstanding-miss limit) and the
  aggregate bus bandwidth is split between concurrently *resident*
  blocks.  This reproduces Fig. 1: below one block per SM the bus is
  under-subscribed, so adding blocks scales nearly linearly; past one
  block per SM the bus saturates and the curve flattens.
* **atomics**: conflict-free atomics pipeline (treated as ordinary
  traffic plus a fixed cost); conflicting atomics on one address
  serialize at ``atomic_cycles`` each — the paper's argument for why
  node-parallelism's low contention matters.

A CPU device (``is_cpu``) degenerates to one thread, no launch
overhead, and its full cache-side bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.gpu.counters import CostSummary, Step, Trace
from repro.gpu.device import DeviceSpec


@dataclass(frozen=True)
class OpCosts:
    """Per-operation cost constants shared by the kernel implementations.

    The kernels in :mod:`repro.bc` describe their work in terms of these
    primitive costs so that the arithmetic lives in one auditable place.
    Byte counts assume the paper-era data layout: 4-byte vertex ids and
    distances, 8-byte shortest-path counts and dependencies.
    """

    #: cycles to test one edge (load endpoints, compare levels)
    edge_check_cycles: float = 4.0
    #: bytes to test one edge: two 4-byte ids streamed coalesced plus a
    #: partially L2-cached d[] lookup
    edge_check_bytes: float = 9.0
    #: extra bytes when an edge hits (read/write sigma-hat, t flag)
    edge_hit_bytes: float = 20.0
    #: cycles per frontier vertex (queue pop + offsets fetch)
    node_pop_cycles: float = 6.0
    node_pop_bytes: float = 16.0
    #: cycles per scanned neighbor of a frontier vertex
    arc_scan_cycles: float = 4.0
    arc_scan_bytes: float = 8.0
    #: cycles/bytes per element initialised (t, sigma-hat, delta-hat)
    init_cycles: float = 2.0
    init_bytes: float = 21.0
    #: cycles/bytes per element committed back to global state
    commit_cycles: float = 3.0
    commit_bytes: float = 24.0
    #: dependency update: one fused multiply-add over 8-byte values
    dep_update_cycles: float = 8.0
    dep_update_bytes: float = 24.0


DEFAULT_OP_COSTS = OpCosts()


def traversal_working_set_bytes(num_vertices: int, total_arcs: int) -> float:
    """Bytes an update touches at random: the per-source state arrays
    (d, sigma, delta, their hats, the t flags, BC) plus the adjacency."""
    return 57.0 * num_vertices + 4.0 * total_arcs + 8.0 * (num_vertices + 1)


def cpu_access_cycles(device: DeviceSpec, num_vertices: int, total_arcs: int) -> float:
    """Expected cycles per dependent load on a CPU target.

    Interpolates between the cached and DRAM-latency cost by the
    fraction of the traversal working set that fits in the last-level
    cache — the reason the paper's CPU baseline collapses on graphs
    whose state is tens of MB while microbenchmarks on toy graphs fly.
    Returns the cached cost for devices without a cache model (GPUs).
    """
    if device.cache_mb <= 0:
        return device.cached_access_cycles
    ws = traversal_working_set_bytes(num_vertices, total_arcs)
    hit_fraction = min(1.0, (device.cache_mb * 2**20) / ws)
    return (
        hit_fraction * device.cached_access_cycles
        + (1.0 - hit_fraction) * device.random_access_cycles
    )


class CostModel:
    """Converts :class:`Step`/:class:`Trace` records into seconds for a
    fixed (device, grid-size) configuration."""

    def __init__(self, device: DeviceSpec, num_blocks: int = 0) -> None:
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be >= 0, got {num_blocks}")
        self.device = device
        self.num_blocks = num_blocks or device.num_sms
        if device.is_cpu:
            self.num_blocks = 1
        self._bw_per_block = self._effective_bw_per_block()
        self._contention = self._residency_penalty()

    # ------------------------------------------------------------------
    def _effective_bw_per_block(self) -> float:
        dev = self.device
        if dev.is_cpu:
            return dev.mem_bandwidth_gbs * 1e9
        # In the block-per-SM schedule at most one block per SM issues at
        # any instant, so min(num_blocks, num_sms) blocks share the bus.
        # A lone block is additionally capped by its SM's
        # outstanding-miss limit (sm_mem_gbs), which is what makes the
        # Fig. 1 sweep scale until the bus saturates.
        active = min(self.num_blocks, dev.num_sms)
        return min(dev.sm_mem_gbs, dev.mem_bandwidth_gbs / active) * 1e9

    def _residency_penalty(self) -> float:
        """Mild cost of multiple resident blocks per SM (scheduling and
        cache interference); makes blocks == SMs slightly optimal, as
        measured in Fig. 1."""
        if self.device.is_cpu:
            return 1.0
        per_sm = math.ceil(self.num_blocks / self.device.num_sms)
        return 1.0 + 0.04 * (per_sm - 1)

    # ------------------------------------------------------------------
    def step_seconds(self, step: Step) -> float:
        """Simulated duration of one step executed by one block."""
        dev = self.device
        threads = dev.threads_per_block
        iterations = math.ceil(step.work_items / threads) if step.work_items else 0
        compute = iterations * step.cycles_per_item * dev.cpi / dev.clock_hz
        memory = step.bytes_moved / self._bw_per_block
        # Conflict-free atomics ride the memory pipeline; conflicting
        # ones serialize per address.
        atomic = 0.0
        if step.atomic_ops:
            pipelined = math.ceil(step.atomic_ops / max(1, threads // dev.warp_size))
            serialized = step.max_conflict
            atomic = max(pipelined, serialized) * dev.atomic_cycles / dev.clock_hz
        # A barrier-delimited phase has a small fixed latency floor
        # (instruction issue + synchronization).
        floor = 0.0
        if step.work_items or step.atomic_ops:
            floor = (40.0 if not dev.is_cpu else 2.0) / dev.clock_hz
        return max(compute, memory, atomic, floor) * self._contention

    def fold_step_seconds(self, step: Step, count: int) -> float:
        """Sequential fold of *count* additions of ``step_seconds(step)``.

        Float addition is not associative, so ``count * sec`` can drift
        from a loop that accumulates ``sec`` once per iteration in the
        last ulp.  The vectorized engine uses this to reproduce the
        looped path's per-source stage accumulation bit-for-bit while
        costing only *count* float additions instead of *count* cost
        model evaluations.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        sec = self.step_seconds(step)
        total = 0.0
        for _ in range(count):
            total += sec
        return total

    def trace_seconds(self, trace_or_steps) -> float:
        """Total simulated duration of a trace run by one block."""
        steps: Iterable[Step] = (
            trace_or_steps.steps if isinstance(trace_or_steps, Trace) else trace_or_steps
        )
        return sum(self.step_seconds(s) for s in steps)

    def stage_breakdown(self, trace_or_steps) -> dict:
        """Simulated seconds grouped by each step's stage tag.

        Lets the analysis answer questions like "how much of the CPU
        baseline is Algorithm-2 initialization?" without re-running.
        """
        steps = (
            trace_or_steps.steps
            if isinstance(trace_or_steps, Trace)
            else trace_or_steps
        )
        out: dict = {}
        for s in steps:
            key = s.stage or "other"
            out[key] = out.get(key, 0.0) + self.step_seconds(s)
        return out

    def summarize(self, trace_or_steps) -> CostSummary:
        """:meth:`trace_seconds`, :meth:`stage_breakdown` and the
        counter totals of one trace in a single pass over its steps.

        Each step is costed once.  The totals use the builtin ``sum``
        over the same sequences as :meth:`trace_seconds` and
        :class:`~repro.gpu.counters.Trace`'s properties, so they match
        bit for bit on every Python version.
        """
        steps = (
            trace_or_steps.steps
            if isinstance(trace_or_steps, Trace)
            else trace_or_steps
        )
        step_seconds = self.step_seconds
        seconds = [step_seconds(s) for s in steps]
        stages: dict = {}
        for s, sec in zip(steps, seconds):
            key = s.stage or "other"
            stages[key] = stages.get(key, 0.0) + sec
        return CostSummary(
            seconds=sum(seconds),
            stages=stages,
            steps=len(steps),
            work_items=sum(s.work_items for s in steps),
            bytes_moved=sum(s.bytes_moved for s in steps),
            atomic_ops=sum(s.atomic_ops for s in steps),
        )

    @property
    def launch_overhead_seconds(self) -> float:
        return self.device.launch_overhead_us * 1e-6
