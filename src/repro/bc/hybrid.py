"""Heterogeneous (CPU + GPU) dynamic BC — §VI future work.

"Further performance improvements can be attained with multi-GPU,
heterogeneous, or distributed implementations of this algorithm."

The coarse-grained parallelism is over independent source vertices
(Fig. 3), so a heterogeneous deployment simply partitions the source
set: the GPU's blocks take most sources, the otherwise-idle CPU core
takes a slice sized to its relative throughput, and both drain
concurrently — the update completes when the slower side finishes.
This mirrors the CPU/GPU work partitioning of Sariyüce et al. [12]
(cited in §II-C) applied to the dynamic analytic.

State is shared (one :class:`~repro.bc.state.BCState`); only the cost
accounting differs per partition, so results remain bit-identical to
the homogeneous engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.bc.accountants import make_accountant
from repro.bc.cases import Case, classify_insertion
from repro.bc.state import BCState
from repro.bc.update_core import adjacent_level_update, distant_level_update
from repro.gpu.costmodel import CostModel, cpu_access_cycles, left_fold
from repro.gpu.device import CORE_I7_2600K, TESLA_C2075, DeviceSpec
from repro.gpu.executor import schedule_blocks
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.utils.prng import SeedLike


@dataclass
class HybridReport:
    """Timing of one update under the heterogeneous split."""

    edge: tuple
    gpu_seconds: float
    cpu_seconds: float
    simulated_seconds: float  # max of the two sides
    gpu_sources: int
    cpu_sources: int

    @property
    def balance(self) -> float:
        """1.0 = both sides finish together (ideal split)."""
        slow = max(self.gpu_seconds, self.cpu_seconds)
        fast = min(self.gpu_seconds, self.cpu_seconds)
        return fast / slow if slow > 0 else 1.0


class HybridDynamicBC:
    """Dynamic BC with sources partitioned across a GPU and a CPU."""

    def __init__(
        self,
        graph: Union[DynamicGraph, CSRGraph],
        state: BCState,
        gpu_device: DeviceSpec = TESLA_C2075,
        cpu_device: DeviceSpec = CORE_I7_2600K,
        cpu_fraction: Optional[float] = None,
        adaptive: bool = False,
    ) -> None:
        self.graph = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph.from_csr(graph)
        )
        self.state = state
        self.gpu_device = gpu_device
        self.cpu_device = cpu_device
        self.gpu_model = CostModel(gpu_device)
        self.cpu_model = CostModel(cpu_device)
        if cpu_fraction is None:
            cpu_fraction = self._auto_fraction()
        if not 0.0 <= cpu_fraction < 1.0:
            raise ValueError(
                f"cpu_fraction must be in [0, 1), got {cpu_fraction}"
            )
        self.cpu_fraction = cpu_fraction
        self.adaptive = adaptive
        self._set_partition(cpu_fraction)
        self.reports: List[HybridReport] = []

    def _set_partition(self, cpu_fraction: float) -> None:
        k = self.state.num_sources
        n_cpu = int(round(k * cpu_fraction))
        n_cpu = min(n_cpu, k - 1)  # GPU always keeps at least one source
        # CPU takes the tail of the (sorted) source list.
        self._cpu_idx = np.arange(k - n_cpu, k)
        self._gpu_idx = np.arange(0, k - n_cpu)

    @classmethod
    def from_graph(
        cls,
        graph: Union[DynamicGraph, CSRGraph],
        num_sources: int,
        seed: SeedLike = None,
        **kwargs,
    ) -> "HybridDynamicBC":
        snap = graph.snapshot() if isinstance(graph, DynamicGraph) else graph
        state = BCState.compute_with_random_sources(snap, num_sources, seed)
        return cls(graph, state, **kwargs)

    def _auto_fraction(self) -> float:
        """Size the CPU slice by the per-source cost floor.

        Every Case-2/3 source pays at least the O(n) init + commit
        (Algorithms 3 and 8), so the floor is a usable throughput
        proxy: the CPU streams it at core bandwidth with Green et
        al.'s per-update structure setup, while each of the GPU's SMs
        streams it at its per-SM bandwidth — and ``num_sms`` of them
        drain sources concurrently.
        """
        snap = self.graph.snapshot()
        n = snap.num_vertices
        # CPU floor: allocation-heavy init (24 cycles/elem) + commit.
        cpu_floor = (
            n * 24.0 * self.cpu_device.cpi / self.cpu_device.clock_hz
            + n * 45.0 / (self.cpu_device.mem_bandwidth_gbs * 1e9)
        )
        # GPU floor per source on one SM: init+commit traffic.
        gpu_floor = n * 45.0 / (self.gpu_device.sm_mem_gbs * 1e9)
        cpu_rate = 1.0 / cpu_floor if cpu_floor > 0 else 0.0
        gpu_rate = self.gpu_device.num_sms / gpu_floor if gpu_floor > 0 else 0.0
        if cpu_rate + gpu_rate == 0:
            return 0.0
        return float(cpu_rate / (cpu_rate + gpu_rate))

    # ------------------------------------------------------------------
    @property
    def bc_scores(self) -> np.ndarray:
        return self.state.bc

    def insert_edge(self, u: int, v: int) -> HybridReport:
        """Insert edge {u, v}; both partitions update concurrently."""
        if not self.graph.insert_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present or self loop")
        return self._apply(u, v, "insert", None)

    def delete_edge(self, u: int, v: int) -> HybridReport:
        """Delete edge {u, v} (same semantics as
        :meth:`repro.bc.engine.DynamicBC.delete_edge`)."""
        from repro.bc.cases import classify_deletion

        if not self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        pre = self.graph.snapshot()
        classifications = [
            classify_deletion(self.state.d[i], self.state.sigma[i], pre, u, v)
            for i in range(self.state.num_sources)
        ]
        self.graph.delete_edge(u, v)
        return self._apply(u, v, "delete", classifications)

    def _apply(self, u: int, v: int, operation: str,
               classifications) -> HybridReport:
        snap = self.graph.snapshot()
        st = self.state
        access = cpu_access_cycles(
            self.cpu_device, snap.num_vertices, 2 * snap.num_edges
        )

        def run_partition(indices: np.ndarray, strategy: str):
            per_source = []
            for i in indices:
                s = int(st.sources[i])
                if classifications is None:
                    case, u_high, u_low = classify_insertion(st.d[i], u, v)
                else:
                    case, u_high, u_low = classifications[i]
                acc = make_accountant(
                    strategy, snap.num_vertices, 2 * snap.num_edges,
                    access_cycles=access if strategy == "cpu" else None,
                )
                acc.classify()
                if case == Case.ADJACENT_LEVEL:
                    adjacent_level_update(
                        snap, s, st.d[i], st.sigma[i], st.delta[i], st.bc,
                        u_high, u_low, acc, insert=(operation == "insert"),
                    )
                elif case == Case.DISTANT_LEVEL and operation == "insert":
                    distant_level_update(
                        snap, s, st.d[i], st.sigma[i], st.delta[i], st.bc,
                        u_high, u_low, acc,
                    )
                elif case == Case.DISTANT_LEVEL:
                    self._recompute_source(snap, i, acc)
                model = self.gpu_model if strategy != "cpu" else self.cpu_model
                per_source.append(model.trace_seconds(acc.finish()))
            return per_source

        gpu_per_source = run_partition(self._gpu_idx, "gpu-node")
        cpu_per_source = run_partition(self._cpu_idx, "cpu")
        gpu_time = schedule_blocks(
            gpu_per_source, self.gpu_device, self.gpu_device.num_sms,
            4 * self.gpu_model.launch_overhead_seconds,
        ).total_seconds if len(gpu_per_source) else 0.0
        cpu_time = left_fold(cpu_per_source)
        report = HybridReport(
            edge=(u, v),
            gpu_seconds=gpu_time,
            cpu_seconds=cpu_time,
            simulated_seconds=max(gpu_time, cpu_time),
            gpu_sources=int(self._gpu_idx.size),
            cpu_sources=int(self._cpu_idx.size),
        )
        self.reports.append(report)
        if self.adaptive and report.cpu_sources and report.gpu_sources \
                and report.cpu_seconds > 0 and report.gpu_seconds > 0:
            # Rebalance toward equal finish times using measured
            # *marginal* rates (the fixed kernel-launch overhead is paid
            # regardless of the split, so it is excluded), smoothed to
            # avoid thrashing on noisy single updates.
            gpu_compute = max(
                report.gpu_seconds
                - 4 * self.gpu_model.launch_overhead_seconds,
                1e-12,
            )
            cpu_rate = report.cpu_sources / report.cpu_seconds
            gpu_rate = report.gpu_sources / gpu_compute
            target = cpu_rate / (cpu_rate + gpu_rate)
            self.cpu_fraction = 0.5 * self.cpu_fraction + 0.5 * target
            self._set_partition(self.cpu_fraction)
        return report

    def _recompute_source(self, snap: CSRGraph, i: int, acc) -> None:
        """Distance-increasing deletion fallback: rebuild one row."""
        from repro.bc.brandes import single_source_state

        st = self.state
        s = int(st.sources[i])
        d_new, sigma_new, delta_new, levels = single_source_state(snap, s)
        delta_new[s] = 0.0
        st.bc += delta_new - st.delta[i]
        st.d[i] = d_new
        st.sigma[i] = sigma_new
        st.delta[i] = delta_new
        acc.init(snap.num_vertices)
        for frontier in levels:
            deg = int(snap.degrees[frontier].sum())
            acc.sp_level(frontier=int(frontier.size), arcs=deg,
                         onpath=int(frontier.size), raw_new=0,
                         new=int(frontier.size))
        acc.commit(snap.num_vertices, snap.num_vertices)

    def verify(self, atol: float = 1e-6) -> None:
        """Assert the maintained state matches a scratch recompute."""
        self.state.verify_against(self.graph.snapshot(), atol=atol)

    def __repr__(self) -> str:
        return (
            f"HybridDynamicBC(gpu={self._gpu_idx.size} sources on "
            f"{self.gpu_device.name!r}, cpu={self._cpu_idx.size} sources on "
            f"{self.cpu_device.name!r})"
        )
