"""Strong-scaling study across SM counts (paper §VI, future work).

"Further performance improvements can be attained with multi-GPU ...
implementations of this algorithm.  The vast amount of coarse-grained
parallelism that exists should allow for excellent strong scaling."

The coarse-grained parallelism is over source vertices, so a multi-GPU
(or bigger-GPU) deployment is modeled by scaling the SM count and
re-scheduling the same per-source work.  Efficiency is bounded by (a)
the source count k relative to the SM count and (b) the makespan skew
of heavy sources — both visible in the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.config import ExperimentConfig
from repro.analysis.protocol import prepare_stream
from repro.bc.engine import DynamicBC
from repro.gpu.costmodel import CostModel, left_fold
from repro.gpu.device import TESLA_C2075, DeviceSpec
from repro.gpu.executor import schedule_blocks


@dataclass
class ScalingPoint:
    num_sms: int
    seconds: float
    speedup: float     # vs the 1x-SM baseline
    efficiency: float  # speedup / (sms / base_sms)


@dataclass
class ScalingStudy:
    graph_name: str
    base_sms: int
    points: List[ScalingPoint]
    #: lower bound on any update's makespan: the heaviest single
    #: source's duration plus launch overheads (the critical path no
    #: amount of coarse-grained parallelism can shrink)
    critical_path_seconds: float = 0.0

    @property
    def max_speedup(self) -> float:
        return max(p.speedup for p in self.points)


def run_scaling_study(
    config: ExperimentConfig,
    graph_name: str = "small",
    sm_multipliers: Sequence[int] = (1, 2, 4, 8),
    base_device: DeviceSpec = TESLA_C2075,
) -> ScalingStudy:
    """Replay the stream once, collecting per-source simulated seconds,
    then re-schedule the identical work across growing machine sizes.

    The per-source *durations* are device-dependent only through the
    per-block bandwidth, which is unchanged when SMs (and bandwidth)
    scale together — the multi-GPU assumption — so rescheduling the
    recorded durations is exact under the model.
    """
    bench, dyn, removed = prepare_stream(config, graph_name)
    engine = DynamicBC.from_graph(
        dyn, num_sources=min(config.num_sources, dyn.num_vertices),
        backend="gpu-node", seed=config.seed + 23, device=base_device,
    )
    per_update_sources: List[np.ndarray] = []
    for u, v in removed:
        report = engine.insert_edge(int(u), int(v))
        per_update_sources.append(report.per_source_seconds)

    launch = CostModel(base_device).launch_overhead_seconds * 4
    critical = float(
        left_fold(float(src.max()) for src in per_update_sources)
        + launch * len(per_update_sources)
    )
    points = []
    base_total = None
    for mult in sm_multipliers:
        device = base_device.with_sms(base_device.num_sms * mult)
        total = left_fold(
            schedule_blocks(src, device, device.num_sms, launch).total_seconds
            for src in per_update_sources
        )
        if base_total is None:
            base_total = total
        speedup = base_total / total
        points.append(
            ScalingPoint(
                num_sms=device.num_sms,
                seconds=total,
                speedup=speedup,
                efficiency=speedup / mult,
            )
        )
    return ScalingStudy(graph_name=graph_name, base_sms=base_device.num_sms,
                        points=points, critical_path_seconds=critical)


def render_scaling(study: ScalingStudy) -> str:
    """ASCII strong-scaling chart with the critical-path note."""
    lines = [
        f"Strong scaling of dynamic updates on '{study.graph_name}' "
        f"(baseline: {study.base_sms} SMs; model of the paper's multi-GPU "
        "future work)"
    ]
    for p in study.points:
        bar = "#" * max(1, int(round(p.speedup * 4)))
        lines.append(
            f"  SMs={p.num_sms:4d}  time={p.seconds * 1e3:9.3f} ms  "
            f"speedup={p.speedup:5.2f}x  efficiency={p.efficiency:5.1%}  {bar}"
        )
    lines.append(
        f"  critical path (heaviest source per update): "
        f"{study.critical_path_seconds * 1e3:.3f} ms — dynamic updates "
        "saturate here because touched-set sizes are heavy-tailed (Fig. 4), "
        "unlike the uniform per-source work of static BC the paper's "
        "strong-scaling prediction assumes."
    )
    return "\n".join(lines)
