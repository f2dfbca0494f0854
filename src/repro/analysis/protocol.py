"""The remove-then-reinsert streaming protocol shared by the drivers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.config import ExperimentConfig
from repro.bc.engine import DynamicBC, UpdateReport
from repro.gpu.costmodel import left_fold
from repro.graph.dynamic import DynamicGraph
from repro.graph.suite import BenchmarkGraph, make_suite_graph
from repro.utils.prng import default_rng


def compute_initial_state(config: ExperimentConfig, name: str):
    """The backend-independent BC state of the shrunken graph (the
    setup every backend's replay starts from)."""
    from repro.bc.state import BCState

    _, dyn, _ = prepare_stream(config, name)
    snap = dyn.snapshot()
    return BCState.compute_with_random_sources(
        snap, min(config.num_sources, snap.num_vertices), config.seed + 23
    )


@dataclass
class StreamRun:
    """One backend's replay of the insertion stream on one graph."""

    graph_name: str
    backend: str
    reports: List[UpdateReport]
    engine: DynamicBC

    @property
    def total_simulated(self) -> float:
        return left_fold(r.simulated_seconds for r in self.reports)

    @property
    def per_update_simulated(self) -> np.ndarray:
        return np.array([r.simulated_seconds for r in self.reports])


def prepare_stream(
    config: ExperimentConfig, name: str
) -> Tuple[BenchmarkGraph, DynamicGraph, np.ndarray]:
    """Build a suite graph, remove the insertion stream from it, and
    return (metadata, shrunken mutable graph, edges in replay order).

    Deterministic in (config.seed, name); every backend replays the
    identical stream so comparisons are paired.
    """
    bench = make_suite_graph(name, scale=config.scale, seed=config.seed)
    dyn = DynamicGraph.from_csr(bench.graph)
    rng = default_rng(config.seed + 17)
    removed = dyn.remove_random_edges(rng, config.num_insertions)
    return bench, dyn, removed


def replay_stream(
    config: ExperimentConfig,
    name: str,
    backend: str,
    verify_every: int = 0,
    initial_state=None,
) -> StreamRun:
    """Run the full protocol for one (graph, backend) pair.

    ``verify_every=j`` checks the maintained state against a scratch
    recomputation after every j-th insertion (slow; tests use it).
    ``initial_state`` (a :class:`~repro.bc.state.BCState` for the
    shrunken graph) skips the Brandes setup — callers comparing
    backends on the same stream pass copies of one state, since the
    setup is backend-independent.
    """
    bench, dyn, removed = prepare_stream(config, name)
    if initial_state is not None:
        engine = DynamicBC(dyn, initial_state.copy(), backend=backend)
    else:
        engine = DynamicBC.from_graph(
            dyn, num_sources=min(config.num_sources, dyn.num_vertices),
            backend=backend, seed=config.seed + 23,
        )
    reports = []
    for idx, (u, v) in enumerate(removed):
        reports.append(engine.insert_edge(int(u), int(v)))
        if verify_every and (idx + 1) % verify_every == 0:
            engine.verify()
    return StreamRun(graph_name=name, backend=backend, reports=reports, engine=engine)
