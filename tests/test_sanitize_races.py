"""Mutation harness for the kernel race sanitizer (Layer 1).

The proof obligation runs in both directions:

* **Sensitivity** — a copied BFS kernel with one seeded defect per
  finding class (dropped atomic → S101, dropped barrier → S102, broken
  frontier discipline → S103) is *detected*;
* **Specificity** — the shipped kernels produce **zero** findings on a
  real workload (Kronecker n=2^8, k=8 churn replay), and sanitize mode
  is bit-identical to the uninstrumented engine.

The mutants are faithful copies of a top-down BFS level of
:func:`repro.bc.brandes.single_source_state`, instrumented like it,
with exactly one defect each, run on a diamond graph (0-1, 0-2, 1-3,
2-3) whose two equal-cost paths guarantee duplicate-head traffic at
level 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bc import brandes
from repro.bc.brandes import brandes_bc, single_source_state
from repro.bc.engine import DynamicBC
from repro.bc.static_gpu import static_bc_gpu
from repro.gpu.primitives import BENIGN_RACES, atomic_scatter_add
from repro.graph.csr import CSRGraph, DIST_INF
from repro.graph.stream import EdgeStream
from repro.sanitize import tracer as san
from repro.sanitize.report import S101, S102, S103

pytestmark = pytest.mark.sanitize


@pytest.fixture
def diamond() -> CSRGraph:
    return CSRGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def _mutant_bfs(graph: CSRGraph, source: int, mutation: str):
    """A stage-2 BFS whose every level copies a top-down level of
    ``single_source_state``, instrumented exactly like it, with one
    seeded defect selected by *mutation*."""
    n = graph.num_vertices
    d = np.full(n, DIST_INF, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    d[source] = 0
    sigma[source] = 1.0
    tracer = san.MemoryTracer()

    merged = mutation == "merge-levels"
    with san.tracing(tracer), san.kernel(f"mutant:{mutation}"):
        if merged:
            # Seeded defect: the whole BFS shares ONE barrier interval.
            tracer.begin_interval("sp", 0)
        frontier = np.array([source], dtype=np.int64)
        depth = 0
        while frontier.size:
            tails, heads = graph.frontier_arcs(frontier)
            if tails.size == 0:
                break
            if not merged:
                tracer.begin_interval("sp", depth)
            san.read("d", heads)
            undiscovered = d[heads] == DIST_INF
            new_nodes = np.unique(heads[undiscovered])
            if new_nodes.size:
                d[new_nodes] = depth + 1
                san.write("d", new_nodes, intent="discover")
            on_path = d[heads] == depth + 1
            if np.any(on_path):
                san.read("sigma", tails[on_path])
                if mutation == "drop-atomic":
                    # Seeded defect: plain scatter instead of the
                    # declared atomic helper — duplicate heads collide.
                    np.add.at(sigma, heads[on_path], sigma[tails[on_path]])
                    san.write("sigma", heads[on_path])
                else:
                    atomic_scatter_add(
                        sigma, heads[on_path], sigma[tails[on_path]],
                        array="sigma",
                    )
            if mutation == "skip-dedup":
                # Seeded defect: raw (un-uniqued) discovery pushed.
                san.enqueue("Q", heads[undiscovered], depth + 1,
                            distances=d, direction=1)
            elif mutation == "wrong-level":
                # Seeded defect: frontier labeled with its parent level.
                san.enqueue("Q", new_nodes, depth, distances=d,
                            direction=1)
            elif mutation == "double-push":
                # Seeded defect: the frontier is enqueued twice.
                san.enqueue("Q", new_nodes, depth + 1, distances=d,
                            direction=1)
                san.enqueue("Q", new_nodes, depth + 1, distances=d,
                            direction=1)
            elif mutation == "wrong-direction":
                # Seeded defect: levels move against the declared
                # direction (distances omitted to isolate the check).
                san.enqueue("Q", new_nodes, -depth - 1, direction=1)
            else:
                san.enqueue("Q", new_nodes, depth + 1, distances=d,
                            direction=1)
            if not merged:
                tracer.end_interval()
            frontier = new_nodes
            depth += 1
        if merged:
            tracer.end_interval()
    return tracer.report()


class TestSensitivity:
    """Each seeded defect class is detected — nothing else fires."""

    def test_clean_copy_is_clean(self, diamond):
        report = _mutant_bfs(diamond, 0, "none")
        assert report.ok, report.summary()
        assert report.atomics > 0  # the copy exercised the helper

    def test_dropped_atomic_yields_s101(self, diamond):
        report = _mutant_bfs(diamond, 0, "drop-atomic")
        codes = {f.code for f in report.findings}
        assert codes == {S101}, report.summary()
        (finding,) = report.findings
        assert finding.array == "sigma"
        assert 3 in finding.sample  # the diamond's double-predecessor

    def test_dropped_barrier_yields_s102(self, diamond):
        report = _mutant_bfs(diamond, 0, "merge-levels")
        codes = {f.code for f in report.findings}
        assert S102 in codes, report.summary()
        assert S101 not in codes  # accumulation still atomic
        s102 = [f for f in report.findings if f.code == S102]
        assert any(f.array == "sigma" for f in s102)

    @pytest.mark.parametrize("mutation,needle", [
        ("skip-dedup", "duplicate"),
        ("wrong-level", "distance"),
        ("double-push", "re-enqueued"),
        ("wrong-direction", "direction"),
    ])
    def test_broken_frontier_yields_s103(self, diamond, mutation, needle):
        report = _mutant_bfs(diamond, 0, mutation)
        codes = {f.code for f in report.findings}
        assert codes == {S103}, report.summary()
        assert any(needle in f.message for f in report.findings)


class TestBenignRegistry:
    """The whitelist is by construction, not suppression."""

    def test_sigma_accumulation_is_declared(self):
        assert ("sigma", "accumulate") in BENIGN_RACES
        assert ("delta", "accumulate") in BENIGN_RACES
        assert ("d", "discover") in BENIGN_RACES

    def test_every_entry_has_a_justification(self):
        for (array, intent), why in BENIGN_RACES.items():
            assert isinstance(why, str) and len(why) > 10, (array, intent)

    def test_undeclared_atomic_contention_still_flags(self, diamond):
        """An atomic on an *undeclared* (array, intent) with real
        contention is S101 — the registry gates the exemption."""
        tracer = san.MemoryTracer()
        with san.tracing(tracer), san.kernel("probe"):
            with san.interval("sp", 0):
                buf = np.zeros(4)
                atomic_scatter_add(
                    buf, np.array([3, 3]), np.array([1.0, 1.0]),
                    array="scratch", intent="mystery",
                )
        report = tracer.report()
        assert {f.code for f in report.findings} == {S101}


class TestSpecificity:
    """Shipped kernels: zero findings on a real workload."""

    def test_brandes_clean_on_kron(self, kron_small, monkeypatch):
        sides = []
        rule = brandes.bottom_up

        def spy(frontier_arcs, unvisited_arcs):
            sides.append(rule(frontier_arcs, unvisited_arcs))
            return sides[-1]

        monkeypatch.setattr(brandes, "bottom_up", spy)
        _, report = brandes_bc(kron_small, sources=range(8), sanitize=True)
        assert report.ok, report.summary()
        assert report.kernels == 8
        assert report.atomics > 0
        assert True in sides  # a bottom-up level was traced

    def test_static_gpu_clean_on_kron(self, kron_small):
        result = static_bc_gpu(kron_small, sources=range(4),
                               strategy="gpu-edge", sanitize=True)
        assert result.sanitizer is not None
        assert result.sanitizer.ok, result.sanitizer.summary()

    def test_engine_replay_clean_on_kron(self, kron_small):
        """All three dynamic cases (and the commit kernel) trace clean
        over a churn stream that exercises inserts and deletes."""
        stream = EdgeStream.churn(kron_small, 40, seed=11)
        engine = DynamicBC.from_graph(kron_small, num_sources=8, seed=5,
                                      backend="gpu-node", sanitize=True)
        try:
            cases = set()
            for event in stream:
                try:
                    if event.op == "insert":
                        rep = engine.insert_edge(event.u, event.v)
                    else:
                        rep = engine.delete_edge(event.u, event.v)
                except ValueError:
                    continue
                cases.update(int(c) for c in rep.cases)
            report = engine.sanitizer_report()
        finally:
            engine.close()
        assert report.ok, report.summary()
        assert len(cases) > 1  # the stream hit more than one scenario
        assert report.benign  # whitelisted traffic was actually seen

    def test_recompute_clean(self, kron_small):
        engine = DynamicBC.from_graph(kron_small, num_sources=4, seed=5,
                                      backend="gpu-node", sanitize=True)
        try:
            engine.recompute()
            report = engine.sanitizer_report()
        finally:
            engine.close()
        assert report.ok, report.summary()


class TestBitIdentity:
    """Sanitize mode observes; it never perturbs (acceptance: a
    100-event stream is bit-identical in bc/state/counters/reports)."""

    def test_100_event_stream_bit_identical(self, kron_small):
        stream = list(EdgeStream.churn(kron_small, 100, seed=11))

        def run(sanitize: bool):
            engine = DynamicBC.from_graph(
                kron_small, num_sources=8, seed=5, backend="gpu-node",
                sanitize=sanitize,
            )
            try:
                reports = []
                for event in stream:
                    try:
                        if event.op == "insert":
                            reports.append(engine.insert_edge(event.u, event.v))
                        else:
                            reports.append(engine.delete_edge(event.u, event.v))
                    except ValueError:
                        continue
                bc = engine.bc_scores.copy()
                counters = engine.counters
                return bc, counters, reports
            finally:
                engine.close()

        bc_ref, counters_ref, reports_ref = run(sanitize=False)
        bc_san, counters_san, reports_san = run(sanitize=True)

        assert bc_ref.tobytes() == bc_san.tobytes()  # bitwise, not approx
        assert counters_ref == counters_san
        assert len(reports_ref) == len(reports_san) == 100
        for ref, ins in zip(reports_ref, reports_san):
            assert ref.edge == ins.edge and ref.operation == ins.operation
            assert np.array_equal(ref.cases, ins.cases)
            assert ref.per_source_seconds.tobytes() == \
                ins.per_source_seconds.tobytes()
            assert ref.simulated_seconds == ins.simulated_seconds
            assert np.array_equal(ref.touched, ins.touched)
            assert ref.stage_seconds == ins.stage_seconds


class TestHookOverhead:
    """Hooks are inert without a tracer: no context, no recording."""

    def test_hooks_are_noops_when_off(self):
        assert san.current_tracer() is None
        assert not san.active()
        san.read("sigma", [1, 2])
        san.write("sigma", [1, 2])
        san.atomic("sigma", [1, 2])
        san.enqueue("Q", [1], 1)
        with san.kernel("off"), san.interval("sp", 0):
            pass  # cheap null contexts
        assert san.current_tracer() is None

    def test_single_source_state_untraced(self, diamond):
        d, sigma, delta, levels = single_source_state(diamond, 0)
        assert sigma[3] == 2.0  # two shortest paths through the diamond
        assert san.current_tracer() is None
