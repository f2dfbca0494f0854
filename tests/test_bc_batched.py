"""Differential tests: the level-synchronous executor
(:mod:`repro.bc.batched`) against the per-source looped oracle
(``vectorized=False``), bit for bit, on every backend.

Each scenario replays the same updates on an executor engine and an
oracle engine and compares every report field, every
:class:`UpdateStats`, the counters and the final ``d``/``sigma``/
``delta``/``bc`` state exactly.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.bc.batched as batched
from repro.bc.engine import BACKENDS, DynamicBC
from repro.gpu.costmodel import CostModel
from repro.gpu.counters import KernelCounters
from repro.gpu.device import TESLA_C2075
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.resilience.chaos import reports_identical


def pair(graph, backend="gpu-node", **kwargs):
    fast = DynamicBC.from_graph(DynamicGraph.from_csr(graph), backend=backend,
                                **kwargs)
    oracle = DynamicBC.from_graph(DynamicGraph.from_csr(graph),
                                  backend=backend, vectorized=False, **kwargs)
    return fast, oracle


def apply(engine, op, u, v):
    if op == "add_vertex":
        return engine.add_vertex()
    if op == "insert":
        return engine.insert_edge(u, v)
    return engine.delete_edge(u, v)


def assert_same(fast, oracle, ops):
    """Apply *ops* to both engines, comparing each report exactly, then
    compare the final state; returns the executor's reports."""
    reports = []
    for op, u, v in ops:
        a, b = apply(fast, op, u, v), apply(oracle, op, u, v)
        if op == "add_vertex":
            assert a == b
            continue
        assert reports_identical(a, b), (op, u, v)
        reports.append(a)
    for name in ("d", "sigma", "delta", "bc"):
        assert np.array_equal(getattr(fast.state, name),
                              getattr(oracle.state, name)), name
    assert fast.counters == oracle.counters
    fast.verify()
    return reports


def case_counts(reports):
    out = {1: 0, 2: 0, 3: 0}
    for rep in reports:
        for case, count in rep.case_histogram.items():
            out[case] += count
    return out


def diamond() -> CSRGraph:
    """s=0 over two parallel paths to 3, then a tail: 0-1, 0-2, 1-3,
    2-3, 3-4, 4-5."""
    return CSRGraph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
                                   (4, 5)])


@pytest.mark.parametrize("backend", BACKENDS)
class TestDifferential:
    def test_case2_insert_and_delete(self, backend):
        """Adjacent-level insertion and its deletion dual, including the
        deletion-only seeding of ``u_high``: deleting (1, 3) leaves 3
        with predecessor 2, and 1 is reachable from 3 only through the
        removed arc."""
        fast, oracle = pair(diamond(), backend, sources=[0, 5])
        reports = assert_same(fast, oracle, [
            ("delete", 1, 3), ("insert", 1, 3), ("insert", 1, 2),
            ("delete", 1, 2), ("delete", 2, 3),
        ])
        assert case_counts(reports)[2] >= 3

    def test_case3_merge_from_unreachable(self, backend):
        """Component merges: every vertex of the joined component
        climbs from DIST_INF."""
        graph = CSRGraph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5),
                                        (5, 6), (6, 7)])
        fast, oracle = pair(graph, backend, sources=[0, 2, 4, 7])
        reports = assert_same(fast, oracle, [
            ("insert", 3, 4), ("delete", 3, 4), ("insert", 0, 7),
        ])
        assert case_counts(reports)[3] >= 4

    def test_case3_multi_level_climb(self, backend):
        """A shortcut on a path pulls a whole tail up several levels."""
        fast, oracle = pair(gen.path_graph(12), backend, sources=[0, 1, 11])
        reports = assert_same(fast, oracle, [
            ("insert", 0, 8), ("insert", 1, 5), ("delete", 0, 8),
            ("insert", 11, 2),
        ])
        assert case_counts(reports)[3] >= 4

    def test_add_vertex_then_attach(self, backend):
        fast, oracle = pair(gen.zachary_karate(), backend, num_sources=8,
                            seed=2)
        assert_same(fast, oracle, [
            ("add_vertex", None, None), ("insert", 34, 0),
            ("add_vertex", None, None), ("insert", 35, 34),
            ("insert", 35, 16), ("delete", 34, 0),
        ])

    def test_sources_sharing_u_low(self, backend):
        """Every source on one side of the new edge shares its
        ``u_low``: one batch, many rows with the same endpoint keys."""
        graph = gen.zachary_karate()
        fast, oracle = pair(graph, backend, sources=list(range(0, 34, 2)))
        reports = assert_same(fast, oracle, [
            ("insert", 0, 26), ("insert", 33, 4), ("delete", 0, 26),
            ("delete", 0, 1),
        ])
        assert case_counts(reports)[2] + case_counts(reports)[3] >= 10

    def test_mixed_stream(self, backend, small_er):
        from repro.graph.stream import EdgeStream

        fast, oracle = pair(small_er, backend, num_sources=24, seed=4)
        stream = EdgeStream.churn(small_er, 60, delete_fraction=0.4, seed=9)
        reports = assert_same(fast, oracle,
                              [(e.op, e.u, e.v) for e in stream])
        counts = case_counts(reports)
        assert counts[2] and counts[3]


def test_state_in_fortran_order(karate):
    """The executor writes rows through flat views of the state, so a
    state handed over in Fortran order must still be updated in place
    (BCState stores C-order arrays)."""
    from repro.bc.state import BCState

    state = BCState.compute(karate, range(0, 34, 4))
    fortran = BCState(state.sources, np.asfortranarray(state.d),
                      np.asfortranarray(state.sigma),
                      np.asfortranarray(state.delta), state.bc.copy())
    fast = DynamicBC(DynamicGraph.from_csr(karate), fortran)
    oracle = DynamicBC(DynamicGraph.from_csr(karate), state, vectorized=False)
    assert_same(fast, oracle, [("insert", 0, 9), ("delete", 0, 1)])


class TestArcBudget:
    def test_kron_levels_exceed_the_budget(self, monkeypatch):
        """On a Kronecker graph the Case-2 dependency scans of hub
        adjacency exceed :data:`PASS_ARCS`; the level is split into
        several passes, single-row ones included, and stays exact."""
        seen = {"multi": 0, "single": 0, "split": 0}
        original = batched._Batch.passes

        def spy(self, keys):
            out = list(original(self, keys))
            if len(out) > 1:
                seen["split"] += 1
            for arcs in out:
                seen["single" if arcs.b is not None else "multi"] += 1
            return iter(out)

        monkeypatch.setattr(batched._Batch, "passes", spy)
        graph = gen.kronecker(12, 16, seed=5)
        fast, oracle = pair(graph, "gpu-node", num_sources=64, seed=3)
        rng = np.random.default_rng(11)
        hubs = np.argsort(graph.degrees)[::-1][:8]
        ops = []
        for _ in range(6):
            u = int(rng.choice(hubs))
            v = int(rng.integers(0, graph.num_vertices))
            if u != v and not fast.graph.has_edge(u, v):
                ops.append(("insert", u, v))
        assert_same(fast, oracle, ops)
        assert seen["split"] > 0
        assert seen["single"] > 0 and seen["multi"] > 0

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_tiny_budgets_stay_exact(self, budget, monkeypatch, small_er):
        from repro.graph.stream import EdgeStream

        monkeypatch.setattr(batched, "PASS_ARCS", budget)
        fast, oracle = pair(small_er, "cpu", num_sources=16, seed=6)
        stream = EdgeStream.churn(small_er, 30, delete_fraction=0.4, seed=2)
        assert_same(fast, oracle, [(e.op, e.u, e.v) for e in stream])


@given(
    seed=st.integers(0, 10_000),
    backend=st.sampled_from(BACKENDS),
    steps=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                   min_size=1, max_size=12),
)
def test_property_executor_matches_oracle(seed, backend, steps):
    """Any toggle sequence on a sparse random graph (so merges and
    splits occur) gives bit-identical reports and state."""
    graph = gen.erdos_renyi(30, 35, seed=seed)
    fast, oracle = pair(graph, backend, num_sources=10, seed=seed)
    ops = []
    present = {tuple(e) for e in graph.edge_list().tolist()}
    for u, v in steps:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            ops.append(("delete", u, v))
            present.discard(key)
        else:
            ops.append(("insert", u, v))
            present.add(key)
    assert_same(fast, oracle, ops)


class TestCostSummary:
    def test_summary_matches_trace_fold(self, karate):
        from repro.bc.cases import classify_insertion

        engine = DynamicBC.from_graph(karate, num_sources=8, seed=1,
                                      vectorized=False, backend="gpu-node")
        model = CostModel(TESLA_C2075)
        engine.graph.insert_edge(0, 9)
        snap = engine.graph.snapshot()
        for i in range(engine.state.num_sources):
            case, hi, lo = classify_insertion(engine.state.d[i], 0, 9)
            trace, _ = engine._run_source(snap, i, case, hi, lo, "insert",
                                          0.0)
            summary = model.summarize(trace)
            assert summary.seconds == model.trace_seconds(trace)
            assert summary.stages == model.stage_breakdown(trace)
            assert list(summary.stages) == list(model.stage_breakdown(trace))
            by_trace, by_summary = KernelCounters(), KernelCounters()
            by_trace.absorb(trace, kernel="k")
            by_summary.absorb_summary(summary, kernel="k")
            assert by_trace == by_summary

    def test_summary_survives_slab_framing(self):
        from repro.gpu.counters import CostSummary
        from repro.parallel import slabs

        summary = CostSummary(1.5e-6, {"classify": 1e-7, "sp": 2.5e-7},
                              7, 123, 456.5, 9)
        data = slabs.encode([(3, summary)])
        decoded = slabs.decode(data)
        assert decoded == [(3, summary)]
        assert list(decoded[0][1].stages) == ["classify", "sp"]

    def test_static_trace_from_rebuilt_levels(self, karate):
        from repro.bc.brandes import single_source_state
        from repro.bc.static_gpu import trace_static_source

        for strategy in ("gpu-edge", "gpu-node", "cpu"):
            delta, fresh = trace_static_source(karate, 5, strategy)
            d, _, _, levels = single_source_state(karate, 5)
            none, reused = trace_static_source(karate, 5, strategy,
                                               rebuilt=(d, levels))
            assert none is None and delta is not None
            assert reused.steps == fresh.steps


class TestPool:
    @pytest.mark.parametrize("pool_backend", ["processes", "threads"])
    def test_workers_run_the_executor_bit_identically(self, pool_backend):
        from repro.graph.stream import EdgeStream, replay

        graph = gen.kronecker(9, 8, seed=1)
        stream = EdgeStream.churn(graph, 25, delete_fraction=0.35, seed=2)
        oracle = DynamicBC.from_graph(graph, num_sources=32, seed=3,
                                      vectorized=False)
        expected = replay(oracle, stream)
        with DynamicBC.from_graph(graph, num_sources=32, seed=3, workers=2,
                                  pool_backend=pool_backend) as par:
            got = replay(par, stream)
            assert par.transport_report()["rounds"] > 0
            assert len(got.reports) == len(expected.reports)
            assert all(reports_identical(a, b)
                       for a, b in zip(got.reports, expected.reports))
            assert np.array_equal(par.state.bc, oracle.state.bc)
            assert np.array_equal(par.state.sigma, oracle.state.sigma)
            assert par.counters == oracle.counters
