"""Differential tests: the level-synchronous executor
(:mod:`repro.bc.batched`) against the per-source looped oracle
(``vectorized=False``), bit for bit, on every backend.

Each scenario replays the same updates on an executor engine and an
oracle engine and compares every report field, every
:class:`UpdateStats`, the counters and the final ``d``/``sigma``/
``delta``/``bc`` state exactly.  The dependency stage picks each
level's direction per row; the ``*Forced*`` tests rerun the scenarios
with every level forced top-down or bottom-up through the seam
(``_Batch.bottom_up``).
"""

import contextlib
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.bc.batched as batched
from repro.bc.engine import BACKENDS, DynamicBC
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.resilience.chaos import reports_identical


#: the direction seam's forced settings: no row bottom-up, or every row
#: with keys at the level
FORCE = {
    "top-down": lambda self, w, deg, level, case3: batched._EMPTY,
    "bottom-up": lambda self, w, deg, level, case3: np.unique(w // self.n),
}


@contextlib.contextmanager
def forced(direction):
    """Run the executor with every dependency level's direction forced
    (``"auto"``: the rule)."""
    with pytest.MonkeyPatch.context() as mp:
        if direction != "auto":
            mp.setattr(batched._Batch, "bottom_up", FORCE[direction])
        yield


@pytest.fixture(params=["top-down", "bottom-up"])
def force_direction(request):
    with forced(request.param):
        yield request.param


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


@pytest.mark.usefixtures("force_direction")
class TestDifferentialForced(TestDifferential):
    """Every differential scenario with the direction forced."""


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


def kron_hub_scenario():
    """Kronecker scale 12, 64 sources, six insertions at hubs: Case-2
    dependency levels whose top-down scans of hub adjacency exceed
    :data:`PASS_ARCS`."""
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
    return fast, oracle, ops


class TestArcBudget:
    def test_kron_levels_exceed_the_budget(self, monkeypatch):
        """Top-down, the Case-2 dependency scans of hub adjacency exceed
        :data:`PASS_ARCS`; the level is split into several passes,
        single-row ones included, and stays exact."""
        seen = {"multi": 0, "single": 0, "split": 0}
        original = batched._Batch.passes

        def spy(self, keys, deg=None):
            out = list(original(self, keys, deg))
            if len(out) > 1:
                seen["split"] += 1
            for arcs in out:
                seen["single" if arcs.b is not None else "multi"] += 1
            return iter(out)

        monkeypatch.setattr(batched._Batch, "passes", spy)
        with forced("top-down"):
            assert_same(*kron_hub_scenario())
        assert seen["split"] > 0
        assert seen["single"] > 0 and seen["multi"] > 0

    def test_bottom_up_saves_hub_scans(self, monkeypatch):
        """The direction rule gathers at most a quarter of the
        dependency arcs the top-down scans gather, with identical
        reports."""
        gathered = []
        original = batched._Batch.dep_passes

        def spy(self, *args):
            for a in original(self, *args):
                gathered.append(a.total)
                yield a

        monkeypatch.setattr(batched._Batch, "dep_passes", spy)
        with forced("top-down"):
            top_down = assert_same(*kron_hub_scenario())
        top_down_arcs = sum(gathered)
        gathered.clear()
        rule = assert_same(*kron_hub_scenario())
        assert len(rule) == len(top_down)
        assert all(reports_identical(a, b) for a, b in zip(rule, top_down))
        assert 0 < sum(gathered) <= top_down_arcs // 4

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_tiny_budgets_stay_exact(self, budget, monkeypatch, small_er):
        from repro.graph.stream import EdgeStream

        monkeypatch.setattr(batched, "PASS_ARCS", budget)
        fast, oracle = pair(small_er, "cpu", num_sources=16, seed=6)
        stream = EdgeStream.churn(small_er, 30, delete_fraction=0.4, seed=2)
        assert_same(fast, oracle, [(e.op, e.u, e.v) for e in stream])

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_tiny_budgets_forced(self, budget, monkeypatch, small_er,
                                 force_direction):
        self.test_tiny_budgets_stay_exact(budget, monkeypatch, small_er)


class TestDirection:
    """Both directions select the same arcs in the same order, on any
    stored row, and each row's removed arc retires once."""

    def test_bottom_up_selection_equals_top_down(self, monkeypatch,
                                                 small_er):
        """Every bottom-up pass yields the :class:`_Sel` the top-down
        scan of its keys yields: arc order, rows, local and global
        tail and head indices."""
        checked = {"single": 0, "multi": 0, "arcs": 0}
        original = batched._Batch.dep_passes

        def spy(self, w, level, case3):
            for a in original(self, w, level, case3):
                if isinstance(a, batched._BottomUp):
                    down = batched._Arcs(self, a.keys, a.b)
                    for got, want in zip(a.preds(level, case3),
                                         down.preds(level, case3)):
                        if want is None:
                            assert got is None
                            continue
                        for name in ("kidx", "rb", "lt", "gt", "lh", "gh"):
                            assert np.array_equal(getattr(got, name),
                                                  getattr(want, name)), name
                        checked["arcs"] += want.size
                    assert np.array_equal(a.row_arcs(), down.row_arcs())
                    checked["single" if a.b is not None else "multi"] += 1
                yield a

        monkeypatch.setattr(batched._Batch, "dep_passes", spy)
        monkeypatch.setattr(batched, "PASS_ARCS", 60)  # multi and single
        from repro.graph.stream import EdgeStream

        with forced("bottom-up"):
            fast, oracle = pair(small_er, "gpu-node", num_sources=16, seed=6)
            stream = EdgeStream.churn(small_er, 30, delete_fraction=0.4,
                                      seed=2)
            reports = assert_same(fast, oracle,
                                  [(e.op, e.u, e.v) for e in stream])
        assert checked["single"] and checked["multi"] and checked["arcs"]
        assert case_counts(reports)[2] and case_counts(reports)[3]

    @pytest.mark.parametrize("direction", ["top-down", "bottom-up"])
    def test_case2_deletion_retires_at_level_two(self, direction):
        """Deleting (1, 3) from source 0 of the diamond retires the
        removed arc at d[u_low] = 2, where 1 is reachable only through
        it and is stamped explicitly."""
        with forced(direction):
            fast, oracle = pair(diamond(), "gpu-node", sources=[0])
            reports = assert_same(fast, oracle, [("delete", 1, 3)])
        assert reports[0].case_histogram == {2: 1}

    @pytest.mark.parametrize("direction", ["top-down", "bottom-up"])
    def test_case2_deletion_retires_at_level_one(self, direction):
        """A stored row whose level 0 holds a second vertex: deleting
        the source's arc to 1 keeps 1's distance (4 is a level-0
        predecessor), so the removed arc retires at d[u_low] = 1.  The
        previous level is read from the row, never assumed to be the
        source: the executor must find the predecessor 4."""
        from repro.bc.state import BCState

        graph = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        state = BCState.compute(graph, [0])
        state.d[0, 4] = 0
        state.sigma[0, 1:4] = 2.0  # paths through 0 and through 4
        runs = []
        for vectorized in (True, False):
            eng = DynamicBC(DynamicGraph.from_csr(graph), state.copy(),
                            vectorized=vectorized)
            with forced(direction):
                runs.append((eng, eng.delete_edge(0, 1)))
        (fast, a), (oracle, b) = runs
        assert a.case_histogram == {2: 1}
        assert reports_identical(a, b)
        for name in ("d", "sigma", "delta", "bc"):
            assert np.array_equal(getattr(fast.state, name),
                                  getattr(oracle.state, name)), name
        assert fast.counters == oracle.counters

    def test_top_down_pass_straddling_a_bottom_up_row(self, monkeypatch,
                                                      karate):
        """Alternate rows bottom-up: a multi-row top-down pass's key
        range then spans bottom-up rows, whose removed arcs must retire
        in their own pass only."""
        seen = {"straddles": 0}

        def alternate(self, w, deg, level, case3):
            rows = np.unique(w // self.n)[1::2]
            if rows.size and (w[0] // self.n < rows[0] < w[-1] // self.n):
                seen["straddles"] += 1
            return rows

        monkeypatch.setattr(batched._Batch, "bottom_up", alternate)
        fast, oracle = pair(karate, "gpu-node", sources=list(range(0, 34, 2)))
        reports = assert_same(fast, oracle, [
            ("delete", 0, 1), ("delete", 2, 3), ("insert", 0, 26),
            ("delete", 33, 8), ("delete", 0, 26),
        ])
        assert seen["straddles"] > 0
        assert case_counts(reports)[2] >= 10


@given(
    seed=st.integers(0, 10_000),
    backend=st.sampled_from(BACKENDS),
    direction=st.sampled_from(["auto", "top-down", "bottom-up"]),
    steps=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                   min_size=1, max_size=12),
)
def test_property_executor_matches_oracle(seed, backend, direction, steps):
    """Any toggle sequence on a sparse random graph (so merges and
    splits occur) gives bit-identical reports and state, in either
    direction."""
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
    with forced(direction):
        assert_same(fast, oracle, ops)


def replay_pooled(backend="gpu-node"):
    """Replay a kron-9 churn stream, whose deletions rebuild rows,
    through a two-worker engine and through the looped oracle, both on
    *backend*; compare everything."""
    from repro.graph.stream import EdgeStream, replay

    graph = gen.kronecker(9, 8, seed=1)
    stream = EdgeStream.churn(graph, 25, delete_fraction=0.35, seed=2)
    oracle = DynamicBC.from_graph(graph, backend=backend, num_sources=32,
                                  seed=3, vectorized=False)
    expected = replay(oracle, stream)
    assert any(r.operation == "delete" and np.any(r.cases == 3)
               for r in expected.reports)
    with DynamicBC.from_graph(graph, backend=backend, num_sources=32,
                              seed=3, workers=2) as par:
        assert par.health_report()["pool_backend"] == "processes"
        got = replay(par, stream)
        assert par.transport_report()["rounds"] > 0
        assert len(got.reports) == len(expected.reports)
        assert all(reports_identical(a, b)
                   for a, b in zip(got.reports, expected.reports))
        for name in ("d", "sigma", "delta", "bc"):
            assert np.array_equal(getattr(par.state, name),
                                  getattr(oracle.state, name)), name
        assert par.counters == oracle.counters


class TestPool:
    def test_workers_run_the_executor_bit_identically(self):
        replay_pooled()

    @pytest.mark.parametrize("direction", ["top-down", "bottom-up"])
    def test_workers_forced(self, direction, monkeypatch):
        """The forced seam reaches the workers (forked after it is
        set): it counts its calls outside the parent process in shared
        memory."""
        calls = multiprocessing.Value("q", 0)
        parent = os.getpid()
        force = FORCE[direction]

        def seam(self, w, deg, level, case3):
            if os.getpid() != parent:
                with calls.get_lock():
                    calls.value += 1
            return force(self, w, deg, level, case3)

        monkeypatch.setattr(batched._Batch, "bottom_up", seam)
        replay_pooled()
        assert calls.value > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_both_directions(self, backend):
        """The pool matches the oracle on every backend with every
        dependency level forced top-down, then bottom-up."""
        for direction in ("top-down", "bottom-up"):
            with forced(direction):
                replay_pooled(backend)

    def test_update_task_writes_no_state(self, monkeypatch):
        """An update task only reads the state rows it is given (their
        bytes are unchanged afterwards) and ships each row's write-set;
        the engine's commit of those write-sets reproduces the looped
        oracle bit for bit, rebuilt rows included.  A serial engine
        runs each update round whole, as one share, through the
        parent's ``run_task``: the spy hands every task private copies
        of the round's rows."""
        import repro.bc.engine as engine_mod
        from repro.graph.stream import EdgeStream, replay
        from repro.parallel.worker import run_task

        graph = gen.kronecker(8, 8, seed=1)
        stream = EdgeStream.churn(graph, 20, delete_fraction=0.4, seed=2)
        oracle = DynamicBC.from_graph(graph, num_sources=16, seed=3,
                                      vectorized=False)
        expected = replay(oracle, stream)
        engine = DynamicBC.from_graph(graph, num_sources=16, seed=3)
        tasks = []

        def spy(views, kind, common, payload):
            if kind != "update":
                return run_task(views, kind, common, payload)
            snap, *rows = views
            rows = [a.copy() for a in rows]
            before = [a.tobytes() for a in rows]
            out = run_task((snap, *rows), kind, common, payload)
            assert [a.tobytes() for a in rows] == before
            tasks.append((common["operation"], payload["items"]))
            return out

        monkeypatch.setattr(engine_mod, "run_task", spy)
        got = replay(engine, stream)
        assert any(op == "delete" and any(it[1] == 3 for it in items)
                   for op, items in tasks), "no row was rebuilt"
        assert len(got.reports) == len(expected.reports)
        assert all(reports_identical(a, b)
                   for a, b in zip(got.reports, expected.reports))
        for name in ("d", "sigma", "delta", "bc"):
            assert np.array_equal(getattr(engine.state, name),
                                  getattr(oracle.state, name)), name
        assert engine.counters == oracle.counters
