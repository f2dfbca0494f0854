"""Differential suite for the shared-memory parallel engine.

``DynamicBC(workers=N)`` promises *bit-identical* results to the serial
engine — same BC scores, same reports, same counters, same simulated
time — with only wall-clock allowed to differ.  Every test here runs a
serial twin and a parallel twin through the same scenario and compares
them exactly (``np.array_equal``, ``==`` on floats), never with
tolerances.
"""

import numpy as np
import pytest

from repro.bc.cases import Case, classify_insertions_batch
from repro.bc.engine import DynamicBC
from repro.graph import generators as gen
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeStream, replay
from repro.parallel.shm import shm_available
from repro.parallel.supervisor import ChunkEscalated
from repro.resilience import FaultInjector, UpdateError
from repro.resilience.chaos import reports_identical
from repro.resilience.guards import GuardPolicy

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shm unavailable"
)

K = 12
SEED = 3


def build_pair(graph, workers, **kwargs):
    """A (serial, parallel) engine pair over private copies of *graph*."""
    serial = DynamicBC.from_graph(DynamicGraph.from_csr(graph),
                                  num_sources=K, seed=SEED, **kwargs)
    par = DynamicBC.from_graph(DynamicGraph.from_csr(graph), num_sources=K,
                               seed=SEED, workers=workers, **kwargs)
    return serial, par


def assert_states_equal(a, b):
    for name in ("sources", "d", "sigma", "delta", "bc"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name
    assert a.counters == b.counters


def active_insert_edge(engine):
    """A non-edge whose insertion has at least one non-Case-1 source
    (guaranteeing the update actually dispatches to the pool)."""
    snap = engine.graph.snapshot()
    n = snap.num_vertices
    for u in range(n):
        for v in range(u + 1, n):
            if engine.graph.has_edge(u, v):
                continue
            cases, _, _ = classify_insertions_batch(engine.state.d, u, v)
            if np.any(cases != int(Case.SAME_LEVEL)):
                return u, v
    raise AssertionError("no active insertion found")


@pytest.fixture(scope="module")
def er_graph():
    return gen.erdos_renyi(60, 140, seed=7)


# ----------------------------------------------------------------------
# Bit-identity of every engine entry point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [2, 4])
class TestBitIdentity:
    def test_from_graph(self, er_graph, workers):
        serial, par = build_pair(er_graph, workers)
        try:
            assert par._pool is not None, "pool did not come up"
            assert_states_equal(serial, par)
        finally:
            par.close()

    def test_churn_replay(self, er_graph, workers):
        serial, par = build_pair(er_graph, workers)
        try:
            stream = EdgeStream.churn(er_graph, 25, delete_fraction=0.4,
                                      seed=11)
            rs = replay(serial, stream)
            rp = replay(par, stream)
            assert len(rs.reports) == len(rp.reports)
            for x, y in zip(rs.reports, rp.reports):
                assert reports_identical(x, y)
            assert rs.simulated_seconds == rp.simulated_seconds
            assert_states_equal(serial, par)
        finally:
            par.close()

    def test_removal_reinsertion_stream(self, er_graph, workers):
        """The paper's §IV protocol: remove edges up front, then replay
        their re-insertions (every event has real active sources)."""
        def run(w):
            dyn = DynamicGraph.from_csr(er_graph)
            stream = EdgeStream.removal_reinsertion(dyn, 8, seed=5)
            eng = DynamicBC.from_graph(dyn, num_sources=K, seed=SEED,
                                       workers=w)
            try:
                return replay(eng, stream), eng.state.bc.copy(), eng.counters
            finally:
                eng.close()

        rs, bc_s, cnt_s = run(1)
        rp, bc_p, cnt_p = run(workers)
        assert len(rs.reports) == len(rp.reports)
        for x, y in zip(rs.reports, rp.reports):
            assert reports_identical(x, y)
        assert np.array_equal(bc_s, bc_p)
        assert cnt_s == cnt_p

    def test_round_is_one_share_per_worker(self, er_graph, workers):
        """Every update round is cut into min(workers, active) chunks,
        one contiguous share per worker (transport_report() counts)."""
        dyn = DynamicGraph.from_csr(er_graph)
        stream = EdgeStream.removal_reinsertion(dyn, 8, seed=5)
        with DynamicBC.from_graph(dyn, num_sources=K, seed=SEED,
                                  workers=workers) as eng:
            before = eng.transport_report()
            result = replay(eng, stream)
            after = eng.transport_report()
        active = [int(np.count_nonzero(r.cases != int(Case.SAME_LEVEL)))
                  for r in result.reports]
        rounds = after["rounds"] - before["rounds"]
        chunks = after["chunks"] - before["chunks"]
        assert rounds == sum(a > 0 for a in active) > 0
        assert chunks == sum(min(workers, a) for a in active)

    def test_add_vertex_triggers_readoption(self, er_graph, workers):
        serial, par = build_pair(er_graph, workers)
        try:
            for eng in (serial, par):
                eng.add_vertex()
            u, v = 60, 10
            rs = serial.insert_edge(u, v)
            rp = par.insert_edge(u, v)
            assert reports_identical(rs, rp)
            assert_states_equal(serial, par)
        finally:
            par.close()

    def test_recompute_and_repair(self, er_graph, workers):
        serial, par = build_pair(er_graph, workers)
        try:
            for eng in (serial, par):
                eng.recompute()
            assert_states_equal(serial, par)

            injector_a, injector_b = FaultInjector(9), FaultInjector(9)
            i, _ = injector_a.corrupt_row(serial)
            j, _ = injector_b.corrupt_row(par)
            assert i == j
            assert serial.check_rows(range(K)) == par.check_rows(range(K)) == [i]
            assert serial.repair_source(i) == par.repair_source(i)
            assert serial.check_rows(range(K)) == par.check_rows(range(K)) == []
            assert_states_equal(serial, par)
        finally:
            par.close()

    def test_guarded_replay(self, er_graph, workers):
        serial, par = build_pair(er_graph, workers)
        try:
            policy = GuardPolicy(check_every=5, num_check_sources=6, seed=2)
            stream = EdgeStream.churn(er_graph, 20, seed=13)
            rs = replay(serial, stream, guard=policy)
            rp = replay(par, stream, guard=policy)
            assert [
                (e.action, e.kind, e.source_index) for e in rs.guard_events
            ] == [(e.action, e.kind, e.source_index) for e in rp.guard_events]
            assert_states_equal(serial, par)
        finally:
            par.close()


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
def test_checkpoint_resume_workers4_matches_uninterrupted_serial(
    er_graph, tmp_path
):
    """The acceptance scenario: a workers=4 replay that checkpoints,
    "crashes", and resumes must be bit-identical to an uninterrupted
    serial run."""
    stream = EdgeStream.churn(er_graph, 24, delete_fraction=0.35, seed=21)

    serial = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                  num_sources=K, seed=SEED)
    full = replay(serial, stream)

    ck = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph), num_sources=K,
                              seed=SEED, workers=4)
    try:
        res_ck = replay(ck, stream, checkpoint_every=8,
                        checkpoint_dir=str(tmp_path))
        assert res_ck.checkpoints
    finally:
        ck.close()

    resumed = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                   num_sources=K, seed=SEED, workers=4)
    try:
        res = replay(resumed, stream, resume_from=res_ck.checkpoints[0])
        tail = full.reports[len(full.reports) - len(res.reports):]
        for x, y in zip(tail, res.reports):
            assert reports_identical(x, y)
        assert np.array_equal(serial.bc_scores, resumed.bc_scores)
        assert serial.counters == resumed.counters
        assert full.simulated_seconds == res.simulated_seconds
    finally:
        resumed.close()


# ----------------------------------------------------------------------
# Failure containment
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_crash_rolls_back_and_engine_survives(self, er_graph,
                                                  monkeypatch):
        # The ladder's last rung: a chunk that kills two workers is
        # quarantined, and when its in-parent retry fails too the
        # update rolls back as a structured UpdateError.  The engine
        # keeps its pool and goes on matching a clean twin.
        clean, par = build_pair(er_graph, 2)
        try:
            u, v = active_insert_edge(par)
            before = (
                par.state.d.copy(), par.state.sigma.copy(),
                par.state.delta.copy(), par.state.bc.copy(), par.counters,
            )
            par._ensure_pool().arm_crash(rounds=2)

            def failing_retry(kind, common, payload):
                raise RuntimeError("in-parent retry failed")

            monkeypatch.setattr(par, "_serial_chunk", failing_retry)
            with pytest.raises(UpdateError) as info:
                par.insert_edge(u, v)
            monkeypatch.undo()
            assert info.value.rolled_back
            assert info.value.edge == (u, v)
            assert isinstance(info.value.cause, ChunkEscalated)
            assert not par.graph.has_edge(u, v)
            d, sigma, delta, bc, counters = before
            assert np.array_equal(par.state.d, d)
            assert np.array_equal(par.state.sigma, sigma)
            assert np.array_equal(par.state.delta, delta)
            assert np.array_equal(par.state.bc, bc)
            assert par.counters == counters
            health = par.health_report()
            assert health["quarantined"] == 1
            assert health["escalations"] == 1

            rs = clean.insert_edge(u, v)
            rp = par.insert_edge(u, v)
            assert reports_identical(rs, rp)
            assert_states_equal(clean, par)
            assert not par.health_report()["parallel_disabled"]
            par.verify()
        finally:
            par.close()

    def test_injector_arms_pool_crash(self, er_graph):
        # The supervisor respawns the worker and retries the round (the
        # workers wrote no row, so there is nothing to restore): the
        # armed crash costs one death and nothing else — the update
        # lands as on a clean twin.
        clean, par = build_pair(er_graph, 2)
        try:
            injector = FaultInjector(0)
            injector.arm_update_fault(par, after_sources=1)
            assert any("pool mode" in line for line in injector.log)
            u, v = active_insert_edge(par)
            rs = clean.insert_edge(u, v)
            rp = par.insert_edge(u, v)
            assert reports_identical(rs, rp)
            assert_states_equal(clean, par)
            health = par.health_report()
            assert health["deaths"] == 1
            assert health["respawns"] == 1
            assert not health["parallel_disabled"]
        finally:
            par.close()

    def test_guarded_replay_recovers_from_crash(self, er_graph):
        serial, par = build_pair(er_graph, 2)
        try:
            stream = EdgeStream.churn(er_graph, 15, seed=17)
            policy = GuardPolicy(check_every=50, seed=1)
            par._ensure_pool().arm_crash()
            rp = replay(par, stream, guard=policy)
            rs = replay(serial, stream, guard=policy)
            # The crash is recovered inside its update: nothing rolls
            # back or is skipped, and every report matches.
            assert not rp.recovered and not rp.skipped
            assert len(rs.reports) == len(rp.reports)
            for x, y in zip(rs.reports, rp.reports):
                assert reports_identical(x, y)
            assert_states_equal(serial, par)
            assert par.health_report()["deaths"] == 1
        finally:
            par.close()


# ----------------------------------------------------------------------
# Input validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("indices", [[-1], [K, 0]])
def test_check_rows_rejects_bad_index_before_dispatch(er_graph, workers,
                                                      indices):
    with DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                              num_sources=K, seed=SEED,
                              workers=workers) as eng:
        respawns = eng.health_report().get("respawns", 0)
        with pytest.raises(IndexError, match=f"out of range for k={K}"):
            eng.check_rows(indices)
        assert eng.health_report().get("respawns", 0) == respawns
        assert not eng.drain_health_events()
        assert eng.check_rows(range(K)) == []


# ----------------------------------------------------------------------
# Serial fallback + lifecycle
# ----------------------------------------------------------------------
class TestFallbackAndLifecycle:
    def test_fallback_when_shm_unavailable(self, er_graph, monkeypatch):
        # The pool needs shm; without it the build warns once and the
        # engine stays serial (a second warning on the first update
        # would fail here: pytest turns RuntimeWarning into an error).
        monkeypatch.setattr("repro.bc.engine.shm_available", lambda: False)
        serial = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                      num_sources=K, seed=SEED)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            par = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                       num_sources=K, seed=SEED, workers=2)
        assert par._pool is None
        assert par.health_report()["parallel_disabled"]
        u, v = active_insert_edge(par)
        rs = serial.insert_edge(u, v)
        rp = par.insert_edge(u, v)
        assert par._pool is None
        assert reports_identical(rs, rp)
        assert_states_equal(serial, par)

    def test_workers_one_is_plain_serial(self, er_graph):
        eng = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                   num_sources=K, seed=SEED, workers=1)
        assert eng._ensure_pool() is None
        eng.close()  # no-op

    def test_context_manager_closes_pool(self, er_graph):
        with DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                  num_sources=K, seed=SEED,
                                  workers=2) as eng:
            assert eng._pool is not None
            u, v = active_insert_edge(eng)
            eng.insert_edge(u, v)
        assert eng._pool is None
        assert eng._arena is None
        # State migrated out of shared memory and still verifies.
        eng.verify()

    def test_close_migrates_state_out_of_shm(self, er_graph):
        serial, par = build_pair(er_graph, 2)
        par.close()
        assert_states_equal(serial, par)
        # Post-close updates run serially and stay identical.
        u, v = active_insert_edge(par)
        rs = serial.insert_edge(u, v)
        rp = par.insert_edge(u, v)
        assert reports_identical(rs, rp)


# ----------------------------------------------------------------------
# Pool resolution and warm pools
# ----------------------------------------------------------------------
class TestResolve:
    def test_auto_picks_processes_then_serial(self, er_graph, monkeypatch):
        """The pool is worker processes over shm; without shm the
        engine runs serially, with a warning."""
        def resolved():
            with DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                      num_sources=K, seed=SEED,
                                      workers=2) as engine:
                return engine.health_report()["pool_backend"]

        assert resolved() == "processes"
        monkeypatch.setattr("repro.bc.engine.shm_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert resolved() == "serial"


class TestWarmPool:
    def test_pool_survives_successive_replays(self, er_graph):
        # Two replay() streams through one engine: the pool (and its
        # workers) persist — no respawn between streams.
        dyn = DynamicGraph.from_csr(er_graph)
        engine = DynamicBC.from_graph(dyn, num_sources=K, seed=SEED,
                                      workers=2)
        try:
            s1 = EdgeStream.removal_reinsertion(engine.graph, 3, seed=11)
            replay(engine, s1)
            pool = engine._pool
            assert pool is not None
            s2 = EdgeStream.removal_reinsertion(engine.graph, 3, seed=12)
            replay(engine, s2)
            assert engine._pool is pool
            assert pool.counts["respawns"] == 0
        finally:
            engine.close()
