"""Backend matrix for the parallel runtime: the platform rule that
picks the pool backend, thread-backend bit-identity, warm-pool reuse
across replay streams, and the supervision ladder parameterized over
both backends."""

import numpy as np
import pytest

from repro.bc.engine import DynamicBC
from repro.graph import generators as gen
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeStream, replay
from repro.parallel.shm import shm_available
from repro.parallel.supervisor import (
    FULL_POOL,
    SupervisedPool,
    SupervisorPolicy,
)
from repro.resilience.chaos import reports_identical

FAST = SupervisorPolicy(heartbeat_interval=0.05, backoff_base=0.01,
                        backoff_max=0.05, chunk_deadline=30.0)

K = 12
SEED = 3

#: both backends, with the process leg skipped where shm is missing
BACKENDS = [
    pytest.param("processes", marks=pytest.mark.skipif(
        not shm_available(), reason="POSIX shm unavailable")),
    "threads",
]


def serial_ping(kind, common, payload):
    """In-parent executor for ping chunks (quarantine/serial leg)."""
    assert kind == "ping"
    return list(payload["items"])


def assert_states_equal(a, b):
    """Bitwise equality across every state field and the counters."""
    for name in ("sources", "d", "sigma", "delta", "bc"):
        assert np.array_equal(getattr(a.state, name),
                              getattr(b.state, name)), name
    assert a.counters == b.counters


@pytest.fixture
def er_graph():
    return gen.erdos_renyi(60, 140, seed=7)


def _mutate(engine):
    """A deterministic insert/delete mix with genuinely active
    sources: the first four absent non-loop pairs go in, then the
    first two come back out."""
    snap = engine.graph.snapshot()
    present = {
        (int(u), int(snap.col_indices[j]))
        for u in range(snap.num_vertices)
        for j in range(snap.row_offsets[u], snap.row_offsets[u + 1])
    }
    picks = []
    for u in range(snap.num_vertices):
        for v in range(u + 1, snap.num_vertices):
            if (u, v) not in present:
                picks.append((u, v))
                if len(picks) == 4:
                    break
        if len(picks) == 4:
            break
    reports = [engine.insert_edge(u, v) for u, v in picks]
    reports += [engine.delete_edge(u, v) for u, v in picks[:2]]
    return reports


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolve:
    def test_auto_prefers_free_threading_then_processes(self, er_graph,
                                                       monkeypatch):
        """The platform picks the pool: threads on free-threaded
        CPython, else processes over shm, else serial with a warning."""
        def resolved(free_threaded, shm):
            monkeypatch.setattr("repro.bc.engine.free_threading_active",
                                lambda: free_threaded)
            monkeypatch.setattr("repro.bc.engine.shm_available", lambda: shm)
            with DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                      num_sources=K, seed=SEED, workers=2,
                                      supervisor_policy=FAST) as engine:
                return engine.health_report()["pool_backend"]

        assert resolved(free_threaded=True, shm=False) == "threads"
        if shm_available():
            assert resolved(free_threaded=False, shm=True) == "processes"
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            assert resolved(free_threaded=False, shm=False) == "serial"


# ----------------------------------------------------------------------
# Thread backend: identical protocol, zero-copy by reference
# ----------------------------------------------------------------------
class TestThreadPool:
    def test_ping_round(self):
        with SupervisedPool(2, policy=FAST, backend="threads") as pool:
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(5)])
            assert outs == [[i] for i in range(5)]
            stats = pool.transport_stats()
            assert stats["backend"] == "threads"
            assert stats["transport"] == "reference"
            assert stats["queue_bytes"] == 0

    def test_engine_bit_identity_vs_serial(self, er_graph, monkeypatch):
        monkeypatch.setattr("repro.bc.engine.free_threading_active",
                            lambda: True)
        serial = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                      num_sources=K, seed=SEED)
        par = DynamicBC.from_graph(DynamicGraph.from_csr(er_graph),
                                   num_sources=K, seed=SEED, workers=2,
                                   supervisor_policy=FAST)
        try:
            rs = _mutate(serial)
            rp = _mutate(par)
            for a, b in zip(rs, rp):
                assert reports_identical(a, b)
            assert_states_equal(serial, par)
            report = par.transport_report()
            assert report["backend"] == "threads"
            assert report["transport"] == "reference"
            assert report["queue_bytes"] == 0  # results move by reference
            assert par.health_report()["pool_backend"] == "threads"
        finally:
            serial.close()
            par.close()


# ----------------------------------------------------------------------
# Supervision ladder on both backends
# ----------------------------------------------------------------------
class TestSupervisionMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crashed_round_is_retried(self, backend):
        with SupervisedPool(2, policy=FAST, backend=backend) as pool:
            assert pool.backend == backend
            pool.arm_crash()
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            serial=serial_ping)
            assert outs == [[i] for i in range(3)]
            assert pool.counts["deaths"] == 1
            assert pool.counts["respawns"] >= 1
            assert pool.level == FULL_POOL

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stalled_worker_is_killed(self, backend):
        with SupervisedPool(2, policy=FAST, backend=backend) as pool:
            pool.arm_stall()
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(4)],
                            serial=serial_ping)
            assert outs == [[i] for i in range(4)]
            assert pool.counts["hung"] == 1
            assert pool.counts["kills"] == 1
            assert pool.level == FULL_POOL

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_poisoned_chunk_quarantined(self, backend):
        with SupervisedPool(2, policy=FAST, backend=backend) as pool:
            pool.arm_crash(chunks=1, rounds=2)
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(4)],
                            serial=serial_ping)
            assert outs == [[i] for i in range(4)]
            assert pool.counts["quarantined"] == 1
            assert pool.counts["serial_retries"] == 1
            assert pool.level == FULL_POOL


# ----------------------------------------------------------------------
# Warm pools: one pool outliving streams
# ----------------------------------------------------------------------
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestWarmPool:
    def test_pool_survives_successive_replays(self, er_graph):
        # Two replay() streams through one engine: the pool (and its
        # workers) persist — no respawn between streams.
        dyn = DynamicGraph.from_csr(er_graph)
        engine = DynamicBC.from_graph(dyn, num_sources=K, seed=SEED,
                                      workers=2, supervisor_policy=FAST)
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
