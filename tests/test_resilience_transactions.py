"""Transactional updates: a mid-update failure must leave the engine
bit-identical to its pre-update state, surfaced as a structured
UpdateError, and `repair_source` must rebuild a corrupted row exactly."""

import numpy as np
import pytest

from repro.bc.engine import DynamicBC
from repro.resilience import FaultInjected, FaultInjector, UpdateError


def snapshot_state(eng):
    return (
        eng.graph.snapshot().edge_list().copy(),
        eng.state.d.copy(),
        eng.state.sigma.copy(),
        eng.state.delta.copy(),
        eng.state.bc.copy(),
        eng.counters,
    )


def assert_state_equal(eng, snap):
    edges, d, sigma, delta, bc, counters = snap
    assert np.array_equal(eng.graph.snapshot().edge_list(), edges)
    assert np.array_equal(eng.state.d, d)
    assert np.array_equal(eng.state.sigma, sigma)
    assert np.array_equal(eng.state.delta, delta)
    assert np.array_equal(eng.state.bc, bc)
    assert eng.counters == counters


class TestRollback:
    def test_insert_fault_rolls_back_everything(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        before = snapshot_state(eng)
        FaultInjector(3).arm_update_fault(eng, after_sources=1)
        with pytest.raises(UpdateError) as info:
            eng.insert_edge(0, 9)
        assert info.value.rolled_back
        assert info.value.edge == (0, 9)
        assert info.value.operation == "insert"
        assert isinstance(info.value.cause, FaultInjected)
        assert_state_equal(eng, before)
        eng.verify()

    def test_delete_fault_rolls_back_everything(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        before = snapshot_state(eng)
        FaultInjector(3).arm_update_fault(eng, after_sources=0)
        with pytest.raises(UpdateError) as info:
            eng.delete_edge(0, 1)
        assert info.value.operation == "delete"
        assert eng.graph.has_edge(0, 1)
        assert_state_equal(eng, before)
        eng.verify()

    def test_retry_after_rollback_matches_clean_twin(self, karate):
        faulty = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        clean = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        FaultInjector(3).arm_update_fault(faulty, after_sources=1)
        with pytest.raises(UpdateError):
            faulty.insert_edge(0, 9)
        # the one-shot trap disarmed itself; the retry must succeed and
        # be bit-identical to an engine that never saw the fault
        from repro.resilience.chaos import reports_identical

        r_faulty = faulty.insert_edge(0, 9)
        r_clean = clean.insert_edge(0, 9)
        assert reports_identical(r_faulty, r_clean)
        assert np.array_equal(faulty.bc_scores, clean.bc_scores)
        assert faulty.counters == clean.counters

    def test_looped_path_rolls_back_too(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1,
                                   vectorized=False)
        before = snapshot_state(eng)
        FaultInjector(3).arm_update_fault(eng, after_sources=2)
        with pytest.raises(UpdateError):
            eng.insert_edge(0, 9)
        assert_state_equal(eng, before)
        eng.verify()


class TestRepairSource:
    @pytest.mark.parametrize("kind", ["d", "sigma", "delta"])
    def test_repairs_each_corruption_kind(self, karate, kind):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        i, _ = FaultInjector(7).corrupt_row(eng, kind=kind)
        assert eng.check_rows(range(8)) == [i]
        eng.repair_source(i)
        assert eng.check_rows(range(8)) == []
        eng.verify()

    def test_charges_repair_kernel(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        eng.repair_source(0)
        assert "repair" in eng.counters.by_kernel
        assert eng.counters.by_kernel["repair"] > 0

    def test_out_of_range_index_rejected(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        with pytest.raises(IndexError):
            eng.repair_source(8)
        with pytest.raises(IndexError):
            eng.repair_source(-1)

    def test_repair_restores_bc_after_delta_corruption(self, karate):
        # Corrupting delta breaks the bc = sum(delta rows) invariant in
        # a way an incremental patch could never detect; repair_source
        # must refold bc from the rebuilt rows.
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        expected = eng.bc_scores.copy()
        i, _ = FaultInjector(11).corrupt_row(eng, kind="delta")
        eng.repair_source(i)
        assert np.allclose(eng.bc_scores, expected, atol=1e-9)
        eng.verify()


class TestExecutorSeam:
    def test_fault_fires_with_earlier_rows_written(self, karate):
        """The executor calls the seam before writing each active row,
        so a fault after the first row leaves that row written; the
        rollback must undo it."""
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        before = snapshot_state(eng)
        seen = []
        original = eng._before_commit

        def hook(i):
            if seen:
                first = seen[0]
                # the first active row is already committed
                assert not (
                    np.array_equal(eng.state.sigma[first], before[2][first])
                    and np.array_equal(eng.state.delta[first],
                                       before[3][first])
                )
                raise FaultInjected("second row")
            seen.append(i)
            original(i)

        eng._before_commit = hook
        with pytest.raises(UpdateError) as info:
            eng.insert_edge(0, 9)
        assert isinstance(info.value.cause, FaultInjected)
        assert len(seen) == 1
        assert_state_equal(eng, before)
        eng.verify()


class TestSaveRows:
    def test_bulk_journal_rolls_back(self, karate):
        """The journal holds a row's old values at exactly the keys it
        was given (the whole row without keys), and restores exactly
        those."""
        from repro.resilience.transactions import UpdateTransaction

        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        before = snapshot_state(eng)
        eng.graph.insert_edge(0, 9)
        txn = UpdateTransaction(eng, 0, 9, "insert")
        keys = {1: np.array([0, 3]), 4: np.array([3, 5, 7]),
                6: np.array([2])}
        for i, at in keys.items():
            assert np.array_equal(txn.save_row(i, at), before[3][i][at])
        txn.save_row(2)
        for i, at in keys.items():
            eng.state.sigma[i, at] += 1.0
            eng.state.d[i, at] = 99
            eng.state.delta[i, at] = -1.0
        eng.state.sigma[2] += 1.0
        eng.state.sigma[4, 9] = 42.0  # outside row 4's journaled keys
        txn.restore_row(4)
        assert np.array_equal(eng.state.sigma[4, keys[4]],
                              before[2][4][keys[4]])
        assert np.array_equal(eng.state.d[4], before[1][4])
        assert np.array_equal(eng.state.delta[4], before[3][4])
        assert eng.state.sigma[4, 9] == 42.0
        eng.state.sigma[4, 9] = before[2][4][9]
        txn.rollback()
        assert_state_equal(eng, before)


class TestPooledCommit:
    """The engine commits the pool's results itself, so the commit
    seam fires on pooled engines as on serial ones, and a fault there
    rolls back like any other."""

    @pytest.mark.parametrize("pool", ["processes", "threads"])
    def test_fault_at_third_committed_row_rolls_back(self, pool,
                                                     monkeypatch):
        from repro.bc.cases import Case, classify_insertions_batch
        from repro.graph import generators as gen
        from repro.parallel.shm import shm_available
        from repro.resilience.chaos import reports_identical

        if pool == "processes" and not shm_available():
            pytest.skip("POSIX shm unavailable")
        monkeypatch.setattr("repro.bc.engine.free_threading_active",
                            lambda: pool == "threads")
        graph = gen.erdos_renyi(60, 140, seed=7)
        serial = DynamicBC.from_graph(graph, num_sources=12, seed=3)
        with DynamicBC.from_graph(graph, num_sources=12, seed=3,
                                  workers=2) as par:
            assert par.health_report()["pool_backend"] == pool
            u, v = next(
                (u, v) for u in range(60) for v in range(u + 1, 60)
                if not par.graph.has_edge(u, v) and np.count_nonzero(
                    classify_insertions_batch(par.state.d, u, v)[0]
                    != int(Case.SAME_LEVEL)) >= 4)
            before = snapshot_state(par)
            seen = []
            original = par._before_commit

            def hook(i):
                seen.append(i)
                original(i)
                if len(seen) == 3:
                    raise FaultInjected("third committed row")

            par._before_commit = hook
            with pytest.raises(UpdateError) as info:
                par.insert_edge(u, v)
            del par._before_commit
            assert len(seen) == 3 and seen == sorted(seen)
            assert isinstance(info.value.cause, FaultInjected)
            assert info.value.rolled_back
            assert info.value.source_index == seen[2]
            assert_state_equal(par, before)
            assert par.transport_report()["rounds"] > 0

            retried = par.insert_edge(u, v)
            clean = serial.insert_edge(u, v)
            assert reports_identical(retried, clean)
            for name in ("d", "sigma", "delta", "bc"):
                assert np.array_equal(getattr(par.state, name),
                                      getattr(serial.state, name)), name
            assert par.counters == serial.counters


class TestFailFast:
    def test_corrupt_d_row_fails_at_its_own_update(self, karate):
        """A corrupted distance row must fail the first update that
        runs on it — with the row named and everything rolled back —
        instead of producing inf/nan that only a later guard check
        would catch."""
        from repro.resilience import CorruptRowError

        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        eng.state.d[0, 0] += 1  # row 0 (source 1): vertex 0 one level off
        before = snapshot_state(eng)
        with pytest.raises(UpdateError) as info:
            eng.delete_edge(0, 2)
        assert isinstance(info.value.cause, CorruptRowError)
        assert info.value.source_index == 0
        assert info.value.rolled_back
        assert_state_equal(eng, before)

    def test_stream_retry_repairs_the_named_row(self, karate):
        from repro.graph.stream import EdgeEvent, EdgeStream, replay
        from repro.resilience.guards import GuardPolicy

        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        eng.state.d[0, 0] += 1
        stream = EdgeStream([EdgeEvent(0.0, 0, 2, "delete")])
        # the guard's own cadence never runs within this one event
        result = replay(eng, stream, guard=GuardPolicy(check_every=100))
        assert len(result.reports) == 1
        assert [s.index for s in result.recovered] == [0]
        assert "CorruptRowError" in result.recovered[0].reason
        assert not eng.graph.has_edge(0, 2)
        eng.verify()
