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

    def test_non_transactional_engine_propagates_raw_fault(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1,
                                   transactional=False)
        FaultInjector(3).arm_update_fault(eng, after_sources=0)
        with pytest.raises(FaultInjected):
            eng.insert_edge(0, 9)

    def test_looped_path_rolls_back_too(self, karate):
        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1,
                                   vectorized=False)
        before = snapshot_state(eng)
        FaultInjector(3).arm_update_fault(eng, after_sources=2)
        with pytest.raises(UpdateError):
            eng.insert_edge(0, 9)
        assert_state_equal(eng, before)
        eng.verify()

    def test_transactional_reports_match_non_transactional(self, karate):
        a = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        b = DynamicBC.from_graph(karate, num_sources=8, seed=1,
                                 transactional=False)
        from repro.resilience.chaos import reports_identical

        assert reports_identical(a.insert_edge(0, 9), b.insert_edge(0, 9))
        assert reports_identical(a.delete_edge(0, 9), b.delete_edge(0, 9))
        assert np.array_equal(a.bc_scores, b.bc_scores)


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
        from repro.resilience.transactions import UpdateTransaction

        eng = DynamicBC.from_graph(karate, num_sources=8, seed=1)
        before = snapshot_state(eng)
        eng.graph.insert_edge(0, 9)
        txn = UpdateTransaction(eng, 0, 9, "insert")
        txn.save_rows(np.array([1, 4, 6]))
        txn.save_row(4)  # already journaled in bulk: a no-op
        txn.save_row(2)
        for i in (1, 2, 4, 6):
            eng.state.sigma[i] += 1.0
            eng.state.d[i, 3] = 99
        txn.restore_row(4)
        assert np.array_equal(eng.state.sigma[4], before[2][4])
        txn.rollback()
        assert_state_equal(eng, before)


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
