"""Self-healing guards: detection, classification (row drift vs
structural), in-place repair, budgeted escalation, and the bc-fold
invariant check."""

import numpy as np
import pytest

from repro.bc.engine import DynamicBC
from repro.graph.stream import EdgeStream, replay
from repro.resilience import FaultInjector, Guard, GuardPolicy
from repro.resilience.guards import (
    BC_DRIFT,
    DETECT,
    ESCALATE,
    REPAIR,
    ROW_DRIFT,
    STRUCTURAL,
    structural_issues,
)


def make_engine(graph, **kwargs):
    return DynamicBC.from_graph(graph, num_sources=8, seed=1, **kwargs)


ALL_ROWS = GuardPolicy(check_every=1, num_check_sources=8, repair_budget=8,
                       seed=0)


class TestPolicy:
    def test_defaults_valid(self):
        GuardPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"check_every": -1},
        {"num_check_sources": 0},
        {"repair_budget": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuardPolicy(**kwargs)


class TestStructuralIssues:
    def test_healthy_state_clean(self, karate):
        assert structural_issues(make_engine(karate)) == []

    def test_nan_sigma_detected(self, karate):
        eng = make_engine(karate)
        eng.state.sigma[2, 5] = np.nan
        assert any("non-finite sigma" in s for s in structural_issues(eng))

    def test_negative_sigma_detected(self, karate):
        eng = make_engine(karate)
        eng.state.sigma[2, 5] = -3.0
        assert any("negative sigma" in s for s in structural_issues(eng))

    def test_vertex_count_mismatch_detected(self, karate):
        eng = make_engine(karate)
        eng.graph.add_vertex()  # grow the graph behind the state's back
        assert any("vertices" in s for s in structural_issues(eng))


class TestGuardCheck:
    def test_detects_and_repairs_row_drift(self, karate):
        eng = make_engine(karate)
        i, _ = FaultInjector(5).corrupt_row(eng)
        guard = Guard(eng, ALL_ROWS)
        events = guard.check(event_index=7)
        actions = [(e.action, e.kind) for e in events]
        assert (DETECT, ROW_DRIFT) in actions
        assert (REPAIR, ROW_DRIFT) in actions
        repaired = [e for e in events if e.action == REPAIR][0]
        assert repaired.source_index == i
        assert repaired.event_index == 7
        eng.verify()

    def test_structural_corruption_escalates(self, karate):
        eng = make_engine(karate)
        FaultInjector(5).corrupt_structural(eng)
        guard = Guard(eng, ALL_ROWS)
        events = guard.check()
        assert any(e.action == DETECT and e.kind == STRUCTURAL for e in events)
        assert any(e.action == ESCALATE for e in events)
        eng.verify()  # full recompute restored everything

    def test_budget_exhaustion_escalates(self, karate):
        eng = make_engine(karate)
        FaultInjector(5).corrupt_row(eng)
        policy = GuardPolicy(check_every=1, num_check_sources=8,
                             repair_budget=0, seed=0)
        guard = Guard(eng, policy)
        events = guard.check()
        assert not any(e.action == REPAIR for e in events)
        assert any(e.action == ESCALATE and e.kind == ROW_DRIFT for e in events)
        eng.verify()

    def test_bc_drift_detected_and_refolded(self, karate):
        eng = make_engine(karate)
        expected = eng.bc_scores.copy()
        eng.state.bc[3] += 0.75  # rows clean, fold invariant broken
        guard = Guard(eng, ALL_ROWS)
        events = guard.check()
        assert any(e.action == DETECT and e.kind == BC_DRIFT for e in events)
        assert any(e.action == REPAIR and e.kind == BC_DRIFT for e in events)
        assert np.allclose(eng.bc_scores, expected, atol=1e-12)
        eng.verify()

    def test_healthy_state_records_nothing(self, karate):
        eng = make_engine(karate)
        guard = Guard(eng, ALL_ROWS)
        assert guard.check() == []
        assert guard.repairs_used == 0


class TestGuardedReplay:
    def test_guard_heals_mid_stream_corruption(self, karate):
        # Delta corruption can never vanish silently: either the row
        # still drifts (row repair) or an update laundered it into bc
        # (fold repair).  Either way the guard must act and the final
        # state must verify.
        eng = make_engine(karate)
        stream = EdgeStream.poisson_growth(karate, 12, seed=3)
        first, second = EdgeStream(stream.events[:4]), EdgeStream(stream.events[4:])
        replay(eng, first, guard=ALL_ROWS)
        FaultInjector(9).corrupt_row(eng, kind="delta")
        result = replay(eng, second, guard=ALL_ROWS)
        assert any(e.action in (REPAIR, ESCALATE) for e in result.guard_events)
        eng.verify()

    def test_cadence_respected(self, karate):
        eng = make_engine(karate)
        stream = EdgeStream.poisson_growth(karate, 9, seed=3)
        policy = GuardPolicy(check_every=4, num_check_sources=8, seed=0)
        result = replay(eng, stream, guard=policy)
        # checks ran after events 3 and 7; healthy state -> no events
        assert result.guard_events == []
        eng.verify()

    def test_unguarded_replay_has_no_guard_events(self, karate):
        eng = make_engine(karate)
        stream = EdgeStream.poisson_growth(karate, 5, seed=3)
        result = replay(eng, stream)
        assert result.guard_events == []

    def test_persistent_update_failure_skipped_after_retry(self, karate):
        eng = make_engine(karate)

        def always_fail(i):
            raise RuntimeError("permanent kernel failure")

        eng._before_commit = always_fail
        stream = EdgeStream.poisson_growth(karate, 6, seed=3)
        result = replay(eng, stream, guard=ALL_ROWS)
        failed = [s for s in result.skipped if s.reason.startswith("update-error")]
        # every failed event was rolled back: its edge is absent
        for s in failed:
            assert not eng.graph.has_edge(s.u, s.v)
        # events whose sources were all Case 1 never reach the seam
        assert len(result.reports) + len(failed) == 6

    def test_guard_repairs_are_deterministic(self, karate):
        def run():
            eng = make_engine(karate)
            stream = EdgeStream.poisson_growth(karate, 10, seed=3)
            FaultInjector(9).corrupt_row(eng, kind="delta")
            res = replay(eng, stream, guard=ALL_ROWS)
            return [(e.event_index, e.action, e.kind, e.source_index)
                    for e in res.guard_events], eng.bc_scores.copy()

        events_a, bc_a = run()
        events_b, bc_b = run()
        assert events_a == events_b
        assert np.array_equal(bc_a, bc_b)
