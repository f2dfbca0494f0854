"""One round path: every row operation of :class:`DynamicBC` runs as a
round of a worker task (``DynamicBC._round``).

A serial engine runs each round whole in the parent, as one share,
through the handler a worker would run (``repro.bc.engine.run_task``);
a pooled engine runs share 0 of each round the same way, over the
round's own snapshot and state rows.  A spy on that binding sees every
round the parent computes.
"""

import numpy as np
import pytest

import repro.bc.engine as engine_mod
from repro.bc.cases import Case, classify_insertions_batch
from repro.bc.engine import DynamicBC, split_round
from repro.graph import generators as gen
from repro.parallel import shm_available
from repro.parallel.worker import run_task
from repro.resilience.guards import DETECT, ESCALATE, STRUCTURAL, Guard


@pytest.fixture
def rounds(monkeypatch):
    """Spy on the parent's task runs: one ``(kind, items, views)``
    record per call, the task run as it would have been."""
    calls = []

    def spy(views, kind, common, payload):
        calls.append((kind, list(payload["items"]), views))
        return run_task(views, kind, common, payload)

    monkeypatch.setattr(engine_mod, "run_task", spy)
    return calls


@pytest.fixture(scope="module")
def er_graph():
    return gen.erdos_renyi(60, 140, seed=7)


def active_insertion(engine):
    """A non-edge whose insertion leaves at least two sources active."""
    n = engine.graph.num_vertices
    for u in range(n):
        for v in range(u + 1, n):
            if engine.graph.has_edge(u, v):
                continue
            cases, _, _ = classify_insertions_batch(engine.state.d, u, v)
            if np.count_nonzero(cases != int(Case.SAME_LEVEL)) >= 2:
                return u, v
    raise AssertionError("no active insertion found")


def taken(rounds):
    """The ``(kind, items)`` of the rounds recorded so far, which it
    clears."""
    out = [(kind, items) for kind, items, _ in rounds]
    rounds.clear()
    return out


def test_serial_engine_runs_every_row_operation_as_one_round(er_graph,
                                                             rounds):
    engine = DynamicBC.from_graph(er_graph, num_sources=8, seed=3)
    every_row = list(range(engine.state.num_sources))
    assert taken(rounds) == [("brandes", every_row)]

    u, v = active_insertion(engine)
    report = engine.insert_edge(u, v)
    active = np.flatnonzero(report.cases != int(Case.SAME_LEVEL)).tolist()
    ((kind, items),) = taken(rounds)
    assert kind == "update"
    assert [item[0] for item in items] == active

    assert engine.check_rows([5, 1]) == []
    engine.spot_check(num_sources=3, seed=1)
    check, spot = taken(rounds)
    assert check == ("check", [5, 1])
    assert spot[0] == "check" and len(spot[1]) == 3

    engine.repair_source(2)
    engine.recompute()
    assert taken(rounds) == [("rebuild", [2]), ("brandes", every_row)]
    engine.verify()


#: the pool needs POSIX shared memory
POOLED = pytest.mark.skipif(not shm_available(),
                            reason="no POSIX shared memory")


@POOLED
def test_parent_share_reads_the_rounds_own_snapshot(er_graph, rounds):
    with DynamicBC.from_graph(er_graph, num_sources=8, seed=3,
                              workers=2) as engine:
        assert engine.health_report()["pool_backend"] == "processes"
        # the build's snapshot is the graph it was given
        kind, items, views = rounds[0]
        assert (kind, items) == ("brandes", [0, 1, 2, 3])
        assert views[0] is er_graph

        u, v = active_insertion(engine)
        report = engine.insert_edge(u, v)
        active = np.flatnonzero(report.cases != int(Case.SAME_LEVEL)).tolist()
        kind, items, views = rounds[-1]
        assert kind == "update"
        assert [item[0] for item in items] == split_round(active, 2)[0]
        assert views[0] is engine.graph.snapshot()
        st = engine.state
        for view, rows in zip(views[1:], (st.sources, st.d, st.sigma,
                                          st.delta)):
            assert view is rows


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=POOLED)])
def test_recompute_heals_a_graph_grown_behind_the_state(er_graph, workers):
    """The guard's structural escalation rebuilds rows of the graph's
    width, serial or pooled."""
    with DynamicBC.from_graph(er_graph, num_sources=8, seed=3,
                              workers=workers) as engine:
        engine.graph.add_vertex()
        events = Guard(engine).check()
        assert [(e.action, e.kind) for e in events] == [
            (DETECT, STRUCTURAL), (ESCALATE, STRUCTURAL)]
        assert engine.state.d.shape == (8, er_graph.num_vertices + 1)
        engine.verify()
