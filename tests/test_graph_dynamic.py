import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph import generators as gen


class TestConstruction:
    def test_from_csr_round_trip(self, karate):
        dyn = DynamicGraph.from_csr(karate)
        assert dyn.snapshot() == karate

    def test_from_edges(self):
        dyn = DynamicGraph.from_edges(4, [(0, 1), (2, 3)])
        assert dyn.num_edges == 2

    def test_empty(self):
        dyn = DynamicGraph(3)
        assert dyn.num_edges == 0
        assert dyn.snapshot().num_vertices == 3

    def test_negative_vertices_raises(self):
        with pytest.raises(ValueError):
            DynamicGraph(-1)


class TestInsertion:
    def test_insert_new_edge(self, dyn_karate):
        before = dyn_karate.num_edges
        assert dyn_karate.insert_edge(0, 9)
        assert dyn_karate.num_edges == before + 1
        assert dyn_karate.has_edge(0, 9) and dyn_karate.has_edge(9, 0)

    def test_insert_existing_returns_false(self, dyn_karate):
        assert not dyn_karate.insert_edge(0, 1)

    def test_insert_self_loop_returns_false(self, dyn_karate):
        assert not dyn_karate.insert_edge(5, 5)

    def test_snapshot_invalidated(self, dyn_karate):
        snap1 = dyn_karate.snapshot()
        dyn_karate.insert_edge(0, 9)
        snap2 = dyn_karate.snapshot()
        assert snap1 != snap2
        assert snap2.has_edge(0, 9)

    def test_snapshot_cached(self, dyn_karate):
        assert dyn_karate.snapshot() is dyn_karate.snapshot()

    @pytest.mark.parametrize("u, v", [(1, 0), (0, 1), (3, 1), (1, 3)])
    def test_patched_snapshot_when_rows_meet(self, u, v):
        """Both arcs land where one row ends and the next begins (the
        rows between are empty); the patched CSR must still list each
        arc in its own row."""
        dyn = DynamicGraph.from_csr(
            CSRGraph.from_edges(5, [(3, 4)] if u == 3 or v == 3 else [(1, 4)])
        )
        dyn.snapshot()  # cache it, so the insertion patches it
        dyn.insert_edge(u, v)
        rebuilt = CSRGraph.from_edges(5, dyn.snapshot().edge_list())
        assert dyn.snapshot() == rebuilt
        assert dyn.snapshot().has_edge(u, v)

    def test_capacity_doubling(self):
        dyn = DynamicGraph(50)
        for v in range(1, 50):
            dyn.insert_edge(0, v)
        assert dyn.degree(0) == 49
        assert sorted(dyn.neighbors(0).tolist()) == list(range(1, 50))

    def test_out_of_range_raises(self, dyn_karate):
        with pytest.raises(IndexError):
            dyn_karate.insert_edge(0, 34)


class TestDeletion:
    def test_delete_existing(self, dyn_karate):
        before = dyn_karate.num_edges
        assert dyn_karate.delete_edge(0, 1)
        assert dyn_karate.num_edges == before - 1
        assert not dyn_karate.has_edge(0, 1)

    def test_delete_missing_returns_false(self, dyn_karate):
        assert not dyn_karate.delete_edge(0, 9)

    def test_insert_delete_round_trip(self, karate):
        dyn = DynamicGraph.from_csr(karate)
        dyn.insert_edge(0, 9)
        dyn.delete_edge(0, 9)
        assert dyn.snapshot() == karate

    def test_delete_then_reinsert(self, karate):
        dyn = DynamicGraph.from_csr(karate)
        dyn.delete_edge(0, 1)
        dyn.insert_edge(0, 1)
        assert dyn.snapshot() == karate


class TestRemoveRandomEdges:
    def test_count_and_membership(self, dyn_karate, rng):
        before = dyn_karate.snapshot().edge_list()
        removed = dyn_karate.remove_random_edges(rng, 10)
        assert removed.shape == (10, 2)
        assert dyn_karate.num_edges == 68
        before_set = {tuple(e) for e in before.tolist()}
        for u, v in removed.tolist():
            assert (min(u, v), max(u, v)) in before_set
            assert not dyn_karate.has_edge(u, v)

    def test_reinsertion_restores_graph(self, karate, rng):
        dyn = DynamicGraph.from_csr(karate)
        removed = dyn.remove_random_edges(rng, 20)
        for u, v in removed:
            dyn.insert_edge(int(u), int(v))
        assert dyn.snapshot() == karate

    def test_too_many_raises(self, dyn_karate, rng):
        with pytest.raises(ValueError):
            dyn_karate.remove_random_edges(rng, 79)

    def test_negative_raises(self, dyn_karate, rng):
        with pytest.raises(ValueError):
            dyn_karate.remove_random_edges(rng, -1)


class TestAddVertex:
    def test_new_vertex_is_isolated(self, dyn_karate):
        v = dyn_karate.add_vertex()
        assert v == 34
        assert dyn_karate.degree(v) == 0
        assert dyn_karate.num_vertices == 35

    def test_new_vertex_can_connect(self, dyn_karate):
        v = dyn_karate.add_vertex()
        assert dyn_karate.insert_edge(v, 0)
        assert dyn_karate.has_edge(0, v)


class TestConsistencyUnderChurn:
    def test_random_churn_matches_rebuilt_csr(self, rng):
        base = gen.erdos_renyi(30, 60, seed=3)
        dyn = DynamicGraph.from_csr(base)
        edges = set(map(tuple, base.edge_list().tolist()))
        for _ in range(200):
            u, v = int(rng.integers(0, 30)), int(rng.integers(0, 30))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in edges:
                assert dyn.delete_edge(u, v)
                edges.remove(key)
            else:
                assert dyn.insert_edge(u, v)
                edges.add(key)
        rebuilt = CSRGraph.from_edges(30, sorted(edges))
        assert dyn.snapshot() == rebuilt
