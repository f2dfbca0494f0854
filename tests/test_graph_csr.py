import numpy as np
import pytest

from repro.graph.csr import CSRGraph, DIST_INF
from repro.graph import generators as gen


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_neighbors_sorted(self):
        g = CSRGraph.from_edges(5, [(0, 4), (0, 2), (0, 1)])
        assert np.array_equal(g.neighbors(0), [1, 2, 4])

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_duplicates_merged(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_duplicates_raise_when_disallowed(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [(0, 1), (1, 0)], allow_duplicates=False)

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_zero_vertices(self):
        g = CSRGraph.empty(0)
        assert g.num_vertices == 0

    def test_out_of_range_edge_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 2)])

    def test_negative_endpoint_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(-1, 0)])

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, np.array([[0, 1, 2]]))

    def test_raw_ctor_validates_offsets(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0], dtype=np.int32))

    def test_raw_ctor_validates_arc_parity(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0], dtype=np.int32))

    def test_raw_ctor_rejects_unsorted_rows(self):
        """A triangle with row 0 listed as (2, 1): has_edge's binary
        search would miss both of vertex 0's edges."""
        with pytest.raises(ValueError, match="row 0"):
            CSRGraph(np.array([0, 2, 4, 6]),
                     np.array([2, 1, 0, 2, 0, 1], dtype=np.int32))

    def test_raw_ctor_rejects_duplicate_arcs(self):
        """Edge {1, 2} stored twice."""
        with pytest.raises(ValueError, match="row 1"):
            CSRGraph(np.array([0, 1, 4, 6]),
                     np.array([1, 0, 2, 2, 1, 1], dtype=np.int32))

    def test_raw_ctor_accepts_rows_across_empty_rows(self):
        g = CSRGraph(np.array([0, 1, 1, 2]), np.array([2, 0], dtype=np.int32))
        assert g.has_edge(0, 2) and g.degree(1) == 0

    def test_from_sorted_rows_skips_only_the_row_check(self):
        rows = (np.array([0, 2, 4, 6]),
                np.array([1, 2, 0, 2, 0, 1], dtype=np.int32))
        assert CSRGraph.from_sorted_rows(*rows) == CSRGraph(*rows)
        CSRGraph.from_sorted_rows(rows[0], rows[1][[1, 0, 2, 3, 4, 5]])
        with pytest.raises(ValueError):
            CSRGraph.from_sorted_rows(np.array([0, 1]),
                                      np.array([0], dtype=np.int32))

    def test_symmetry(self, small_er):
        tails, heads = small_er.arcs()
        fwd = set(zip(tails.tolist(), heads.tolist()))
        assert all((h, t) in fwd for t, h in fwd)


#: arcs 0 -> 1 and 1 -> 2 with neither reverse: sorted, duplicate-free
#: rows and an even arc count, so only the symmetry check rejects it
ONE_WAY = (np.array([0, 1, 2, 2]), np.array([1, 2], dtype=np.int32))


class TestAsymmetricAdjacency:
    """Asymmetric adjacency is rejected wherever graph data enters; the
    executor's bottom-up passes reverse arcs."""

    def test_raw_ctor_rejects_one_way_arcs(self):
        with pytest.raises(ValueError, match=r"arc \(0, 1\) has no reverse"):
            CSRGraph(*ONE_WAY)
        # 0 -> 1 has its reverse; 0 -> 2 and 1 -> 2 do not
        with pytest.raises(ValueError, match=r"arc \(0, 2\)"):
            CSRGraph(np.array([0, 2, 4, 4]),
                     np.array([1, 2, 0, 2], dtype=np.int32))

    def test_load_npz_rejects_one_way_arcs(self, tmp_path):
        from repro.graph import io

        path = str(tmp_path / "one_way.npz")
        np.savez_compressed(path, row_offsets=ONE_WAY[0],
                            col_indices=ONE_WAY[1])
        with pytest.raises(ValueError, match="no reverse"):
            io.load_npz(path)

    def test_checkpoint_restore_rejects_one_way_arcs(self, karate):
        from repro.bc.engine import DynamicBC
        from repro.resilience.checkpoint import CHECKPOINT_VERSION, Checkpoint

        zeros = np.zeros((1, 3))
        ckpt = Checkpoint(CHECKPOINT_VERSION, "cpu", True, 0, 0.0, 0,
                          ONE_WAY[0], ONE_WAY[1], np.array([0]),
                          zeros.astype(np.int64), zeros, zeros, np.zeros(3))
        with pytest.raises(ValueError, match="no reverse"):
            ckpt.restore_engine()
        engine = DynamicBC.from_graph(karate, num_sources=4, seed=1)
        with pytest.raises(ValueError, match="no reverse"):
            ckpt.restore_into(engine)


class TestQueries:
    def test_degree_matches_neighbors(self, karate):
        for v in range(karate.num_vertices):
            assert karate.degree(v) == karate.neighbors(v).size

    def test_degrees_vector(self, karate):
        assert np.array_equal(
            karate.degrees,
            [karate.degree(v) for v in range(karate.num_vertices)],
        )

    def test_degrees_sum_is_twice_edges(self, karate):
        assert karate.degrees.sum() == 2 * karate.num_edges

    def test_has_edge(self, karate):
        assert karate.has_edge(0, 1)
        assert karate.has_edge(1, 0)
        assert not karate.has_edge(0, 0)
        assert not karate.has_edge(0, 9)

    def test_vertex_range_checked(self, karate):
        with pytest.raises(IndexError):
            karate.neighbors(34)
        with pytest.raises(IndexError):
            karate.degree(-1)

    def test_edge_list_canonical(self, karate):
        el = karate.edge_list()
        assert el.shape == (karate.num_edges, 2)
        assert np.all(el[:, 0] < el[:, 1])

    def test_arcs_count(self, karate):
        tails, heads = karate.arcs()
        assert tails.size == heads.size == 2 * karate.num_edges

    def test_frontier_arcs_match_neighbors(self, karate):
        tails, heads = karate.frontier_arcs(np.array([0, 33]))
        assert tails.size == karate.degree(0) + karate.degree(33)
        assert np.array_equal(heads[tails == 0], karate.neighbors(0))
        assert np.array_equal(heads[tails == 33], karate.neighbors(33))

    def test_frontier_arcs_empty(self, karate):
        tails, heads = karate.frontier_arcs(np.array([], dtype=np.int64))
        assert tails.size == 0 and heads.size == 0

    def test_equality(self):
        a = CSRGraph.from_edges(3, [(0, 1)])
        b = CSRGraph.from_edges(3, [(0, 1)])
        c = CSRGraph.from_edges(3, [(1, 2)])
        assert a == b
        assert a != c

    def test_repr(self, karate):
        assert "n=34" in repr(karate) and "m=78" in repr(karate)


class TestBFS:
    def test_path_distances(self, path10):
        d = path10.bfs_distances(0)
        assert np.array_equal(d, np.arange(10))

    def test_unreachable_is_inf(self, two_components):
        d = two_components.bfs_distances(0)
        assert d[4] == 4
        assert all(d[v] == DIST_INF for v in range(5, 10))

    def test_source_distance_zero(self, karate):
        assert karate.bfs_distances(7)[7] == 0

    def test_distances_match_networkx(self, karate):
        import networkx as nx

        G = nx.karate_club_graph()
        ours = karate.bfs_distances(0)
        theirs = nx.single_source_shortest_path_length(G, 0)
        for v, dist in theirs.items():
            assert ours[v] == dist

    def test_connected_components(self, two_components):
        labels = two_components.connected_components()
        assert np.array_equal(labels[:5], [0] * 5)
        assert np.array_equal(labels[5:], [5] * 5)

    def test_components_connected_graph(self, karate):
        assert np.all(karate.connected_components() == 0)


class TestNonEdges:
    def test_sampled_non_edges_are_non_edges(self, karate, rng):
        pairs = karate.undirected_non_edges(rng, 20)
        assert pairs.shape == (20, 2)
        for u, v in pairs:
            assert not karate.has_edge(int(u), int(v))
            assert u != v

    def test_distinct_pairs(self, karate, rng):
        pairs = karate.undirected_non_edges(rng, 30)
        keys = {(min(u, v), max(u, v)) for u, v in pairs.tolist()}
        assert len(keys) == 30

    def test_too_many_raises(self, rng):
        g = gen.complete_graph(4)
        with pytest.raises(ValueError):
            g.undirected_non_edges(rng, 1)
