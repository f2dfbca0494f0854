import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bc import brandes
from repro.bc.brandes import brandes_bc, single_source_state
from repro.bc.reference import brandes_reference, single_source_reference
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph, DIST_INF


class TestSingleSource:
    def test_path_center(self):
        g = gen.path_graph(5)
        d, sigma, delta, levels = single_source_state(g, 0)
        assert np.array_equal(d, [0, 1, 2, 3, 4])
        assert np.array_equal(sigma, [1, 1, 1, 1, 1])
        # dependency of v for source 0 on a path = number of nodes beyond v
        assert np.array_equal(delta[1:4], [3, 2, 1])

    def test_star_center_counts(self):
        g = gen.star_graph(5)
        d, sigma, delta, _ = single_source_state(g, 0)
        assert np.array_equal(d, [0, 1, 1, 1, 1])
        assert np.all(sigma == 1)

    def test_parallel_paths_sigma(self):
        # 0-1-3, 0-2-3: two shortest paths to 3
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        _, sigma, delta, _ = single_source_state(g, 0)
        assert sigma[3] == 2
        assert delta[1] == pytest.approx(0.5)
        assert delta[2] == pytest.approx(0.5)

    def test_unreachable(self, two_components):
        d, sigma, delta, _ = single_source_state(two_components, 0)
        assert all(d[v] == DIST_INF for v in range(5, 10))
        assert all(sigma[v] == 0 for v in range(5, 10))
        assert all(delta[v] == 0 for v in range(5, 10))

    def test_levels_partition_reachable(self, karate):
        d, _, _, levels = single_source_state(karate, 0)
        seen = np.concatenate(levels)
        assert len(seen) == len(set(seen.tolist()))
        assert len(seen) == np.count_nonzero(d != DIST_INF)
        for depth, frontier in enumerate(levels):
            assert np.all(d[frontier] == depth)

    def test_matches_reference(self, small_er):
        for s in (0, 7, 31):
            d1, s1, de1, _ = single_source_state(small_er, s)
            d2, s2, de2 = single_source_reference(small_er, s)
            assert np.array_equal(d1, d2)
            assert np.allclose(s1, s2)
            de1 = de1.copy()
            de1[s] = 0.0
            assert np.allclose(de1, de2)

    def test_bad_source_raises(self, karate):
        with pytest.raises(IndexError):
            single_source_state(karate, 34)

    def test_sigma_consistency_invariant(self, small_er):
        """sigma[w] equals the sum of sigma over predecessors."""
        d, sigma, _, _ = single_source_state(small_er, 3)
        for w in range(small_er.num_vertices):
            if d[w] in (0, DIST_INF):
                continue
            nbrs = small_er.neighbors(w)
            preds = nbrs[d[nbrs] == d[w] - 1]
            assert sigma[w] == pytest.approx(sigma[preds].sum())


class TestBrandesBC:
    def test_karate_vs_reference(self, karate):
        assert np.allclose(brandes_bc(karate), brandes_reference(karate))

    def test_karate_vs_networkx(self, karate):
        import networkx as nx

        nxbc = nx.betweenness_centrality(nx.karate_club_graph(),
                                         normalized=False)
        ours = brandes_bc(karate)
        theirs = 2 * np.array([nxbc[v] for v in range(34)])
        assert np.allclose(ours, theirs)

    def test_er_vs_networkx(self, small_er):
        import networkx as nx

        G = nx.Graph(list(map(tuple, small_er.edge_list().tolist())))
        G.add_nodes_from(range(small_er.num_vertices))
        nxbc = nx.betweenness_centrality(G, normalized=False)
        ours = brandes_bc(small_er)
        theirs = 2 * np.array([nxbc[v] for v in range(small_er.num_vertices)])
        assert np.allclose(ours, theirs)

    def test_path_scores(self):
        bc = brandes_bc(gen.path_graph(5))
        # middle of a path: (i)(n-1-i) ordered pairs each way
        assert np.allclose(bc, [0, 6, 8, 6, 0])

    def test_star_center(self):
        bc = brandes_bc(gen.star_graph(6))
        assert bc[0] == pytest.approx(5 * 4)  # all ordered leaf pairs
        assert np.all(bc[1:] == 0)

    def test_complete_graph_zero(self):
        assert np.all(brandes_bc(gen.complete_graph(6)) == 0)

    def test_subset_sources(self, karate):
        partial = brandes_bc(karate, sources=[0, 1, 2])
        full = brandes_bc(karate)
        assert partial.shape == full.shape
        assert partial.sum() < full.sum()

    def test_all_sources_equals_exact(self, karate):
        assert np.allclose(
            brandes_bc(karate, sources=range(34)), brandes_bc(karate)
        )

    def test_normalized(self, karate):
        n = karate.num_vertices
        assert np.allclose(
            brandes_bc(karate, normalized=True),
            brandes_bc(karate) / ((n - 1) * (n - 2)),
        )

    def test_disconnected(self, two_components):
        bc = brandes_bc(two_components)
        # two disjoint 5-paths: same scores per component
        assert np.allclose(bc[:5], bc[5:])

    def test_empty_graph(self):
        assert brandes_bc(CSRGraph.empty(3)).tolist() == [0, 0, 0]


def topdown_state(graph, source):
    """The plain top-down pass: every BFS level scans its frontier's
    arcs, and every dependency level gathers its vertices' arcs again
    and tests each for a predecessor.  The bit-identity reference for
    :func:`single_source_state`, which must match it in either
    direction."""
    n = graph.num_vertices
    d = np.full(n, DIST_INF, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    delta = np.zeros(n, dtype=np.float64)
    d[source] = 0
    sigma[source] = 1.0
    levels = [np.array([source], dtype=np.int32)]
    depth = 0
    while True:
        tails, heads = graph.frontier_arcs(levels[depth])
        if tails.size == 0:
            break
        undiscovered = d[heads] == DIST_INF
        new_nodes = np.unique(heads[undiscovered])
        if new_nodes.size:
            d[new_nodes] = depth + 1
        on_path = d[heads] == depth + 1
        np.add.at(sigma, heads[on_path], sigma[tails[on_path]])
        if new_nodes.size == 0:
            break
        levels.append(new_nodes.astype(np.int32))
        depth += 1
    for depth in range(len(levels) - 1, 0, -1):
        tails, heads = graph.frontier_arcs(levels[depth])
        pred = d[heads] == depth - 1
        pt, ph = tails[pred], heads[pred]
        np.add.at(delta, ph, sigma[ph] / sigma[pt] * (1.0 + delta[pt]))
    return d, sigma, delta, levels


#: bottom_up stand-ins that force one side at every level
FORCE = {
    "top-down": lambda frontier_arcs, unvisited_arcs: False,
    "bottom-up": lambda frontier_arcs, unvisited_arcs: True,
}
DIRECTIONS = ("auto", "top-down", "bottom-up")


@contextlib.contextmanager
def forced(direction):
    """Run :func:`single_source_state` with every BFS level's side
    forced (``"auto"``: the rule)."""
    with pytest.MonkeyPatch.context() as mp:
        if direction != "auto":
            mp.setattr(brandes, "bottom_up", FORCE[direction])
        yield


def assert_bit_identical(graph, source, direction):
    want = topdown_state(graph, source)
    n = graph.num_vertices
    rows = (np.full((2, n), 7, dtype=np.int64),
            np.full((2, n), np.nan), np.full((2, n), np.nan))
    out = tuple(r[1] for r in rows)
    with forced(direction):
        fresh = single_source_state(graph, source)
        into = single_source_state(graph, source, out=out)
    assert all(a is b for a, b in zip(into[:3], out))
    for got in (fresh, into):
        for name, mine, ref in zip(("d", "sigma", "delta"), got, want):
            assert mine.dtype == ref.dtype, name
            assert mine.tobytes() == ref.tobytes(), (name, source, direction)
        assert len(got[3]) == len(want[3])
        for mine, ref in zip(got[3], want[3]):
            assert mine.dtype == np.int32
            assert np.array_equal(mine, ref)
    assert np.all(rows[0][0] == 7)  # the neighbouring row is untouched


@st.composite
def graphs(draw):
    """ER unions with isolated vertices and several components, paths,
    stars and small Kronecker graphs."""
    kind = draw(st.sampled_from(("er", "path", "star", "kron")))
    seed = draw(st.integers(0, 2**16))
    if kind == "path":
        return gen.path_graph(draw(st.integers(1, 40)))
    if kind == "star":
        return gen.star_graph(draw(st.integers(2, 40)))
    if kind == "kron":
        return gen.kronecker(draw(st.integers(3, 7)),
                             draw(st.integers(2, 8)), seed=seed)
    parts, base = [], 0
    for i in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, 30))
        edges = draw(st.integers(0, size * (size - 1) // 2))
        er = gen.erdos_renyi(size, min(edges, 3 * size), seed=seed + i)
        parts.append(er.edge_list() + base)
        base += size
    isolated = draw(st.integers(0, 5))
    return CSRGraph.from_edges(base + isolated, np.concatenate(parts))


class TestBitIdentity:
    """Either side, any mix of sides: the same bits as a plain
    top-down pass, through fresh arrays and through ``out=`` rows."""

    @given(graph=graphs(), picks=st.lists(st.integers(0, 2**16),
                                          min_size=1, max_size=4))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_topdown(self, graph, picks):
        for source in sorted({p % graph.num_vertices for p in picks}):
            for direction in DIRECTIONS:
                assert_bit_identical(graph, source, direction)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_every_source_of_kron(self, kron_small, direction):
        for source in range(kron_small.num_vertices):
            assert_bit_identical(kron_small, source, direction)

    def test_both_sides_run_by_the_rule(self, kron_small):
        sides = []
        rule = brandes.bottom_up

        def spy(frontier_arcs, unvisited_arcs):
            sides.append(rule(frontier_arcs, unvisited_arcs))
            return sides[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(brandes, "bottom_up", spy)
            single_source_state(kron_small, 0)
        assert True in sides and False in sides
