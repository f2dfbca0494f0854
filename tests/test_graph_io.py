import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    load_dimacs_metis,
    load_edge_list,
    load_npz,
    save_dimacs_metis,
    save_edge_list,
    save_npz,
)


@pytest.fixture
def sample(karate):
    return karate


class TestMetis:
    def test_round_trip(self, sample, tmp_path):
        path = tmp_path / "g.metis"
        save_dimacs_metis(sample, path)
        assert load_dimacs_metis(path) == sample

    def test_isolated_vertices_survive(self, tmp_path):
        g = CSRGraph.from_edges(5, [(0, 1)])
        path = tmp_path / "iso.metis"
        save_dimacs_metis(g, path)
        assert load_dimacs_metis(path) == g

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.metis"
        path.write_text("% comment\n2 1\n2\n1\n")
        g = load_dimacs_metis(path)
        assert g.num_edges == 1

    def test_weighted_fmt_rejected(self, tmp_path):
        path = tmp_path / "w.metis"
        path.write_text("2 1 1\n2 5\n1 5\n")
        with pytest.raises(ValueError, match="weighted"):
            load_dimacs_metis(path)

    def test_edge_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("3 2\n2\n1\n\n")
        with pytest.raises(ValueError, match="declares"):
            load_dimacs_metis(path)

    def test_out_of_range_neighbor_rejected(self, tmp_path):
        path = tmp_path / "oor.metis"
        path.write_text("2 1\n3\n1\n")
        with pytest.raises(ValueError, match="out of range"):
            load_dimacs_metis(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.metis"
        path.write_text("")
        with pytest.raises(ValueError):
            load_dimacs_metis(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.metis"
        path.write_text("3 1\n2\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_dimacs_metis(path)


class TestEdgeList:
    def test_round_trip(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(sample, path)
        assert load_edge_list(path) == sample

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "el.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, num_vertices=5)
        assert g.num_vertices == 5

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        g = load_edge_list(path, num_vertices=3)
        assert g.num_vertices == 3 and g.num_edges == 0


class TestNpz:
    def test_round_trip(self, sample, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(sample, path)
        assert load_npz(path) == sample

    def test_unsorted_rows_rejected(self, tmp_path):
        path = tmp_path / "t.npz"
        np.savez(path, row_offsets=np.array([0, 2, 4, 6]),
                 col_indices=np.array([2, 1, 0, 2, 0, 1], dtype=np.int32))
        with pytest.raises(ValueError, match="row 0"):
            load_npz(path)

    def test_round_trip_random(self, tmp_path):
        g = gen.erdos_renyi(80, 200, seed=1)
        path = tmp_path / "r.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded == g
        assert loaded.col_indices.dtype == np.int32
