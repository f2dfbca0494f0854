import numpy as np
import pytest

from repro.bc import brandes, engine, state
from repro.bc.brandes import brandes_bc
from repro.bc.engine import DynamicBC
from repro.bc.state import BCState
from repro.graph import generators as gen


class TestCompute:
    def test_shapes(self, karate):
        st = BCState.compute(karate, [0, 5, 9])
        assert st.num_sources == 3
        assert st.num_vertices == 34
        assert st.d.shape == st.sigma.shape == st.delta.shape == (3, 34)

    def test_bc_matches_brandes_subset(self, karate):
        sources = [0, 5, 9]
        st = BCState.compute(karate, sources)
        assert np.allclose(st.bc, brandes_bc(karate, sources=sources))

    def test_sources_sorted_and_deduped_input_order(self, karate):
        st = BCState.compute(karate, [9, 0, 5])
        assert np.array_equal(st.sources, [0, 5, 9])

    def test_delta_zero_at_source(self, karate):
        st = BCState.compute(karate, [3, 8])
        for i, s in enumerate(st.sources):
            assert st.delta[i, s] == 0.0

    def test_random_sources_deterministic(self, karate):
        a = BCState.compute_with_random_sources(karate, 5, seed=1)
        b = BCState.compute_with_random_sources(karate, 5, seed=1)
        assert np.array_equal(a.sources, b.sources)

    def test_random_sources_clamped(self, karate):
        st = BCState.compute_with_random_sources(karate, 100, seed=1)
        assert st.num_sources == 34


class TestValidation:
    def test_shape_mismatch_rejected(self, karate):
        st = BCState.compute(karate, [0, 1])
        with pytest.raises(ValueError):
            BCState(st.sources, st.d[:1], st.sigma, st.delta, st.bc)

    def test_dtype_rejected(self, karate):
        st = BCState.compute(karate, [0, 1])
        with pytest.raises(ValueError):
            BCState(st.sources, st.d.astype(np.int32), st.sigma, st.delta, st.bc)

    def test_duplicate_sources_rejected(self, karate):
        st = BCState.compute(karate, [0, 1])
        bad = np.array([0, 0])
        with pytest.raises(ValueError):
            BCState(bad, st.d, st.sigma, st.delta, st.bc)

    def test_unsorted_sources_rejected(self):
        """Rows out of source order would read as corrupt to verify()
        and be reordered by a rebuild: the state refuses them."""
        graph = gen.erdos_renyi(60, 140, seed=7)
        st = BCState.compute(graph, [5, 40, 17])
        order = [2, 0, 1]  # sources 40, 5, 17
        with pytest.raises(ValueError, match="strictly ascending"):
            BCState(st.sources[order], st.d[order], st.sigma[order],
                    st.delta[order], st.bc)


class TestSourceListCheckedFirst:
    """A bad source list is rejected before the first Brandes pass,
    serially and on a pooled build, with the same exception types."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return brandes.single_source_state(*args, **kwargs)

        # every pass goes through one of these two bindings, pooled
        # builds included (both shares fill rows with state.fill_rows)
        for module in (state, engine):
            monkeypatch.setattr(module, "single_source_state", spy)
        return calls

    @pytest.fixture(scope="class")
    def kron(self):
        return gen.kronecker(11, seed=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("head,error", [
        ([5, 9, 5], ValueError),
        ([5, 9, 2048], IndexError),
        ([-1, 9], IndexError),
        ([5, 5, 2048], IndexError),
    ])
    def test_no_pass_runs(self, kron, passes, workers, head, error):
        sources = head + list(range(10, 200))
        with pytest.raises(error):
            DynamicBC.from_graph(kron, sources=sources, workers=workers)
        with pytest.raises(error):
            BCState.compute(kron, sources)
        assert passes == []


class TestVerify:
    def test_fresh_state_verifies(self, karate):
        BCState.compute(karate, [0, 1, 2]).verify_against(karate)

    def test_corrupted_distance_detected(self, karate):
        st = BCState.compute(karate, [0])
        st.d[0, 5] += 1
        with pytest.raises(AssertionError, match="distance"):
            st.verify_against(karate)

    def test_corrupted_sigma_detected(self, karate):
        st = BCState.compute(karate, [0])
        st.sigma[0, 5] += 1
        with pytest.raises(AssertionError, match="sigma"):
            st.verify_against(karate)

    def test_corrupted_bc_detected(self, karate):
        st = BCState.compute(karate, [0])
        st.bc[5] += 0.5
        with pytest.raises(AssertionError, match="bc"):
            st.verify_against(karate)

    def test_wrong_graph_detected(self, karate):
        st = BCState.compute(karate, [0, 1])
        other = gen.erdos_renyi(34, 78, seed=1)
        with pytest.raises(AssertionError):
            st.verify_against(other)


class TestCopyAndDiff:
    def test_copy_is_deep(self, karate):
        st = BCState.compute(karate, [0])
        cp = st.copy()
        cp.bc[0] += 1
        assert st.bc[0] != cp.bc[0]

    def test_max_abs_error_zero_for_copy(self, karate):
        st = BCState.compute(karate, [0, 1])
        assert st.max_abs_error(st.copy()) == 0.0

    def test_max_abs_error_detects(self, karate):
        st = BCState.compute(karate, [0, 1])
        cp = st.copy()
        cp.delta[1, 3] += 2.5
        assert st.max_abs_error(cp) == pytest.approx(2.5)

    def test_different_sources_rejected(self, karate):
        a = BCState.compute(karate, [0, 1])
        b = BCState.compute(karate, [0, 2])
        with pytest.raises(ValueError):
            a.max_abs_error(b)
