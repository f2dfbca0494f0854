import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.bc.accuracy import kendall_tau_topk, ranking_metrics, top_k_overlap
from repro.bc.brandes import brandes_bc
from repro.graph import generators as gen


class TestTopKOverlap:
    def test_identical(self):
        x = np.array([5.0, 3.0, 1.0, 4.0])
        assert top_k_overlap(x, x, k=2) == 1.0

    def test_disjoint(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        assert top_k_overlap(a, b, k=1) == 0.0

    def test_k_clamped(self):
        x = np.arange(3.0)
        assert top_k_overlap(x, x, k=100) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            top_k_overlap(np.zeros(3), np.zeros(4))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            top_k_overlap(np.zeros(3), np.zeros(3), k=0)


class TestKendall:
    def test_perfect(self):
        x = np.array([4.0, 2.0, 9.0, 1.0])
        assert kendall_tau_topk(x, x) == pytest.approx(1.0)

    def test_reversed(self):
        x = np.arange(10.0)
        assert kendall_tau_topk(-x, x) == pytest.approx(-1.0)

    def test_topk_restriction(self):
        exact = np.array([10.0, 9.0, 8.0, 0.1, 0.2])
        approx = np.array([10.0, 9.0, 8.0, 0.2, 0.1])
        assert kendall_tau_topk(approx, exact, k=3) == pytest.approx(1.0)

    def test_constant_exact(self):
        assert kendall_tau_topk(np.arange(4.0), np.ones(4)) == 1.0


class TestRankingMetrics:
    def test_bundle_keys(self):
        m = ranking_metrics(np.arange(10.0), np.arange(10.0))
        assert set(m) == {"top_k_overlap", "kendall_tau_topk",
                          "kendall_tau_all", "max_rel_error"}
        assert m["max_rel_error"] == 0.0

    def test_approximation_quality_improves_with_k(self, rng):
        """The §II-B claim: more sources -> better ranking agreement."""
        g = gen.watts_strogatz(150, k=6, p=0.1, seed=3)
        exact = brandes_bc(g)
        n = g.num_vertices
        overlaps = []
        for k in (5, 40, 150):
            sources = rng.choice(n, size=k, replace=False)
            approx = brandes_bc(g, sources=sources) * (n / k)
            overlaps.append(top_k_overlap(approx, exact, k=10))
        assert overlaps[-1] >= overlaps[0]
        assert overlaps[-1] == 1.0  # all sources == exact


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_no_scipy(module):
    """SciPy is imported only where a metric needs it: a fresh
    interpreter (and every worker forked from one) loads none of it."""
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
