"""Approximation-quality metrics for source-sampled BC.

The paper approximates BC with k = 256 random sources (§II-B, [11]) and
notes that "the relative ranking of the vertices tends to be more
informative than the magnitude of their scores" (§II-A).  These metrics
quantify that: top-k overlap, Kendall's tau on the top ranks, and error
statistics — used by the k-sweep ablation bench.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def top_k_overlap(approx: np.ndarray, exact: np.ndarray, k: int = 10) -> float:
    """Fraction of the exact top-k vertices recovered by the
    approximation's top-k (1.0 = perfect)."""
    if approx.shape != exact.shape:
        raise ValueError("score vectors must have the same shape")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, approx.size)
    top_a = set(np.argsort(approx)[::-1][:k].tolist())
    top_e = set(np.argsort(exact)[::-1][:k].tolist())
    return len(top_a & top_e) / k


def kendall_tau_topk(approx: np.ndarray, exact: np.ndarray, k: int = 0) -> float:
    """Kendall rank correlation between the two score vectors,
    restricted to the exact top-k vertices (k=0 means all)."""
    if approx.shape != exact.shape:
        raise ValueError("score vectors must have the same shape")
    if k:
        idx = np.argsort(exact)[::-1][: min(k, exact.size)]
        approx, exact = approx[idx], exact[idx]
    if approx.size < 2 or np.allclose(exact, exact[0]):
        return 1.0
    from scipy import stats  # deferred: importing scipy.stats is heavy

    tau, _ = stats.kendalltau(approx, exact)
    return float(tau) if tau == tau else 0.0  # NaN -> 0


def ranking_metrics(
    approx: np.ndarray, exact: np.ndarray, k: int = 10
) -> Dict[str, float]:
    """Bundle of comparison metrics.

    The approximation is rescaled by ``n / k_sources`` before absolute
    errors are taken only if the caller already did so; this function
    compares the vectors as given.
    """
    denom = np.abs(exact).max()
    rel_err = (
        float(np.abs(approx - exact).max() / denom) if denom > 0 else 0.0
    )
    return {
        "top_k_overlap": top_k_overlap(approx, exact, k),
        "kendall_tau_topk": kendall_tau_topk(approx, exact, max(k, 2)),
        "kendall_tau_all": kendall_tau_topk(approx, exact, 0),
        "max_rel_error": rel_err,
    }
