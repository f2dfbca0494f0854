"""Per-source auxiliary state for dynamic BC.

The dynamic algorithm preserves, for every source vertex ``s``, the
distances ``d_s(t)``, shortest-path counts ``σ_st`` and dependencies
``δ_s(t)`` for all ``t`` (paper §II-D) — O(kn) space for k sources.
:class:`BCState` owns those arrays plus the BC scores and knows how to
build itself from scratch (Brandes) and verify itself against one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bc.brandes import single_source_state
from repro.graph.csr import CSRGraph
from repro.utils.prng import SeedLike, default_rng, sample_without_replacement


class BCState:
    """Stored state: ``d``, ``sigma``, ``delta`` are ``(k, n)`` arrays
    (one row per source), ``bc`` is the shared ``(n,)`` score vector."""

    def __init__(
        self,
        sources: np.ndarray,
        d: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
        bc: np.ndarray,
    ) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        k = sources.size
        n = bc.size
        for name, arr, dtype in (
            ("d", d, np.int64),
            ("sigma", sigma, np.float64),
            ("delta", delta, np.float64),
        ):
            if arr.shape != (k, n):
                raise ValueError(f"{name} must have shape ({k}, {n}), got {arr.shape}")
            if arr.dtype != dtype:
                raise ValueError(f"{name} must be {dtype}, got {arr.dtype}")
        if np.unique(sources).size != k:
            raise ValueError("sources must be distinct")
        self.sources = sources
        # C order: the update executor addresses the rows through flat
        # views (no copy for arrays already in C order)
        self.d = np.ascontiguousarray(d)
        self.sigma = np.ascontiguousarray(sigma)
        self.delta = np.ascontiguousarray(delta)
        self.bc = bc

    # ------------------------------------------------------------------
    @property
    def num_sources(self) -> int:
        return int(self.sources.size)

    @property
    def num_vertices(self) -> int:
        return int(self.bc.size)

    @classmethod
    def compute(cls, graph: CSRGraph, sources: Sequence[int]) -> "BCState":
        """Build the state from scratch with Brandes (the "static
        recomputation" the dynamic algorithm avoids)."""
        sources = np.asarray(sorted(int(s) for s in sources), dtype=np.int64)
        n = graph.num_vertices
        k = sources.size
        d = np.empty((k, n), dtype=np.int64)
        sigma = np.empty((k, n), dtype=np.float64)
        delta = np.empty((k, n), dtype=np.float64)
        bc = np.zeros(n, dtype=np.float64)
        for i, s in enumerate(sources):
            # Brandes writes straight into row i (no transient
            # per-source triple), so peak memory during the build is
            # the retained state plus O(n + m) BFS scratch.
            single_source_state(graph, int(s), out=(d[i], sigma[i], delta[i]))
            delta[i, int(s)] = 0.0
            bc += delta[i]
        return cls(sources, d, sigma, delta, bc)

    @classmethod
    def compute_with_random_sources(
        cls, graph: CSRGraph, num_sources: int, seed: SeedLike = None
    ) -> "BCState":
        """Sample ``num_sources`` distinct sources uniformly (the
        SSCA-style approximation protocol of §IV) and compute."""
        rng = default_rng(seed)
        k = min(num_sources, graph.num_vertices)
        sources = sample_without_replacement(rng, graph.num_vertices, k)
        return cls.compute(graph, sources)

    # ------------------------------------------------------------------
    def copy(self) -> "BCState":
        """Deep copy (sources, state matrices, and scores)."""
        return BCState(
            self.sources.copy(),
            self.d.copy(),
            self.sigma.copy(),
            self.delta.copy(),
            self.bc.copy(),
        )

    def rebuild_bc(self) -> None:
        """Restore the ``bc = Σ_i delta_i`` invariant by left-folding
        the stored dependency rows in source order — exactly the
        accumulation :meth:`compute` performs, so a state with clean
        rows becomes bit-identical to a from-scratch build.  Used by
        the resilience guards after repairing corrupted rows."""
        self.bc[:] = 0.0
        for i in range(self.num_sources):
            self.bc += self.delta[i]

    def max_abs_error(self, other: "BCState") -> float:
        """Largest state discrepancy vs *other* (same sources assumed);
        used by the self-check machinery and the test-suite oracles."""
        if not np.array_equal(self.sources, other.sources):
            raise ValueError("states track different source sets")
        return float(
            max(
                np.abs(self.d - other.d).max(initial=0),
                np.abs(self.sigma - other.sigma).max(initial=0.0),
                np.abs(self.delta - other.delta).max(initial=0.0),
                np.abs(self.bc - other.bc).max(initial=0.0),
            )
        )

    def verify_against(self, graph: CSRGraph, atol: float = 1e-6) -> None:
        """Raise :class:`AssertionError` unless this state matches a
        from-scratch recomputation on *graph* (paper §IV: "we compare
        the results of the baseline and our algorithms to ensure that
        both yield the same results")."""
        fresh = BCState.compute(graph, self.sources)
        if not np.array_equal(self.d, fresh.d):
            bad = np.argwhere(self.d != fresh.d)
            raise AssertionError(f"distance mismatch at (source_idx, vertex) {bad[:5]}")
        for name in ("sigma", "delta", "bc"):
            mine, ref = getattr(self, name), getattr(fresh, name)
            if not np.allclose(mine, ref, atol=atol, rtol=1e-9):
                idx = np.argwhere(~np.isclose(mine, ref, atol=atol, rtol=1e-9))
                raise AssertionError(f"{name} mismatch at {idx[:5]}")

    def __repr__(self) -> str:
        return f"BCState(k={self.num_sources}, n={self.num_vertices})"
