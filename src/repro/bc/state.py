"""Per-source auxiliary state for dynamic BC.

The dynamic algorithm preserves, for every source vertex ``s``, the
distances ``d_s(t)``, shortest-path counts ``σ_st`` and dependencies
``δ_s(t)`` for all ``t`` (paper §II-D) — O(kn) space for k sources.
:class:`BCState` owns those arrays plus the BC scores and knows how to
build itself from scratch (Brandes) and verify itself against one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.bc.brandes import single_source_state
from repro.graph.csr import CSRGraph
from repro.utils.prng import SeedLike, default_rng, sample_without_replacement


def fill_rows(graph: CSRGraph, sources: np.ndarray, d: np.ndarray,
              sigma: np.ndarray, delta: np.ndarray,
              rows: Iterable[int]) -> None:
    """Write a fresh Brandes pass from ``sources[i]`` into row *i* of
    ``d``/``sigma``/``delta`` for every *i* in *rows* (δ zero at the
    source), straight into the rows: no transient per-source triple, so
    a build's peak memory is the retained state plus O(n + m) BFS
    scratch.  :meth:`BCState.compute` and the ``brandes`` task of every
    engine round (the worker's and the parent's share alike) run it."""
    for i in rows:
        s = int(sources[i])
        single_source_state(graph, s, out=(d[i], sigma[i], delta[i]))
        delta[i, s] = 0.0


class BCState:
    """Stored state: ``d``, ``sigma``, ``delta`` are ``(k, n)`` arrays
    (one row per source, sources strictly ascending), ``bc`` is the
    shared ``(n,)`` score vector."""

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
        if np.any(sources[1:] <= sources[:-1]):
            # every build and verify() sort the sources: row i must
            # be the i-th smallest
            raise ValueError("sources must be strictly ascending")
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
        state = cls.empty(sources, graph.num_vertices)
        fill_rows(graph, state.sources, state.d, state.sigma, state.delta,
                  range(state.num_sources))
        state.rebuild_bc()
        return state

    @classmethod
    def empty(cls, sources: Sequence[int], n: int) -> "BCState":
        """A state over *n* vertices for *sources* (sorted), its rows
        allocated but not written (``np.empty``: a build fills every
        row) and its bc zero.  The list is checked before any Brandes
        pass runs: :class:`IndexError` on a source outside ``0 .. n-1``,
        :class:`ValueError` on a repeated one."""
        src = np.asarray(sorted(int(s) for s in sources), dtype=np.int64)
        bad = src[(src < 0) | (src >= n)]
        if bad.size:
            raise IndexError(f"source {int(bad[0])} out of range")
        if np.any(src[1:] == src[:-1]):
            raise ValueError("sources must be distinct")
        k = src.size
        return cls(src, np.empty((k, n), dtype=np.int64),
                   np.empty((k, n), dtype=np.float64),
                   np.empty((k, n), dtype=np.float64),
                   np.zeros(n, dtype=np.float64))

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
