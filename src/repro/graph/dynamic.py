"""Growable adjacency structure for streaming graph updates.

Inspired by STINGER (Ediger et al., HPEC 2012): each vertex owns a
capacity-doubling edge array, so insertions are O(1) amortized and
deletions O(degree).  The betweenness-centrality engines consume
immutable :class:`~repro.graph.csr.CSRGraph` snapshots, which this class
produces lazily and caches until the next mutation.

The experiment protocol of the paper ("100 edges are chosen at random to
be removed from the graph ... then reinserted one at a time") maps to
:meth:`remove_random_edges` followed by repeated :meth:`insert_edge`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

_INITIAL_CAPACITY = 4


class DynamicGraph:
    """Mutable undirected simple graph with CSR snapshotting."""

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self.num_vertices = int(num_vertices)
        self.num_edges = 0
        self._adj: List[np.ndarray] = [
            np.empty(_INITIAL_CAPACITY, dtype=np.int32) for _ in range(num_vertices)
        ]
        self._deg = np.zeros(num_vertices, dtype=np.int64)
        self._snapshot: Optional[CSRGraph] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "DynamicGraph":
        """Copy an immutable graph into mutable form."""
        dyn = cls(graph.num_vertices)
        degrees = graph.degrees
        for v in range(graph.num_vertices):
            deg = int(degrees[v])
            cap = max(_INITIAL_CAPACITY, deg)
            arr = np.empty(cap, dtype=np.int32)
            arr[:deg] = graph.neighbors(v)
            dyn._adj[v] = arr
        dyn._deg = degrees.copy()
        dyn.num_edges = graph.num_edges
        dyn._snapshot = graph
        return dyn

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Tuple[int, int]]) -> "DynamicGraph":
        return cls.from_csr(CSRGraph.from_edges(num_vertices, edges))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        """Current number of neighbors of vertex *v*."""
        self._check_vertex(v)
        return int(self._deg[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Copy of vertex *v*'s current neighbor array (unsorted)."""
        self._check_vertex(v)
        return self._adj[v][: self._deg[v]].copy()

    def has_edge(self, u: int, v: int) -> bool:
        """True when the undirected edge {u, v} is currently present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        # Scan the smaller endpoint's list.
        if self._deg[u] > self._deg[v]:
            u, v = v, u
        return bool(np.any(self._adj[u][: self._deg[u]] == v))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id.

        Per the paper (§II-D): "a node insertion causes no change to
        existing BC scores" — engines treat the new vertex as its own
        component until edges attach it.
        """
        self._adj.append(np.empty(_INITIAL_CAPACITY, dtype=np.int32))
        self._deg = np.append(self._deg, 0)
        self.num_vertices += 1
        self._snapshot = None
        return self.num_vertices - 1

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert undirected edge {u, v}; returns False if it existed
        (or is a self loop), True when actually inserted."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v or self.has_edge(u, v):
            return False
        self._append(u, v)
        self._append(v, u)
        self.num_edges += 1
        self._patch_snapshot(u, v, insert=True)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete undirected edge {u, v}; returns False if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v or not self.has_edge(u, v):
            return False
        self._remove(u, v)
        self._remove(v, u)
        self.num_edges -= 1
        self._patch_snapshot(u, v, insert=False)
        return True

    def _patch_snapshot(self, u: int, v: int, insert: bool) -> None:
        """Keep the cached CSR current across a single-edge mutation.

        Streaming experiments snapshot after every update, so a full
        rebuild (O(n + m) with a Python-level gather) is the hot path;
        splicing two arcs into the cached arrays is a pair of C-level
        memmoves instead.
        """
        snap = self._snapshot
        if snap is None:
            return
        offsets = snap.row_offsets
        cols = snap.col_indices
        lo_u, hi_u = offsets[u], offsets[u + 1]
        lo_v, hi_v = offsets[v], offsets[v + 1]
        if insert:
            pos_u = int(lo_u + np.searchsorted(cols[lo_u:hi_u], v))
            pos_v = int(lo_v + np.searchsorted(cols[lo_v:hi_v], u))
            # np.insert keeps the given order at equal positions (the
            # end of one row is the start of the next), so list the
            # lower-numbered row's arc first.
            if u < v:
                where, arcs = [pos_u, pos_v], [v, u]
            else:
                where, arcs = [pos_v, pos_u], [u, v]
            new_cols = np.insert(cols, where, np.array(arcs, dtype=np.int32))
        else:
            pos_u = lo_u + int(np.searchsorted(cols[lo_u:hi_u], v))
            pos_v = lo_v + int(np.searchsorted(cols[lo_v:hi_v], u))
            new_cols = np.delete(cols, [pos_u, pos_v])
        new_offsets = offsets.copy()
        delta = 1 if insert else -1
        new_offsets[u + 1:] += delta
        new_offsets[v + 1:] += delta
        self._snapshot = CSRGraph(new_offsets, new_cols.astype(np.int32))

    def remove_random_edges(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Remove *count* random edges; returns them as an ``(count, 2)``
        array in removal order, ready to be re-inserted one at a time.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count > self.num_edges:
            raise ValueError(
                f"cannot remove {count} edges from a graph with {self.num_edges}"
            )
        edges = self.snapshot().edge_list()
        chosen = rng.choice(edges.shape[0], size=count, replace=False)
        removed = edges[chosen]
        for u, v in removed:
            self.delete_edge(int(u), int(v))
        return removed

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """Immutable CSR view of the current graph (cached).

        Rebuilt with one concatenation plus a single lexsort instead of
        a per-vertex sort loop — snapshotting after every streaming
        update is on the hot path of the experiment drivers.
        """
        if self._snapshot is None:
            offsets = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(self._deg, out=offsets[1:])
            if self.num_vertices == 0:
                cols = np.empty(0, dtype=np.int32)
            else:
                cols = np.concatenate(
                    [self._adj[v][: self._deg[v]]
                     for v in range(self.num_vertices)]
                )
                rows = np.repeat(
                    np.arange(self.num_vertices, dtype=np.int64), self._deg
                )
                cols = cols[np.lexsort((cols, rows))]
            self._snapshot = CSRGraph(offsets, cols.astype(np.int32))
        return self._snapshot

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _append(self, u: int, v: int) -> None:
        deg = int(self._deg[u])
        arr = self._adj[u]
        if deg == arr.size:
            grown = np.empty(max(_INITIAL_CAPACITY, arr.size * 2), dtype=np.int32)
            grown[:deg] = arr[:deg]
            self._adj[u] = arr = grown
        arr[deg] = v
        self._deg[u] = deg + 1

    def _remove(self, u: int, v: int) -> None:
        deg = int(self._deg[u])
        arr = self._adj[u][:deg]
        idx = int(np.nonzero(arr == v)[0][0])
        arr[idx] = arr[deg - 1]  # swap-with-last, O(1) removal
        self._deg[u] = deg - 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise IndexError(
                f"vertex {v} out of range for graph with {self.num_vertices} vertices"
            )

    def __repr__(self) -> str:
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"
