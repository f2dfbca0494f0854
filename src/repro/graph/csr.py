"""Compressed-sparse-row (CSR) storage for undirected graphs.

This is the static snapshot format every kernel in :mod:`repro.bc`
consumes.  Each undirected edge ``{u, v}`` is stored as the two directed
arcs ``(u, v)`` and ``(v, u)``, matching how GPU BFS kernels traverse
adjacency in both directions (the paper's ``for (v, w) in E`` iterates
arcs).

Distances use ``int32`` with the sentinel :data:`DIST_INF` for
unreachable vertices.  The sentinel is a large finite value rather than
``-1`` so that the update-scenario classification ``|d(u) - d(v)|``
(Section II-D of the paper) remains correct arithmetic even when one or
both endpoints are unreachable from the source.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

#: Distance sentinel for "unreachable".  Large enough that
#: ``DIST_INF - d`` is always > 1 for any real distance d, small enough
#: that ``DIST_INF + 1`` does not overflow int64 arithmetic in callers.
DIST_INF = np.int64(2**40)

EdgeInput = Union[np.ndarray, Sequence[Tuple[int, int]]]


class CSRGraph:
    """Immutable undirected graph in CSR form.

    Parameters are the raw CSR arrays; most callers should construct
    graphs via :meth:`from_edges` or the generators in
    :mod:`repro.graph.generators`.

    Attributes
    ----------
    num_vertices : int
        Number of vertices ``n``; vertices are ``0 .. n-1``.
    num_edges : int
        Number of *undirected* edges ``m``.
    row_offsets : numpy.ndarray
        ``int64[n + 1]`` offsets into :attr:`col_indices`.
    col_indices : numpy.ndarray
        ``int32[2 m]`` neighbor lists, sorted and duplicate-free within
        each row, holding every edge as both of its arcs (the
        constructor rejects other rows, and an arc without its reverse,
        with :class:`ValueError`).
    """

    __slots__ = ("num_vertices", "num_edges", "row_offsets", "col_indices", "_arcs")

    def __init__(self, row_offsets: np.ndarray, col_indices: np.ndarray) -> None:
        self._adopt(row_offsets, col_indices)
        bad = _unsorted_arcs(self.row_offsets, self.col_indices)
        if bad.size:
            v = int(np.searchsorted(self.row_offsets, bad[0], side="right")) - 1
            raise ValueError(
                f"row {v} of col_indices is not sorted and free of "
                "duplicates"
            )
        # Bottom-up traversals reverse arcs, so a one-way arc would
        # silently give a different graph in each direction.
        bad = _one_way_arcs(self.row_offsets, self.col_indices)
        if bad.size:
            u = int(np.searchsorted(self.row_offsets, bad[0], side="right")) - 1
            v = int(self.col_indices[bad[0]])
            raise ValueError(
                f"arc ({u}, {v}) has no reverse arc ({v}, {u}); an "
                "undirected CSR stores every edge in both rows"
            )

    @classmethod
    def from_sorted_rows(
        cls, row_offsets: np.ndarray, col_indices: np.ndarray
    ) -> "CSRGraph":
        """Adopt CSR arrays the caller knows to be valid (spliced or
        rebuilt from a valid graph): every check of the constructor but
        the O(m) sortedness and symmetry ones."""
        graph = cls.__new__(cls)
        graph._adopt(row_offsets, col_indices)
        return graph

    def _adopt(self, row_offsets: np.ndarray, col_indices: np.ndarray) -> None:
        row_offsets = np.asarray(row_offsets, dtype=np.int64)
        col_indices = np.asarray(col_indices, dtype=np.int32)
        if row_offsets.ndim != 1 or row_offsets.size == 0:
            raise ValueError("row_offsets must be a 1-D array of length n+1")
        if row_offsets[0] != 0 or row_offsets[-1] != col_indices.size:
            raise ValueError(
                "row_offsets must start at 0 and end at len(col_indices)"
            )
        if np.any(np.diff(row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        n = row_offsets.size - 1
        if col_indices.size and (
            col_indices.min() < 0 or col_indices.max() >= n
        ):
            raise ValueError("col_indices contains out-of-range vertex ids")
        if col_indices.size % 2 != 0:
            raise ValueError(
                "undirected CSR must contain an even number of arcs "
                f"(got {col_indices.size})"
            )
        self.num_vertices = int(n)
        self.num_edges = int(col_indices.size // 2)
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self._arcs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: EdgeInput,
        *,
        allow_duplicates: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an ``(m, 2)`` edge array or pair sequence.

        Self loops are dropped; duplicate edges are merged (the graphs
        in this study are simple).  Set ``allow_duplicates=False`` to
        raise instead of silently merging.
        """
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        edge_arr = np.asarray(edges, dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edge_arr.shape}")
        if edge_arr.size and (
            edge_arr.min() < 0 or edge_arr.max() >= num_vertices
        ):
            raise ValueError("edge endpoints out of range")

        # Canonicalize: drop self loops, order endpoints, deduplicate.
        keep = edge_arr[:, 0] != edge_arr[:, 1]
        edge_arr = edge_arr[keep]
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        keys = lo * num_vertices + hi
        unique_keys, first_idx = np.unique(keys, return_index=True)
        if not allow_duplicates and unique_keys.size != keys.size:
            raise ValueError("duplicate edges present and allow_duplicates=False")
        lo, hi = lo[first_idx], hi[first_idx]

        tails = np.concatenate([lo, hi])
        heads = np.concatenate([hi, lo])
        order = np.lexsort((heads, tails))
        tails, heads = tails[order], heads[order]
        row_offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(row_offsets, tails + 1, 1)
        np.cumsum(row_offsets, out=row_offsets)
        # rows sorted by the lexsort, duplicate-free and symmetric by
        # construction
        return cls.from_sorted_rows(row_offsets, heads.astype(np.int32))

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """Graph with *num_vertices* isolated vertices."""
        return cls.from_edges(num_vertices, np.empty((0, 2), dtype=np.int64))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of vertex *v* (a view, do not mutate)."""
        self._check_vertex(v)
        return self.col_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def degree(self, v: int) -> int:
        """Number of neighbors of vertex *v*."""
        self._check_vertex(v)
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    @property
    def degrees(self) -> np.ndarray:
        """``int64[n]`` vertex degrees."""
        return np.diff(self.row_offsets)

    def has_edge(self, u: int, v: int) -> bool:
        """True when the undirected edge {u, v} is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        nbrs = self.neighbors(u)
        idx = np.searchsorted(nbrs, v)
        return bool(idx < nbrs.size and nbrs[idx] == v)

    def arcs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(tails, heads)`` arrays of all ``2 m`` directed arcs.

        This is the flat edge list the edge-parallel kernels iterate;
        the result is cached on the (immutable) graph.
        """
        if self._arcs is None:
            tails = np.repeat(
                np.arange(self.num_vertices, dtype=np.int32),
                np.diff(self.row_offsets),
            )
            self._arcs = (tails, self.col_indices)
        return self._arcs

    def edge_list(self) -> np.ndarray:
        """``(m, 2)`` canonical (lo < hi) undirected edge array."""
        tails, heads = self.arcs()
        mask = tails < heads
        return np.column_stack([tails[mask], heads[mask]]).astype(np.int64)

    def undirected_non_edges(
        self, rng: np.random.Generator, count: int, max_tries: int = 10_000_000
    ) -> np.ndarray:
        """Sample *count* distinct vertex pairs that are **not** edges.

        Used by the experiment drivers to pick random insertions.
        Rejection sampling; raises :class:`RuntimeError` if the graph is
        too dense to find enough non-edges within ``max_tries``.
        """
        n = self.num_vertices
        if n < 2:
            raise ValueError("graph must have at least 2 vertices")
        max_pairs = n * (n - 1) // 2
        if count > max_pairs - self.num_edges:
            raise ValueError("not enough non-edges in the graph")
        found = set()
        result = []
        tries = 0
        while len(result) < count:
            tries += 1
            if tries > max_tries:
                raise RuntimeError("could not sample enough non-edges")
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in found or self.has_edge(*key):
                continue
            found.add(key)
            result.append(key)
        return np.asarray(result, dtype=np.int64)

    # ------------------------------------------------------------------
    # Traversal helpers (shared by properties + test oracles)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> np.ndarray:
        """Level-synchronous BFS distances (``int64[n]``, DIST_INF =
        unreachable).  Vectorized frontier expansion over CSR."""
        self._check_vertex(source)
        dist = np.full(self.num_vertices, DIST_INF, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int32)
        level = 0
        while frontier.size:
            neigh = self._gather_neighbors(frontier)
            neigh = neigh[dist[neigh] == DIST_INF]
            if neigh.size == 0:
                break
            frontier = np.unique(neigh)
            level += 1
            dist[frontier] = level
        return dist

    def connected_components(self) -> np.ndarray:
        """Component label per vertex (``int64[n]``, labels are the
        minimum vertex id of each component)."""
        labels = np.full(self.num_vertices, -1, dtype=np.int64)
        for v in range(self.num_vertices):
            if labels[v] != -1:
                continue
            reach = self.bfs_distances(v) != DIST_INF
            labels[reach] = v
        return labels

    def frontier_arcs(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All arcs leaving the given frontier vertices.

        Returns ``(tails, heads)`` where ``tails[i]`` is the frontier
        vertex owning arc *i*.  This is the gather primitive the
        level-synchronous kernels are built on.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        starts = self.row_offsets[frontier]
        counts = self.row_offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        out_offsets = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=out_offsets[1:])
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(starts - out_offsets, counts)
        tails = np.repeat(frontier.astype(np.int32), counts)
        return tails, self.col_indices[idx]

    def _gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenate the adjacency lists of all frontier vertices."""
        starts = self.row_offsets[frontier]
        counts = self.row_offsets[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int32)
        # Index arithmetic instead of a Python loop: classic CSR gather.
        out_offsets = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=out_offsets[1:])
        idx = np.arange(total, dtype=np.int64)
        idx += np.repeat(starts - out_offsets, counts)
        return self.col_indices[idx]

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise IndexError(
                f"vertex {v} out of range for graph with {self.num_vertices} vertices"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"


def _unsorted_arcs(row_offsets: np.ndarray, col_indices: np.ndarray) -> np.ndarray:
    """Positions of arcs that do not exceed their predecessor in the
    same row (an unsorted or duplicated neighbor)."""
    if col_indices.size < 2:
        return np.empty(0, dtype=np.int64)
    ok = np.diff(col_indices) > 0
    # a row's first arc need not exceed the previous row's last
    starts = row_offsets[1:-1]
    ok[starts[(starts > 0) & (starts < col_indices.size)] - 1] = True
    return np.flatnonzero(~ok) + 1


def _one_way_arcs(row_offsets: np.ndarray, col_indices: np.ndarray) -> np.ndarray:
    """Positions of arcs ``(u, v)`` whose reverse ``(v, u)`` is absent,
    given rows already sorted and duplicate-free (so the arcs' ``u * n
    + v`` keys ascend)."""
    n = row_offsets.size - 1
    heads = col_indices.astype(np.int64)
    if not heads.size:
        return np.empty(0, dtype=np.int64)
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_offsets))
    keys = tails * n + heads
    reverse = heads * n + tails
    if np.array_equal(np.sort(reverse), keys):
        return np.empty(0, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, reverse), keys.size - 1)
    return np.flatnonzero(keys[pos] != reverse)
