"""Brandes' algorithm for betweenness centrality (Algorithm 1).

This is the exact/approximate *static* reference everything else is
validated against, implemented as a vectorized level-synchronous
BFS + dependency accumulation over CSR arrays.  Every from-scratch
state row runs it: the engine build, ``recompute()``, the deletion
fallback, ``repair_source``, guard row checks and ``verify()``.

Each BFS level is taken from its cheaper side, as in Beamer et al.'s
direction-optimizing BFS (SC'12): top-down over the frontier's arcs,
or, when those outnumber the arcs of the still-unvisited vertices,
bottom-up, where each unvisited vertex keeps its arcs to the frontier
(:func:`bottom_up` decides; tests patch it to force either side).  A
level stores the DAG arcs it found, at most m per source, and the
dependency stage walks them from the deepest level up instead of
gathering and testing every arc again.  The bits do not depend on the
direction: CSR rows are sorted and adjacency is symmetric, so σ[w]
always adds its predecessors' σ in ascending predecessor order and
δ[v] its successors' terms in ascending successor order, the order of
a plain top-down pass over every arc.

Conventions (matching the paper):

* Undirected graphs are traversed in both directions, so every ordered
  pair (s, t) contributes — scores are **not** halved.  (NetworkX's
  undirected ``betweenness_centrality`` halves; multiply it by 2 to
  compare.)
* Approximate BC processes only ``k`` *source vertices* in the outer
  loop (Brandes & Pich [11]); pass ``sources`` for that.
* σ values are path *counts* held in float64: exact up to 2**53 paths.

The kernels are instrumented for the race sanitizer
(:mod:`repro.sanitize.tracer`): every BFS/accumulation level is a
barrier interval, σ/δ accumulation routes through the declared
:func:`~repro.gpu.primitives.atomic_scatter_add`, and frontier pushes
are checked for level monotonicity.  The hooks are no-ops unless a
tracer is active, and the instrumented math is bit-identical either
way.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gpu.primitives import atomic_scatter_add, unique
from repro.graph.csr import CSRGraph, DIST_INF
from repro.sanitize import tracer as san
from repro.sanitize.report import SanitizerReport


def bottom_up(frontier_arcs: int, unvisited_arcs: int) -> bool:
    """True when a BFS level of :func:`single_source_state` is taken
    bottom-up: its frontier has more arcs than the still-unvisited
    vertices.  The direction seam: tests force either side here."""
    return frontier_arcs > unvisited_arcs


def single_source_state(
    graph: CSRGraph, source: int,
    out: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
    """Stages 1–3 of Algorithm 1 for one source.

    Returns ``(d, sigma, delta, levels)`` where ``levels[i]`` is the
    BFS frontier at distance *i* (``levels[0] == [source]``, each level
    sorted ``int32``) — the level-bucketed equivalent of the stack
    ``S``.

    ``out`` — optional ``(d, sigma, delta)`` arrays (e.g. rows of the
    ``(k, n)`` state matrices) written in place and returned; callers
    building many sources avoid allocating transient per-source
    vectors, keeping peak memory at the retained state plus O(n + m)
    scratch (the from-scratch builders and the parallel workers all
    pass their state rows directly).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range")
    if out is None:
        d = np.full(n, DIST_INF, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        delta = np.zeros(n, dtype=np.float64)
    else:
        d, sigma, delta = out
        if d.shape != (n,) or sigma.shape != (n,) or delta.shape != (n,):
            raise ValueError(
                f"out rows must each have shape ({n},), got "
                f"{d.shape}/{sigma.shape}/{delta.shape}"
            )
        d[...] = DIST_INF
        sigma[...] = 0.0
        delta[...] = 0.0
    d[source] = 0
    sigma[source] = 1.0
    offsets = graph.row_offsets

    with san.kernel(f"sssp:{source}"):
        # Stage 2: shortest-path calculation (level-synchronous BFS),
        # each level from its cheaper side; dag[i] holds the DAG arcs
        # (pred, succ) into levels[i + 1], grouped by pred (top-down)
        # or by succ (bottom-up), sorted either way.
        levels: List[np.ndarray] = [np.array([source], dtype=np.int32)]
        dag: List[Tuple[np.ndarray, np.ndarray]] = []
        unvisited = np.arange(n)  # compacted by bottom-up levels only
        f_arcs = int(offsets[source + 1] - offsets[source])
        u_arcs = 2 * graph.num_edges - f_arcs
        depth = 0
        while f_arcs:
            with san.interval("sp", depth):
                if bottom_up(f_arcs, u_arcs):
                    # each unvisited vertex keeps its arcs to the frontier
                    unvisited = unvisited[d[unvisited] == DIST_INF]
                    succ, pred = graph.frontier_arcs(unvisited)
                    san.read("d", pred)
                    hit = np.flatnonzero(d[pred] == depth)
                    succ, pred = succ[hit], pred[hit]
                else:
                    # the frontier keeps its arcs to unvisited vertices
                    pred, succ = graph.frontier_arcs(levels[depth])
                    san.read("d", succ)
                    hit = np.flatnonzero(d[succ] == DIST_INF)
                    pred, succ = pred[hit], succ[hit]
                new_nodes = unique(succ)
                if new_nodes.size:
                    d[new_nodes] = depth + 1
                    san.write("d", new_nodes, intent="discover")
                    san.read("sigma", pred)
                    atomic_scatter_add(sigma, succ, sigma[pred],
                                       array="sigma")
                san.enqueue("Q", new_nodes, depth + 1, distances=d,
                            direction=1)
            if new_nodes.size == 0:
                break
            levels.append(new_nodes)
            dag.append((pred, succ))
            f_arcs = int((offsets[new_nodes + 1] - offsets[new_nodes]).sum())
            u_arcs -= f_arcs
            depth += 1

        # Stage 3: dependency accumulation, deepest level first, over
        # the stored DAG arcs (w at depth L, predecessor v at L-1):
        #   delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
        for depth in range(len(levels) - 1, 0, -1):
            pred, succ = dag[depth - 1]
            with san.interval("dep", depth):
                san.read("sigma", pred)
                san.read("sigma", succ)
                san.read("delta", succ)
                atomic_scatter_add(
                    delta, pred,
                    sigma[pred] / sigma[succ] * (1.0 + delta[succ]),
                    array="delta",
                )
    return d, sigma, delta, levels


def brandes_bc(
    graph: CSRGraph,
    sources: Optional[Sequence[int]] = None,
    normalized: bool = False,
    sanitize: bool = False,
) -> Union[np.ndarray, Tuple[np.ndarray, SanitizerReport]]:
    """Betweenness centrality scores (``float64[n]``).

    ``sources=None`` computes exact BC (all n sources); otherwise only
    the given source vertices are accumulated (approximate BC).
    ``normalized`` divides by ``(n-1)(n-2)``, the number of ordered
    pairs excluding the vertex itself.

    ``sanitize=True`` runs every per-source kernel under the race
    sanitizer and returns ``(bc, SanitizerReport)``; the scores are
    bit-identical to the untraced run.
    """
    if sanitize:
        tracer = san.MemoryTracer()
        with san.tracing(tracer):
            bc = brandes_bc(graph, sources, normalized)
        return bc, tracer.report()
    n = graph.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    iter_sources = range(n) if sources is None else sources
    for s in iter_sources:
        _, _, delta, _ = single_source_state(graph, int(s))
        delta[int(s)] = 0.0
        bc += delta
    if normalized and n > 2:
        bc /= (n - 1) * (n - 2)
    return bc
