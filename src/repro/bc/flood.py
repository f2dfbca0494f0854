"""Literal Algorithm 4/6 semantics: the unguarded edge-parallel update.

The paper's Algorithm 4 pseudocode tests only ``d[v] = current_depth``
and ``d[w] = current_depth + 1`` before marking ``t[w] <- down`` — it
never checks that ``v`` itself was touched.  Read literally, the first
level therefore marks *every* vertex one level below ``u_low``'s level
(each has some predecessor arc), and the flood continues to the bottom
of the BFS: the update ends up recomputing the dependency of the entire
cone below ``d[u_low]``, not just the affected subset.

The result is still *correct*: σ̂ only changes where real deltas
propagate (untouched arcs add σ̂[v] − σ[v] = 0), and the dependency
stage's add-new/subtract-old structure makes δ̂ a full recomputation
for flooded vertices (for a "down" vertex every successor is also
flooded, so δ̂ is rebuilt from scratch; for an "up" vertex δ̂ starts at
δ and each old contribution is retired exactly once).

Production implementations guard on touched vertices — the main
engines here do (see :mod:`repro.bc.update_core`) — but this module
implements the literal semantics so the flood's cost can be measured:
``benchmarks/bench_ablation_flood.py`` shows how much of the
edge-parallel strategy's reputation is earned by this amplification.

The flood kernel is instrumented for the race sanitizer like the
guarded kernels (same barrier intervals, accumulation through the
declared atomic helper).  It has no frontier queue to check — flooding
whole levels instead of maintaining Q/Q2/QQ is exactly what
distinguishes it — so it produces no S103 traffic.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.bc.accountants import UpdateAccountant
from repro.bc.update_core import DOWN, UNTOUCHED, UP, UpdateStats, _commit
from repro.gpu.primitives import atomic_scatter_add, unique
from repro.graph.csr import CSRGraph, DIST_INF
from repro.sanitize import tracer as san


def flood_adjacent_level_update(
    graph: CSRGraph,
    source: int,
    d: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    bc: np.ndarray,
    u_high: int,
    u_low: int,
    acc: UpdateAccountant,
) -> UpdateStats:
    """Case-2 insertion with the unguarded (flooding) level loop.

    Produces state identical to
    :func:`repro.bc.update_core.adjacent_level_update`, but touches the
    whole cone below ``d[u_low]`` and reports costs accordingly.
    """
    n = graph.num_vertices
    if d[u_low] != d[u_high] + 1:
        raise ValueError("flood update requires d[u_low] == d[u_high] + 1")
    stats = UpdateStats()
    acc.init(n)
    t = np.zeros(n, dtype=np.int8)
    sigma_hat = sigma.copy()
    delta_hat = np.zeros(n, dtype=np.float64)

    # Level buckets of the whole BFS (the flood visits all of them).
    reachable = d != DIST_INF
    max_depth = int(d[reachable].max()) if np.any(reachable) else 0
    by_level: Dict[int, np.ndarray] = {}
    for level in range(max_depth + 1):
        by_level[level] = np.flatnonzero(d == level).astype(np.int64)

    base_level = int(d[u_low])

    with san.kernel(f"flood:{source}"):
        with san.interval("init", base_level):
            sigma_hat[u_low] = sigma[u_low] + sigma[u_high]
            san.write("sigma_hat", [u_low])
            t[u_low] = DOWN
            san.write("t", [u_low], intent="mark")

        # Stage 2 (Algorithm 4, literal): every arc between consecutive
        # levels runs; untouched tails contribute sigma deltas of zero
        # but heads are marked "down" regardless.
        for depth in range(base_level, max_depth):
            frontier = by_level[depth]
            tails, heads = graph.frontier_arcs(frontier)
            tails = tails.astype(np.int64)
            heads = heads.astype(np.int64)
            with san.interval("sp", depth):
                san.read("d", heads)
                on_path = d[heads] == depth + 1
                ot, oh = tails[on_path], heads[on_path]
                san.read("t", oh)
                raw_new = oh[t[oh] == UNTOUCHED]
                if ot.size:
                    san.read("sigma_hat", ot)
                    san.read("sigma", ot)
                    atomic_scatter_add(
                        sigma_hat, oh, sigma_hat[ot] - sigma[ot],
                        array="sigma_hat",
                    )
                new_nodes = unique(raw_new)
                if new_nodes.size:
                    t[new_nodes] = DOWN
                    san.write("t", new_nodes, intent="mark")
            acc.sp_level(
                frontier=int(frontier.size),
                arcs=int(tails.size),
                onpath=int(ot.size),
                raw_new=int(raw_new.size),
                new=int(new_nodes.size),
            )
            stats.sp_levels += 1
            # The literal done-flag cannot fire early: every vertex of
            # level depth+1 has a predecessor arc from level depth, so
            # the flood marks whole levels until the BFS bottoms out.

        # Stage 3 (Algorithm 6, literal, with the v/w roles made
        # consistent): every inter-level arc runs from the bottom up,
        # with the same discover/accumulate barrier split as the
        # guarded kernel.
        for level in range(max_depth, 0, -1):
            w_arr = by_level[level]
            w_arr = w_arr[t[w_arr] != UNTOUCHED]
            adds = subs = arcs = new_up_count = 0
            pt = ph = np.empty(0, dtype=np.int64)
            with san.interval("dep-discover", level):
                if w_arr.size:
                    tails, heads = graph.frontier_arcs(w_arr)
                    tails = tails.astype(np.int64)
                    heads = heads.astype(np.int64)
                    arcs = int(tails.size)
                    san.read("d", heads)
                    pred = d[heads] == level - 1
                    pt, ph = tails[pred], heads[pred]
                    san.read("t", ph)
                    new_up = unique(ph[t[ph] == UNTOUCHED])
                    if new_up.size:
                        t[new_up] = UP
                        san.write("t", new_up, intent="mark")
                        san.read("delta", new_up)
                        delta_hat[new_up] = delta[new_up]
                        san.write("delta_hat", new_up)
                        new_up_count = int(new_up.size)
            with san.interval("dep-accumulate", level):
                if ph.size:
                    san.read("sigma_hat", ph)
                    san.read("sigma_hat", pt)
                    san.read("delta_hat", pt)
                    atomic_scatter_add(
                        delta_hat, ph,
                        sigma_hat[ph] / sigma_hat[pt] * (1.0 + delta_hat[pt]),
                        array="delta_hat",
                    )
                    adds = int(ph.size)
                    san.read("t", ph)
                    up_pred = (t[ph] == UP) & ~((ph == u_high) & (pt == u_low))
                    sp, sh = pt[up_pred], ph[up_pred]
                    if sp.size:
                        san.read("sigma", sh)
                        san.read("sigma", sp)
                        san.read("delta", sp)
                        atomic_scatter_add(
                            delta_hat, sh,
                            -(sigma[sh] / sigma[sp]) * (1.0 + delta[sp]),
                            array="delta_hat",
                        )
                        subs = int(sp.size)
            acc.dep_level(
                qq=int(np.count_nonzero(t != UNTOUCHED)),
                level_nodes=int(w_arr.size),
                arcs=arcs,
                adds=adds,
                subs=subs,
                new_up=new_up_count,
            )
            stats.dep_levels += 1

    _commit(source, t, d, None, sigma, sigma_hat, delta, delta_hat, bc,
            acc, stats)
    return stats
