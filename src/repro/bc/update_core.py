"""Per-source dynamic BC update routines (Algorithms 2–8).

The three execution strategies (sequential CPU, edge-parallel GPU,
node-parallel GPU) compute *identical state transitions* — they differ
only in how threads map to work, which the pluggable
:class:`~repro.bc.accountants.UpdateAccountant` captures.  This module
implements the transitions once, level-synchronously over NumPy
arrays, mirroring the barrier structure of the GPU kernels:

* :func:`adjacent_level_update` — Case 2 of Green et al. (insertion
  between adjacent BFS levels) and its deletion dual: distances are
  preserved; σ deltas propagate down from ``u_low``; the dependency
  pass walks a multi-level queue upward, adding new contributions and
  subtracting stale ones.
* :func:`distant_level_update` — Case 3 (insertion across >1 level,
  including component merges): a pull-based partial BFS relabels
  distances and recomputes σ in new-level order, then a *pre-pass*
  retires moved vertices' old contributions before the upward sweep
  (old values are static, so the pre-pass is order-independent; this
  resolves the level-ordering hazard when a vertex climbs several
  levels — see DESIGN.md).

Pseudocode notes: Algorithm 6 of the paper swaps the roles of ``v`` and
``w`` in its level tests relative to Algorithms 2/7 (as printed it
would accumulate dependencies downward); we implement the consistent
semantics.  Likewise, the kernels guard work on touched vertices, as
the node-parallel queues do structurally — a literal unguarded reading
of Algorithm 4 would flood the entire BFS cone below ``u_low``'s level.

Sanitizer instrumentation: each barrier-delimited phase of the real
kernels is a ``san.interval`` here, and phases a correct GPU kernel
must separate with a barrier are separate intervals — the dependency
stage splits into *dep-discover* (queue/t stamps, δ̂ seeding) and
*dep-accumulate* (the atomic adds/subs), the Case-3 pull into
*pull-clear* / *pull-accumulate* / *pull-commit* / *pull-scan*.  All
conflicting accumulation routes through the declared
:func:`~repro.gpu.primitives.atomic_scatter_add`; merging intervals or
bypassing the helper in a mutated kernel is exactly what the race
sanitizer detects (tests/test_sanitize_races.py).  The hooks are
no-ops without an active tracer and never change the math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bc.accountants import UpdateAccountant
from repro.gpu.primitives import atomic_scatter_add, unique
from repro.graph.csr import CSRGraph
from repro.sanitize import tracer as san

UNTOUCHED, DOWN, UP = 0, 1, 2


@dataclass
class UpdateStats:
    """Per-(source, update) observability: what the update touched.

    ``touched`` counts vertices with ``t != untouched`` (the quantity
    Fig. 4 plots as a fraction of n); ``moved`` counts vertices whose
    distance changed (Case 3 only).
    """

    touched: int = 0
    moved: int = 0
    sp_levels: int = 0
    dep_levels: int = 0


def _max_multiplicity(values: np.ndarray) -> int:
    """Worst-case atomics targeting one address in a scatter-add."""
    if values.size == 0:
        return 1
    return int(np.unique(values, return_counts=True)[1].max())


# ----------------------------------------------------------------------
# Case 2: |d(u) - d(v)| == 1  (and the distance-preserving deletion dual)
# ----------------------------------------------------------------------
def adjacent_level_update(
    graph: CSRGraph,
    source: int,
    d: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    bc: np.ndarray,
    u_high: int,
    u_low: int,
    acc: UpdateAccountant,
    insert: bool = True,
) -> UpdateStats:
    """Apply an adjacent-level edge insertion (or deletion) for one
    source, updating ``d/sigma/delta`` rows and ``bc`` in place.

    Preconditions: the graph already reflects the mutation (edge
    present for ``insert=True``, absent for ``insert=False``), and
    ``d[u_low] == d[u_high] + 1``.
    """
    n = graph.num_vertices
    if d[u_low] != d[u_high] + 1:
        raise ValueError(
            f"adjacent-level update requires d[u_low] == d[u_high]+1, "
            f"got d[{u_low}]={d[u_low]}, d[{u_high}]={d[u_high]}"
        )
    stats = UpdateStats()
    acc.init(n)
    t = np.zeros(n, dtype=np.int8)
    sigma_hat = sigma.copy()
    delta_hat = np.zeros(n, dtype=np.float64)
    sign = 1.0 if insert else -1.0

    base_level = int(d[u_low])
    label = "case2-insert" if insert else "case2-delete"
    with san.kernel(f"{label}:{source}"):
        with san.interval("init", base_level):
            sigma_hat[u_low] = sigma[u_low] + sign * sigma[u_high]
            san.write("sigma_hat", [u_low])
            t[u_low] = DOWN
            san.write("t", [u_low], intent="mark")
            san.enqueue("QQ:down", [u_low], base_level, distances=d,
                        direction=1)

        lvl_touched: Dict[int, List[np.ndarray]] = {
            base_level: [np.array([u_low], dtype=np.int64)]
        }
        qq_len = 1

        # Stage 2: propagate sigma deltas down the (unchanged) BFS DAG.
        frontier = np.array([u_low], dtype=np.int64)
        depth = base_level
        while frontier.size:
            stats.sp_levels += 1
            tails, heads = graph.frontier_arcs(frontier)
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
                new_nodes = unique(raw_new).astype(np.int64)
                if new_nodes.size:
                    t[new_nodes] = DOWN
                    san.write("t", new_nodes, intent="mark")
                san.enqueue("QQ:down", new_nodes, depth + 1, distances=d,
                            direction=1)
            acc.sp_level(
                frontier=int(frontier.size),
                arcs=int(tails.size),
                onpath=int(ot.size),
                raw_new=int(raw_new.size),
                new=int(new_nodes.size),
                max_conflict=_max_multiplicity(oh),
            )
            if new_nodes.size:
                lvl_touched.setdefault(depth + 1, []).append(new_nodes)
                qq_len += int(new_nodes.size)
            frontier = new_nodes
            depth += 1

        # Stage 3: dependency accumulation, deepest touched level first.
        # Each level is two barrier intervals: *discover* stamps the
        # newly reached "up" predecessors and seeds their delta_hat
        # from the old dependency; *accumulate* runs the atomic
        # adds/subs, which read the seeds — hence the barrier.
        max_level = max(lvl for lvl, nodes in lvl_touched.items() if nodes)
        for level in range(max_level, 0, -1):
            stats.dep_levels += 1
            parts = lvl_touched.get(level, [])
            w_arr = (
                unique(np.concatenate(parts)) if parts
                else np.empty(0, dtype=np.int64)
            )
            adds = subs = arcs = new_up_count = 0
            conflict = 1
            pt = ph = np.empty(0, dtype=np.int64)
            with san.interval("dep-discover", level):
                if w_arr.size:
                    tails, heads = graph.frontier_arcs(w_arr)
                    arcs = int(tails.size)
                    san.read("d", heads)
                    pred = d[heads] == level - 1
                    pt = tails[pred].astype(np.int64)
                    ph = heads[pred].astype(np.int64)
                    san.read("t", ph)

                    # Newly reached predecessors enter the queue as
                    # "up" with delta_hat seeded from the old
                    # dependency (Alg. 2 line 30).
                    new_up = unique(ph[t[ph] == UNTOUCHED])
                    if new_up.size:
                        t[new_up] = UP
                        san.write("t", new_up, intent="mark")
                        san.read("delta", new_up)
                        delta_hat[new_up] = delta[new_up]
                        san.write("delta_hat", new_up)
                        lvl_touched.setdefault(level - 1, []).append(new_up)
                        new_up_count = int(new_up.size)
                    san.enqueue("QQ:up", new_up, level - 1, distances=d,
                                direction=-1)
                if not insert and level == base_level and t[u_high] == UNTOUCHED:
                    # The removed arc's predecessor may be reachable
                    # only through the arc that no longer exists in the
                    # adjacency; stamp and seed it explicitly.
                    t[u_high] = UP
                    san.write("t", [u_high], intent="mark")
                    san.read("delta", [u_high])
                    delta_hat[u_high] = delta[u_high]
                    san.write("delta_hat", [u_high])
                    lvl_touched.setdefault(level - 1, []).append(
                        np.array([u_high], dtype=np.int64)
                    )
                    new_up_count += 1
                    san.enqueue("QQ:up", [u_high], level - 1, distances=d,
                                direction=-1)
            with san.interval("dep-accumulate", level):
                if ph.size:
                    # New contributions (Alg. 2 line 31).
                    san.read("sigma_hat", ph)
                    san.read("sigma_hat", pt)
                    san.read("delta_hat", pt)
                    atomic_scatter_add(
                        delta_hat, ph,
                        sigma_hat[ph] / sigma_hat[pt] * (1.0 + delta_hat[pt]),
                        array="delta_hat",
                    )
                    adds = int(ph.size)
                    conflict = _max_multiplicity(ph)
                    # Retire stale contributions of touched successors
                    # from "up" predecessors (Alg. 2 lines 32-33).
                    # Down predecessors rebuild delta_hat from zero, so
                    # only "up" ones carry the old value.  For an
                    # insertion the new arc (u_high, u_low) had no old
                    # contribution: skip that pair.
                    san.read("t", ph)
                    up_pred = t[ph] == UP
                    if insert:
                        up_pred &= ~((ph == u_high) & (pt == u_low))
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
                if not insert and level == base_level:
                    # The removed arc was an old DAG arc but is no
                    # longer in the adjacency, so its stale
                    # contribution is retired explicitly (old values
                    # only: order-independent).
                    san.read("sigma", [u_high, u_low])
                    san.read("delta", [u_low])
                    atomic_scatter_add(
                        delta_hat,
                        np.array([u_high], dtype=np.int64),
                        -(sigma[u_high] / sigma[u_low]) * (1.0 + delta[u_low]),
                        array="delta_hat",
                    )
                    subs += 1
            acc.dep_level(
                qq=qq_len, level_nodes=int(w_arr.size), arcs=arcs,
                adds=adds, subs=subs, new_up=new_up_count,
                max_conflict=conflict,
            )
            qq_len += new_up_count

    _commit(source, t, d, None, sigma, sigma_hat, delta, delta_hat, bc, acc, stats)
    return stats


# ----------------------------------------------------------------------
# Case 3: |d(u) - d(v)| > 1 (distances shrink; components may merge)
# ----------------------------------------------------------------------
def distant_level_update(
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
    """Apply a distant-level edge insertion for one source (in place).

    Precondition: the edge ``{u_high, u_low}`` is already in the graph
    and ``d[u_low] > d[u_high] + 1`` (possibly ``DIST_INF``).
    """
    n = graph.num_vertices
    if not d[u_low] > d[u_high] + 1:
        raise ValueError("distant-level update requires d[u_low] > d[u_high] + 1")
    stats = UpdateStats()
    acc.init(n)
    t = np.zeros(n, dtype=np.int8)
    moved = np.zeros(n, dtype=bool)
    d_new = d.copy()
    sigma_hat = sigma.copy()
    delta_hat = np.zeros(n, dtype=np.float64)

    with san.kernel(f"case3:{source}"):
        level = int(d[u_high]) + 1
        with san.interval("init", level):
            d_new[u_low] = d[u_high] + 1
            san.write("d_new", [u_low], intent="relabel")
            moved[u_low] = True
            san.write("moved", [u_low], intent="mark")
            t[u_low] = DOWN
            san.write("t", [u_low], intent="mark")
            san.enqueue("Q2:pull", [u_low], level, distances=d_new,
                        direction=1)

        lvl_touched: Dict[int, List[np.ndarray]] = {}
        qq_len = 0

        # Stage 2': pull-based distance/sigma repair in new-level
        # order.  Four barrier intervals per level: clear the pull
        # buffer, atomically pull sigma_hat from the (final) previous
        # level, commit each lane's pulled value, then scan forward for
        # relabels and the next frontier.
        pending: np.ndarray = np.array([u_low], dtype=np.int64)
        pull_buf = np.zeros(n, dtype=np.float64)
        while pending.size:
            stats.sp_levels += 1
            cur = unique(pending)
            tails, heads = graph.frontier_arcs(cur)
            tails = tails.astype(np.int64)
            heads = heads.astype(np.int64)
            with san.interval("pull-clear", level):
                pull_buf[cur] = 0.0
                san.write("pull_buf", cur)
            with san.interval("pull-accumulate", level):
                san.read("d_new", heads)
                pred = d_new[heads] == level - 1
                if np.any(pred):
                    san.read("sigma_hat", heads[pred])
                    atomic_scatter_add(
                        pull_buf, tails[pred], sigma_hat[heads[pred]],
                        array="pull_buf",
                    )
            with san.interval("pull-commit", level):
                # Each lane owns one vertex of ``cur``: it reads its
                # own pull_buf/sigma/moved entries (lane-local, not
                # recorded) and stores its final sigma_hat once.
                sigma_hat[cur] = pull_buf[cur]
                changed = moved[cur] | (sigma_hat[cur] != sigma[cur])
                reverted = cur[~changed]
                if reverted.size:  # candidate turned out unaffected
                    sigma_hat[reverted] = sigma[reverted]
                    t[reverted] = UNTOUCHED
                    san.write("t", reverted, intent="mark")
                san.write("sigma_hat", cur)
            fr = cur[changed]
            raw_new = 0
            next_pending = np.empty(0, dtype=np.int64)
            scan_arcs = 0
            if fr.size:
                lvl_touched.setdefault(level, []).append(fr)
                qq_len += int(fr.size)
                s_tails, s_heads = graph.frontier_arcs(fr)
                s_heads = s_heads.astype(np.int64)
                scan_arcs = int(s_tails.size)
                with san.interval("pull-scan", level):
                    san.read("d_new", s_heads)
                    # Relabel vertices pulled closer by the new paths.
                    movers = unique(s_heads[d_new[s_heads] > level + 1])
                    if movers.size:
                        d_new[movers] = level + 1
                        san.write("d_new", movers, intent="relabel")
                        moved[movers] = True
                        san.write("moved", movers, intent="mark")
                    # Next level's candidates: every neighbor now at
                    # level+1.
                    cand_mask = d_new[s_heads] == level + 1
                    raw_new = int(np.count_nonzero(cand_mask))
                    next_pending = unique(s_heads[cand_mask])
                    if next_pending.size:
                        t[next_pending] = DOWN
                        san.write("t", next_pending, intent="mark")
                    san.enqueue("Q2:pull", next_pending, level + 1,
                                distances=d_new, direction=1)
            acc.pull_level(
                frontier=int(cur.size),
                pull_arcs=int(np.count_nonzero(pred)),
                scan_arcs=scan_arcs,
                raw_new=raw_new,
                new=int(next_pending.size),
            )
            pending = next_pending
            level += 1

        # Pre-pass: retire moved vertices' old contributions from their
        # old predecessors.  Uses only pre-update values, so it
        # commutes with the level loop below (the moved vertex may now
        # live far above its old predecessors' levels).  Two intervals:
        # stamping/seeding, then the atomic subtractions that read the
        # seeds.
        movers_all = np.flatnonzero(moved).astype(np.int64)
        if movers_all.size:
            tails, heads = graph.frontier_arcs(movers_all)
            tails = tails.astype(np.int64)
            heads = heads.astype(np.int64)
            xt = xh = np.empty(0, dtype=np.int64)
            with san.interval("prepass-discover", 0):
                san.read("d", heads)
                san.read("d", tails)
                san.read("t", heads)
                old_pred = d[heads] == d[tails] - 1  # never true for d[tails]=INF
                mask = old_pred & (t[heads] != DOWN)
                xt, xh = tails[mask], heads[mask]
                new_up = unique(xh[t[xh] == UNTOUCHED])
                if new_up.size:
                    t[new_up] = UP
                    san.write("t", new_up, intent="mark")
                    san.read("delta", new_up)
                    delta_hat[new_up] = delta[new_up]
                    san.write("delta_hat", new_up)
                    for lvl in unique(d_new[new_up]):
                        group = new_up[d_new[new_up] == lvl]
                        lvl_touched.setdefault(int(lvl), []).append(group)
                    qq_len += int(new_up.size)
                    # The pre-pass discovers vertices at arbitrary
                    # (new) levels — its queue is unordered.
                    san.enqueue("QQ:prepass", new_up, 0, direction=0)
            with san.interval("prepass-accumulate", 0):
                if xt.size:
                    san.read("sigma", xh)
                    san.read("sigma", xt)
                    san.read("delta", xt)
                    atomic_scatter_add(
                        delta_hat, xh,
                        -(sigma[xh] / sigma[xt]) * (1.0 + delta[xt]),
                        array="delta_hat",
                    )
            acc.prepass(moved=int(movers_all.size), arcs=int(tails.size),
                        subs=int(xt.size))

        # Stage 3': dependency accumulation over new levels, deepest
        # first (discover/accumulate intervals as in Case 2).
        touched_levels = [lvl for lvl, nodes in lvl_touched.items() if nodes]
        max_level = max(touched_levels) if touched_levels else 0
        for level in range(max_level, 0, -1):
            stats.dep_levels += 1
            parts = lvl_touched.get(level, [])
            w_arr = (
                unique(np.concatenate(parts)) if parts
                else np.empty(0, dtype=np.int64)
            )
            adds = subs = arcs = new_up_count = 0
            conflict = 1
            pt = ph = np.empty(0, dtype=np.int64)
            tails = heads = np.empty(0, dtype=np.int64)
            with san.interval("dep-discover", level):
                if w_arr.size:
                    tails, heads = graph.frontier_arcs(w_arr)
                    tails = tails.astype(np.int64)
                    heads = heads.astype(np.int64)
                    arcs = int(tails.size)
                    san.read("d_new", heads)
                    pred = d_new[heads] == level - 1
                    pt, ph = tails[pred], heads[pred]
                    san.read("t", ph)
                    new_up = unique(ph[t[ph] == UNTOUCHED])
                    if new_up.size:
                        t[new_up] = UP
                        san.write("t", new_up, intent="mark")
                        san.read("delta", new_up)
                        delta_hat[new_up] = delta[new_up]
                        san.write("delta_hat", new_up)
                        lvl_touched.setdefault(level - 1, []).append(new_up)
                        new_up_count = int(new_up.size)
                    san.enqueue("QQ:up", new_up, level - 1,
                                distances=d_new, direction=-1)
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
                    conflict = _max_multiplicity(ph)
                if w_arr.size:
                    # Stale contributions: only unmoved poppees still
                    # owe them (moved ones were retired in the
                    # pre-pass), and only "up" predecessors carry old
                    # values.
                    san.read("d", heads)
                    san.read("d", tails)
                    san.read("moved", tails)
                    san.read("t", heads)
                    old_arc = (d[heads] == d[tails] - 1) & ~moved[tails]
                    sub_mask = old_arc & (t[heads] == UP)
                    sp, sh = tails[sub_mask], heads[sub_mask]
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
                qq=qq_len, level_nodes=int(w_arr.size), arcs=arcs,
                adds=adds, subs=subs, new_up=new_up_count,
                max_conflict=conflict,
            )
            qq_len += new_up_count

    stats.moved = int(movers_all.size)
    _commit(source, t, d, d_new, sigma, sigma_hat, delta, delta_hat, bc, acc, stats)
    return stats


# ----------------------------------------------------------------------
def _commit(
    source: int,
    t: np.ndarray,
    d: np.ndarray,
    d_new: Optional[np.ndarray],
    sigma: np.ndarray,
    sigma_hat: np.ndarray,
    delta: np.ndarray,
    delta_hat: np.ndarray,
    bc: np.ndarray,
    acc: UpdateAccountant,
    stats: UpdateStats,
) -> None:
    """Algorithm 8: fold hat-values into the stored state and adjust BC.

    The source's own delta stays pinned at zero (it never contributes
    to any BC score) and its BC is never self-adjusted.  One thread per
    vertex: every access is lane-local except the bc adjustment, which
    is an atomic accumulation across concurrently-committing sources on
    real hardware.
    """
    touched = t != UNTOUCHED
    stats.touched = int(np.count_nonzero(touched))
    apply_mask = touched.copy()
    apply_mask[source] = False
    with san.kernel(f"commit:{source}"):
        with san.interval("commit", 0):
            bc[apply_mask] += delta_hat[apply_mask] - delta[apply_mask]
            sigma[:] = sigma_hat
            delta[apply_mask] = delta_hat[apply_mask]
            if d_new is not None:
                d[:] = d_new
            if san.active():
                san.write("bc", apply_mask, intent="accumulate")
                san.write("sigma", np.arange(t.size))
                san.write("delta", apply_mask)
                if d_new is not None:
                    san.write("d", np.arange(t.size))
    acc.commit(t.size, stats.touched)
