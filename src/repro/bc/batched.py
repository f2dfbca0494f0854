"""Level-synchronous executor for every active source of one update.

The paper runs one source per thread block, all blocks advancing level
by level at once (§III).  :class:`SourceExecutor` does the same on the
host: it applies all Case-2 rows of an update (insertion and its
deletion dual) and all Case-3 insertion rows together, and each BFS,
pull or dependency level becomes one set of NumPy passes over
``(row, vertex)`` keys for every row still active at that level.
Distance-increasing deletions keep the per-source Brandes fallback.

The state transitions are those of :mod:`repro.bc.update_core`, which
stays the per-source reference (the engine's ``vectorized=False``
oracle and its sanitize-mode path).  Results are bit-identical to it:

* rows are independent, so only the order of additions *within* a row
  matters.  Keys sort by row, then vertex, and a row's arcs are
  gathered in the per-source kernel's order — vertices ascending, then
  CSR row order — so every ``atomic_scatter_add`` adds the same values
  to each address in the same order;
* each row keeps its own accountant, charged with the same per-level
  quantities, so its trace — and the :class:`~repro.gpu.counters.
  CostSummary` reduced from it — is the per-source kernel's;
* bc is not touched here: each source's adjustment comes back sparse
  and the caller folds them in ascending source order.

Work scratch is ``(rows, n)`` per batch; the shared ``d``/``sigma``/
``delta`` rows are indexed in place through flat keys, never copied
whole.  A level's rows are split into whole-row passes of at most
:data:`PASS_ARCS` gathered arcs so temporaries stay in cache, and a
row that fills a pass alone runs with the per-source gather (int32
vertex ids into its own row views, no key arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bc.accountants import UpdateAccountant, make_accountant
from repro.bc.cases import Case
from repro.bc.update_core import DOWN, UNTOUCHED, UP, UpdateStats
from repro.gpu.costmodel import CostModel, OpCosts
from repro.gpu.counters import CostSummary
from repro.gpu.primitives import atomic_scatter_add
from repro.graph.csr import CSRGraph
from repro.resilience.errors import CorruptRowError

#: most arcs one level pass gathers; a level whose rows need more is
#: split into several passes of whole rows
PASS_ARCS = 1 << 15

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class SourceResult:
    """One source's share of an update, as the engine's fold needs it."""

    cost: CostSummary
    stats: UpdateStats
    #: sparse bc adjustment: vertex ids and the values to add
    bc_idx: np.ndarray
    bc_vals: np.ndarray


#: ``rebuild(i, acc)`` — rewrite state row *i* from scratch with
#: Brandes, charge the static trace to *acc*, return the row's stats
Rebuild = Callable[[int, UpdateAccountant], UpdateStats]


class SourceExecutor:
    """Applies one update's active source rows level-synchronously."""

    def __init__(self, backend: str, op_costs: OpCosts, access: float,
                 cost_model: CostModel) -> None:
        self.backend = backend
        self.op_costs = op_costs
        self.access = access
        self.cost_model = cost_model

    def run(
        self,
        graph: CSRGraph,
        sources: np.ndarray,
        d: np.ndarray,
        sigma: np.ndarray,
        delta: np.ndarray,
        items: Sequence[tuple],
        operation: str,
        rebuild: Rebuild,
        on_source: Optional[Callable[[int], None]] = None,
    ) -> List[Tuple[int, SourceResult]]:
        """Apply the update to every ``(i, case, u_high, u_low)`` item
        (ascending *i*, Cases 2 and 3 only) in place on the ``(k, n)``
        state arrays; returns ``[(i, SourceResult), ...]`` in item
        order.

        *on_source(i)* runs just before row *i* is first written: the
        fault-injection seam, and how a transaction learns which row
        an exception belongs to.
        """
        insert = operation == "insert"
        adjacent = [it for it in items if int(it[1]) == Case.ADJACENT_LEVEL]
        distant = [it for it in items if int(it[1]) == Case.DISTANT_LEVEL]
        results: Dict[int, SourceResult] = {}
        # Zero divisors only come from corrupted rows; the pre-commit
        # check turns their inf/nan into a CorruptRowError, raised
        # before any row of the batch is written.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # One batch's scratch at a time: each is freed before the
            # next is allocated.
            if adjacent:
                results.update(_Batch(self, graph, sources, d, sigma, delta,
                                      adjacent, case3=False)
                               .case2(insert, on_source))
            if distant and insert:
                results.update(_Batch(self, graph, sources, d, sigma, delta,
                                      distant, case3=True)
                               .case3(on_source))
            elif distant:
                for it in distant:
                    i = int(it[0])
                    results[i] = self._rebuild(i, graph, delta, rebuild,
                                               on_source)
        return [(int(it[0]), results[int(it[0])]) for it in items]

    def accountant(self, graph: CSRGraph) -> UpdateAccountant:
        """A fresh per-source accountant with the classify step charged
        (the per-source kernel's first event)."""
        acc = make_accountant(
            self.backend, graph.num_vertices, 2 * graph.num_edges,
            self.op_costs,
            access_cycles=self.access if self.backend == "cpu" else None,
        )
        acc.classify()
        return acc

    def _rebuild(self, i, graph, delta, rebuild, on_source) -> SourceResult:
        """Distance-increasing deletion: the per-source Brandes
        fallback; the bc adjustment is the full dependency difference."""
        acc = self.accountant(graph)
        delta_old = delta[i].copy()
        if on_source is not None:
            on_source(i)
        stats = rebuild(i, acc)
        diff = delta[i] - delta_old
        idx = np.flatnonzero(diff)
        return SourceResult(self.cost_model.summarize(acc.finish()), stats,
                            idx, diff[idx])


class _Arcs:
    """Arcs leaving one pass's keys, in per-source kernel order: keys
    ascending, then CSR row order.

    Only the head vertex ids are materialized per arc.  Most tests need
    nothing more (``gh``/``lh`` add one spread), and the few arcs a
    test selects get their indices from :meth:`select`, so a hub scan
    that finds 1% predecessors does no key arithmetic for the other
    99%.  Indices address the scratch (*local*) and the shared state
    (*global*): flat keys in a multi-row pass, vertex ids into the
    row's own views in a single-row pass (*b* set).
    """

    def __init__(self, batch: "_Batch", keys: np.ndarray,
                 b: Optional[int]) -> None:
        self.batch, self.keys, self.b = batch, keys, b
        if b is None:
            self.kb = keys // batch.n
            self.v = keys - self.kb * batch.n
        else:
            self.v = keys - batch.lbase[b]
        starts = batch.offsets[self.v]
        self.counts = batch.offsets[self.v + 1] - starts
        self.total = int(self.counts.sum())
        self.first = np.zeros(keys.size, dtype=np.int64)
        np.cumsum(self.counts[:-1], out=self.first[1:])
        idx = np.arange(self.total, dtype=np.int64)
        idx += np.repeat(starts - self.first, self.counts)
        self.heads = batch.cols[idx]

    def spread(self, per_key) -> np.ndarray:
        """A per-key quantity, per arc."""
        return np.repeat(per_key, self.counts)

    def rowwise(self, per_row: np.ndarray):
        """A per-row quantity, per arc (a scalar in a single-row pass)."""
        if self.b is not None:
            return per_row[self.b]
        return self.spread(per_row[self.kb])

    @property
    def lt_keys(self) -> np.ndarray:
        """Local index of each key (the tails)."""
        return self.keys if self.b is None else self.v

    @property
    def gt_keys(self) -> np.ndarray:
        """Global index of each key (the tails)."""
        if self.b is not None:
            return self.v
        return self.keys + self.batch.shift[self.kb]

    @property
    def lh(self) -> np.ndarray:
        """Local index of every head."""
        if self.b is not None:
            return self.heads
        return self.spread(self.batch.lbase[self.kb]) + self.heads

    @property
    def gh(self) -> np.ndarray:
        """Global index of every head."""
        if self.b is not None:
            return self.heads
        return self.spread(self.batch.rows[self.kb] * self.batch.n) + self.heads

    def select(self, mask: np.ndarray) -> "_Sel":
        """The arcs *mask* selects, with their indices."""
        pos = np.flatnonzero(mask)
        kidx = np.searchsorted(self.first, pos, side="right") - 1
        return _Sel.of(self, pos, kidx)

    def row_arcs(self) -> np.ndarray:
        """Arcs per batch row."""
        m = self.batch.m
        if self.b is not None:
            out = np.zeros(m, dtype=np.int64)
            out[self.b] = self.total
            return out
        return np.bincount(self.kb, weights=self.counts,
                           minlength=m).astype(np.int64)


class _Sel:
    """A selection of a pass's arcs, in arc order: ``kidx`` (owning
    key's position), ``rb`` (batch row; the row itself in a single-row
    pass), and local/global tail and head indices."""

    def __init__(self, m, kidx, rb, lt, gt, lh, gh) -> None:
        self.m, self.kidx, self.rb = m, kidx, rb
        self.lt, self.gt, self.lh, self.gh = lt, gt, lh, gh

    @classmethod
    def of(cls, arcs: _Arcs, pos, kidx) -> "_Sel":
        heads = arcs.heads[pos]
        batch = arcs.batch
        if arcs.b is not None:
            tails = arcs.v[kidx]
            return cls(batch.m, kidx, arcs.b, tails, tails, heads, heads)
        rb = arcs.kb[kidx]
        shift = batch.shift[rb]
        lt, lh = arcs.keys[kidx], heads + batch.lbase[rb]
        return cls(batch.m, kidx, rb, lt, lt + shift, lh, lh + shift)

    @property
    def size(self) -> int:
        return int(self.kidx.size)

    def __getitem__(self, mask: np.ndarray) -> "_Sel":
        rb = self.rb if np.ndim(self.rb) == 0 else self.rb[mask]
        return _Sel(self.m, self.kidx[mask], rb, self.lt[mask],
                    self.gt[mask], self.lh[mask], self.gh[mask])

    def per_row(self, per_row: np.ndarray):
        """A per-row quantity for each selected arc."""
        return per_row[self.rb]

    def row_count(self) -> np.ndarray:
        """Selected arcs per batch row."""
        if np.ndim(self.rb) == 0:
            out = np.zeros(self.m, dtype=np.int64)
            out[self.rb] = self.size
            return out
        return np.bincount(self.rb, minlength=self.m)


class _Batch:
    """Scratch and per-row bookkeeping for one case's rows of an update.

    A *local* key ``b * n + v`` addresses the ``(m, n)`` scratch of
    batch row *b*; the matching *global* key ``rows[b] * n + v``
    addresses the shared ``(k, n)`` state.  Both sort by row, then
    vertex.
    """

    def __init__(self, ex: SourceExecutor, graph: CSRGraph, sources, d,
                 sigma, delta, items, case3: bool) -> None:
        n, m = graph.num_vertices, len(items)
        self.ex, self.n, self.m = ex, n, m
        self.offsets, self.cols = graph.row_offsets, graph.col_indices
        self.rows = np.fromiter((it[0] for it in items), np.int64, m)
        self.uh = np.fromiter((it[2] for it in items), np.int64, m)
        self.ul = np.fromiter((it[3] for it in items), np.int64, m)
        self.src = sources[self.rows].astype(np.int64)
        self.D, self.S, self.DL = d, sigma, delta
        self.Df, self.Sf, self.DLf = (d.reshape(-1), sigma.reshape(-1),
                                      delta.reshape(-1))
        self.lbase = np.arange(m, dtype=np.int64) * n
        self.shift = self.rows * n - self.lbase
        self.luh, self.lul = self.lbase + self.uh, self.lbase + self.ul
        self.guh, self.gul = self.luh + self.shift, self.lul + self.shift
        self.T = np.zeros((m, n), dtype=np.int8)
        self.SH = sigma[self.rows]
        self.DH = np.zeros((m, n), dtype=np.float64)
        self.DN = d[self.rows] if case3 else None
        self.MV = np.zeros((m, n), dtype=bool) if case3 else None
        self.Tf, self.SHf, self.DHf = (self.T.reshape(-1), self.SH.reshape(-1),
                                       self.DH.reshape(-1))
        self.DNf = self.DN.reshape(-1) if case3 else None
        self.MVf = self.MV.reshape(-1) if case3 else None
        self.accs = [ex.accountant(graph) for _ in range(m)]
        for acc in self.accs:
            acc.init(n)
        self.qq = np.zeros(m, dtype=np.int64)
        self.sp_levels = np.zeros(m, dtype=np.int64)
        self.dep_levels = np.zeros(m, dtype=np.int64)
        self.moved = np.zeros(m, dtype=np.int64)

    # ------------------------------------------------------------------
    # passes, views and per-row counts
    # ------------------------------------------------------------------
    def passes(self, keys: np.ndarray):
        """Split one level's sorted local *keys* into whole-row passes
        of at most :data:`PASS_ARCS` arcs; yields the :class:`_Arcs` of
        each pass."""
        if keys.size == 0:
            return
        n = self.n
        first, last = int(keys[0]) // n, int(keys[-1]) // n
        if first == last:
            yield _Arcs(self, keys, first)
            return
        v = keys % n
        deg = self.offsets[v + 1] - self.offsets[v]
        if int(deg.sum()) <= PASS_ARCS:
            yield _Arcs(self, keys, None)
            return
        row_arcs = np.bincount(keys // n, weights=deg, minlength=self.m)
        bounds = np.searchsorted(
            keys, np.arange(self.m + 1, dtype=np.int64) * n
        ).tolist()
        start, total = first, 0.0
        for b, arcs in enumerate(row_arcs.tolist()[first:last + 1], first):
            if b > start and total + arcs > PASS_ARCS:
                yield from self._emit(keys, bounds, start, b)
                start, total = b, 0.0
            total += arcs
        yield from self._emit(keys, bounds, start, last + 1)

    def _emit(self, keys, bounds, b0, b1):
        part = keys[bounds[b0]:bounds[b1]]
        if part.size:
            yield _Arcs(self, part, b0 if b1 - b0 == 1 else None)

    def views(self, b: Optional[int]):
        """Scratch and shared arrays a pass indexes: ``(T, SH, DH, DN,
        MV, D, S, DL)``, flat for a multi-row pass, row views for a
        single-row one."""
        if b is None:
            return (self.Tf, self.SHf, self.DHf, self.DNf, self.MVf,
                    self.Df, self.Sf, self.DLf)
        r = int(self.rows[b])
        return (self.T[b], self.SH[b], self.DH[b],
                None if self.DN is None else self.DN[b],
                None if self.MV is None else self.MV[b],
                self.D[r], self.S[r], self.DL[r])

    def to_global(self, idx: np.ndarray, b: Optional[int]) -> np.ndarray:
        """Shared-state indices of pass-local *idx*."""
        if b is not None:
            return idx
        return idx + self.shift[idx // self.n]

    def to_keys(self, idx: np.ndarray, b: Optional[int]) -> np.ndarray:
        """Local keys of pass-local *idx*."""
        if b is None:
            return idx
        return idx.astype(np.int64) + self.lbase[b]

    def per_row(self, keys: np.ndarray) -> np.ndarray:
        """Number of local *keys* in each batch row."""
        return np.bincount(keys // self.n, minlength=self.m)

    def conflict(self, targets: np.ndarray, b: Optional[int],
                 out: np.ndarray) -> None:
        """Worst-case atomics on one address, per row, into *out*."""
        if targets.size == 0:
            return
        keys, counts = np.unique(targets, return_counts=True)
        if b is not None:
            out[b] = int(counts.max())
        else:
            np.maximum.at(out, keys // self.n, counts)

    # ------------------------------------------------------------------
    # Case 2
    # ------------------------------------------------------------------
    def case2(self, insert: bool, on_source) -> Dict[int, SourceResult]:
        m = self.m
        d_low, d_high = self.Df[self.gul], self.Df[self.guh]
        bad = np.flatnonzero(d_low != d_high + 1)
        if bad.size:
            b = int(bad[0])
            raise CorruptRowError(
                int(self.rows[b]),
                f"adjacent-level update requires d[u_low] == d[u_high]+1, "
                f"got d[{self.ul[b]}]={d_low[b]}, d[{self.uh[b]}]={d_high[b]}",
            )
        sign = 1.0 if insert else -1.0
        self.SHf[self.lul] = self.Sf[self.gul] + sign * self.Sf[self.guh]
        self.Tf[self.lul] = DOWN
        self.qq[:] = 1

        # Stage 2: sigma deltas down the unchanged DAG, one level of
        # every row's frontier per iteration.
        frontier, below = self.lul, d_low + 1
        while frontier.size:
            sizes = self.per_row(frontier)
            arcs = np.zeros(m, dtype=np.int64)
            onpath = np.zeros(m, dtype=np.int64)
            raw = np.zeros(m, dtype=np.int64)
            conflict = np.ones(m, dtype=np.int64)
            found: List[np.ndarray] = []
            for a in self.passes(frontier):
                T, SH, _, _, _, D, S, _ = self.views(a.b)
                o = a.select(D[a.gh] == a.rowwise(below))
                raw_new = o.lh[T[o.lh] == UNTOUCHED]
                if o.size:
                    atomic_scatter_add(SH, o.lh, SH[o.lt] - S[o.gt],
                                       array="sigma_hat")
                new = np.unique(raw_new)
                if new.size:
                    T[new] = DOWN
                arcs += a.row_arcs()
                onpath += o.row_count()
                raw += self.per_row(self.to_keys(raw_new, a.b))
                self.conflict(o.lh, a.b, conflict)
                found.append(self.to_keys(new, a.b))
            frontier = _concat(found)
            new_sizes = self.per_row(frontier)
            self.qq += new_sizes
            live = np.flatnonzero(sizes)
            self.sp_levels[live] += 1
            for b, f, a_, o_, r, w, c in zip(
                live.tolist(), sizes[live].tolist(), arcs[live].tolist(),
                onpath[live].tolist(), raw[live].tolist(),
                new_sizes[live].tolist(), conflict[live].tolist(),
            ):
                self.accs[b].sp_level(frontier=f, arcs=a_, onpath=o_,
                                      raw_new=r, new=w, max_conflict=c)
            below += 1

        # Stage 3: dependency accumulation.  Distances are unchanged,
        # so a touched vertex's level is its stored distance.
        touched = np.flatnonzero(self.Tf)
        levels = self.Df[self.to_global(touched, None)]
        self._dependency(touched, levels, d_low if not insert else None,
                         insert, case3=False)
        return self._commit(on_source, case3=False)

    # ------------------------------------------------------------------
    # Case 3 (insertion)
    # ------------------------------------------------------------------
    def case3(self, on_source) -> Dict[int, SourceResult]:
        n, m = self.n, self.m
        d_low, d_high = self.Df[self.gul], self.Df[self.guh]
        bad = np.flatnonzero(~(d_low > d_high + 1))
        if bad.size:
            raise CorruptRowError(
                int(self.rows[int(bad[0])]),
                "distant-level update requires d[u_low] > d[u_high] + 1",
            )
        level = d_high + 1
        self.DNf[self.lul] = level
        self.MVf[self.lul] = True
        self.Tf[self.lul] = DOWN

        # Stage 2': pull-based distance/sigma repair in new-level
        # order, one level of every row per iteration.
        pending = self.lul
        while pending.size:
            sizes = self.per_row(pending)
            pull = np.zeros(m, dtype=np.int64)
            scan = np.zeros(m, dtype=np.int64)
            raw = np.zeros(m, dtype=np.int64)
            found: List[np.ndarray] = []
            for a in self.passes(pending):
                b = a.b
                T, SH, _, DN, MV, _, S, _ = self.views(b)
                cur, cur_g = a.lt_keys, a.gt_keys
                p = a.select(DN[a.lh] == a.rowwise(level) - 1)
                # Pull buffer indexed by position in cur: the same
                # 0.0 + v1 + v2 ... sequence per vertex as pull_buf.
                buf = np.zeros(cur.size, dtype=np.float64)
                if p.size:
                    atomic_scatter_add(buf, p.kidx, SH[p.lh],
                                       array="pull_buf")
                SH[cur] = buf
                changed = MV[cur] | (SH[cur] != S[cur_g])
                reverted = cur[~changed]
                if reverted.size:  # candidate turned out unaffected
                    SH[reverted] = S[cur_g[~changed]]
                    T[reverted] = UNTOUCHED
                pull += p.row_count()
                front = self.to_keys(cur[changed], b)
                if not front.size:
                    continue
                self.qq += self.per_row(front)
                # front is part of this pass's keys: same pass mode
                s = _Arcs(self, front, b)
                heads = s.lh
                next_level = s.rowwise(level) + 1
                movers = np.unique(heads[DN[heads] > next_level])
                if movers.size:
                    DN[movers] = level[movers // n if b is None else b] + 1
                    MV[movers] = True
                cand = DN[heads] == next_level
                nxt = np.unique(heads[cand])
                if nxt.size:
                    T[nxt] = DOWN
                scan += s.row_arcs()
                raw += s.select(cand).row_count()
                found.append(self.to_keys(nxt, b))
            pending = _concat(found)
            new_sizes = self.per_row(pending)
            live = np.flatnonzero(sizes)
            self.sp_levels[live] += 1
            for b, f, p_, s_, r, w in zip(
                live.tolist(), sizes[live].tolist(), pull[live].tolist(),
                scan[live].tolist(), raw[live].tolist(),
                new_sizes[live].tolist(),
            ):
                self.accs[b].pull_level(frontier=f, pull_arcs=p_,
                                        scan_arcs=s_, raw_new=r, new=w)
            level = level + 1

        # Pre-pass: retire moved vertices' old contributions from their
        # old predecessors (pre-update values only).
        movers = np.flatnonzero(self.MVf)
        self.moved = self.per_row(movers)
        arcs = np.zeros(m, dtype=np.int64)
        subs = np.zeros(m, dtype=np.int64)
        for a in self.passes(movers):
            b = a.b
            T, _, DH, _, _, D, S, DL = self.views(b)
            x = a.select(D[a.gh] == a.spread(D[a.gt_keys] - 1))
            x = x[T[x.lh] != DOWN]
            new_up = np.unique(x.lh[T[x.lh] == UNTOUCHED])
            if new_up.size:
                T[new_up] = UP
                DH[new_up] = DL[self.to_global(new_up, b)]
                self.qq += self.per_row(self.to_keys(new_up, b))
            if x.size:
                atomic_scatter_add(
                    DH, x.lh, -(S[x.gh] / S[x.gt]) * (1.0 + DL[x.gt]),
                    array="delta_hat",
                )
            arcs += a.row_arcs()
            subs += x.row_count()
        for acc, mv, a_, s_ in zip(self.accs, self.moved.tolist(),
                                   arcs.tolist(), subs.tolist()):
            acc.prepass(moved=mv, arcs=a_, subs=s_)

        # Stage 3': dependency accumulation over the new levels.
        touched = np.flatnonzero(self.Tf)
        self._dependency(touched, self.DNf[touched], None, True, case3=True)
        return self._commit(on_source, case3=True)

    # ------------------------------------------------------------------
    # Dependency stage (Cases 2 and 3)
    # ------------------------------------------------------------------
    def _dependency(self, touched, levels, removed_base, insert: bool,
                    case3: bool) -> None:
        """Deepest touched level first, every row at once.  A row takes
        part in levels ``max_level .. 1`` of its own; *removed_base*
        (deletions only) is each row's ``d[u_low]``, the level where
        the removed arc is retired explicitly."""
        n, m = self.n, self.m
        max_level = np.zeros(m, dtype=np.int64)
        np.maximum.at(max_level, touched // n, levels)
        order = np.argsort(levels, kind="stable")
        touched, levels = touched[order], levels[order]
        cuts = (np.flatnonzero(np.diff(levels)) + 1).tolist()
        buckets: Dict[int, List[np.ndarray]] = {
            int(levels[start]): [part]
            for start, part in zip([0] + cuts, np.split(touched, cuts))
        }
        for level in range(int(max_level.max()), 0, -1):
            parts = buckets.pop(level, [])
            w = np.unique(_concat(parts)) if parts else _EMPTY
            live = np.flatnonzero(max_level >= level)
            self.dep_levels[live] += 1
            arcs = np.zeros(m, dtype=np.int64)
            adds = np.zeros(m, dtype=np.int64)
            subs = np.zeros(m, dtype=np.int64)
            new_up = np.zeros(m, dtype=np.int64)
            conflict = np.ones(m, dtype=np.int64)
            removed = (_EMPTY if removed_base is None
                       else np.flatnonzero(removed_base == level))
            ups: List[np.ndarray] = []
            for a in self.passes(w):
                b = a.b
                T, SH, DH, DN, MV, D, S, DL = self.views(b)
                p = a.select((DN[a.lh] if case3 else D[a.gh]) == level - 1)
                fresh = np.unique(p.lh[T[p.lh] == UNTOUCHED])
                if fresh.size:
                    T[fresh] = UP
                    DH[fresh] = DL[self.to_global(fresh, b)]
                    fresh = self.to_keys(fresh, b)
                    new_up += self.per_row(fresh)
                    ups.append(fresh)
                lo = b if b is not None else int(a.keys[0]) // n
                hi = b + 1 if b is not None else int(a.keys[-1]) // n + 1
                here = removed[(removed >= lo) & (removed < hi)]
                if here.size:
                    # The removed arc's predecessor may be reachable
                    # only through the arc that no longer exists:
                    # stamp and seed it explicitly.
                    stamp = here[self.Tf[self.luh[here]] == UNTOUCHED]
                    if stamp.size:
                        self.Tf[self.luh[stamp]] = UP
                        self.DHf[self.luh[stamp]] = self.DLf[self.guh[stamp]]
                        new_up[stamp] += 1
                        ups.append(self.luh[stamp])
                if p.size:
                    atomic_scatter_add(
                        DH, p.lh, SH[p.lh] / SH[p.lt] * (1.0 + DH[p.lt]),
                        array="delta_hat",
                    )
                    adds += p.row_count()
                    self.conflict(p.lh, b, conflict)
                # Stale contributions of touched successors, owed by
                # "up" predecessors only (Case 3: by unmoved successors
                # over old DAG arcs; moved ones left in the pre-pass).
                if case3:
                    old = a.select(
                        (D[a.gh] == a.spread(D[a.gt_keys] - 1))
                        & a.spread(~MV[a.lt_keys])
                    )
                    s = old[T[old.lh] == UP]
                else:
                    up = T[p.lh] == UP
                    if insert:  # the new arc had no old contribution
                        up &= ~((p.lh == p.per_row(self.luh if b is None
                                                   else self.uh))
                                & (p.lt == p.per_row(self.lul if b is None
                                                     else self.ul)))
                    s = p[up]
                if s.size:
                    atomic_scatter_add(
                        DH, s.lh, -(S[s.gh] / S[s.gt]) * (1.0 + DL[s.gt]),
                        array="delta_hat",
                    )
                    subs += s.row_count()
                if here.size:
                    # The removed arc's own stale contribution, retired
                    # explicitly (old values only).
                    atomic_scatter_add(
                        self.DHf, self.luh[here],
                        -(self.Sf[self.guh[here]] / self.Sf[self.gul[here]])
                        * (1.0 + self.DLf[self.gul[here]]),
                        array="delta_hat",
                    )
                    subs[here] += 1
                arcs += a.row_arcs()
            if ups:
                buckets.setdefault(level - 1, []).extend(ups)
            nodes = self.per_row(w)
            for b, q, w_, a_, ad, sb, nu, c in zip(
                live.tolist(), self.qq[live].tolist(), nodes[live].tolist(),
                arcs[live].tolist(), adds[live].tolist(), subs[live].tolist(),
                new_up[live].tolist(), conflict[live].tolist(),
            ):
                self.accs[b].dep_level(qq=q, level_nodes=w_, arcs=a_, adds=ad,
                                       subs=sb, new_up=nu, max_conflict=c)
            self.qq += new_up

    # ------------------------------------------------------------------
    # Commit (Algorithm 8)
    # ------------------------------------------------------------------
    def _commit(self, on_source, case3: bool) -> Dict[int, SourceResult]:
        """Check every row, then fold each row's hat values into the
        shared state, one row at a time in ascending order.  Untouched
        entries of σ̂ (and of the new distances) equal the stored ones,
        so writing the touched entries is the full-row commit."""
        n, m = self.n, self.m
        touched = np.flatnonzero(self.Tf)
        sh, dh = self.SHf[touched], self.DHf[touched]
        # σ̂ divisors are touched vertices, so this covers them too.
        bad = ~np.isfinite(sh) | (sh == 0.0) | ~np.isfinite(dh)
        if np.any(bad):
            b = int(touched[np.flatnonzero(bad)[0]]) // n
            raise CorruptRowError(
                int(self.rows[b]),
                f"source {int(self.src[b])}: update produced a zero or "
                f"non-finite sigma-hat or a non-finite delta-hat; the "
                f"stored row is corrupt",
            )
        bounds = np.searchsorted(
            touched, np.arange(m + 1, dtype=np.int64) * n
        ).tolist()
        glob = self.to_global(touched, None)
        apply = touched != (self.lbase + self.src)[touched // n]
        adjust = np.where(apply, dh - self.DLf[glob], 0.0)
        out: Dict[int, SourceResult] = {}
        for b in range(m):
            i = int(self.rows[b])
            lo, hi = bounds[b], bounds[b + 1]
            loc, g, keep = touched[lo:hi], glob[lo:hi], apply[lo:hi]
            vals = adjust[lo:hi]
            nz = np.flatnonzero(vals)
            if on_source is not None:
                on_source(i)
            self.Sf[g] = self.SHf[loc]
            self.DLf[g[keep]] = self.DHf[loc[keep]]
            if case3:
                self.Df[g] = self.DNf[loc]
            acc = self.accs[b]
            acc.commit(n, hi - lo)
            stats = UpdateStats(
                touched=hi - lo, moved=int(self.moved[b]),
                sp_levels=int(self.sp_levels[b]),
                dep_levels=int(self.dep_levels[b]),
            )
            out[i] = SourceResult(
                self.ex.cost_model.summarize(acc.finish()), stats,
                loc[nz] - self.lbase[b], vals[nz],
            )
        return out


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)
