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
* each batch charges its per-level quantities, as arrays over rows,
  through the backend's step formulas into one
  :class:`~repro.gpu.ledger.CostLedger`, which costs and folds each
  row's steps as the per-source kernel's trace would be;
* the executor writes no state: each row comes back with its
  write-set (touched vertex ids and their new ``d``, σ and δ), and the
  engine commits the rows and derives the bc adjustments in ascending
  source order.

:meth:`SourceExecutor.run` returns one :class:`RowResults`: flat
columns over its rows, which a pool chunk ships as a handful of
arrays.

Work scratch is ``(rows, n)`` per batch; the shared ``d``/``sigma``/
``delta`` rows are read through flat keys, never copied whole.  A
level's rows are split into whole-row passes of at most
:data:`PASS_ARCS` gathered arcs so temporaries stay in cache, and a
row that fills a pass alone runs with the per-source gather (int32
vertex ids into its own row views, no key arithmetic).

A dependency level finds its predecessor arcs from the smaller side,
per row (direction-optimizing, as Beamer et al.'s BFS): top-down over
every arc of the level's keys, or bottom-up over every arc of the
row's previous level, kept when it reaches a key.  Both select the
same arcs in the same order, and each row is charged the top-down scan
the per-source kernel performs, so only host time depends on the
direction.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bc.accountants import UpdateAccountant, make_accountant
from repro.bc.cases import Case
from repro.bc.update_core import DOWN, UNTOUCHED, UP, UpdateStats
from repro.gpu.costmodel import CostModel, OpCosts
from repro.gpu.counters import Trace
from repro.gpu.ledger import CostLedger
from repro.gpu.primitives import atomic_scatter_add, unique
from repro.graph.csr import CSRGraph
from repro.resilience.errors import CorruptRowError

#: most arcs one level pass gathers; a level whose rows need more is
#: split into several passes of whole rows
PASS_ARCS = 1 << 15
#: a dependency level's row weighs a bottom-up gather only when its
#: top-down gather reaches this many arcs; lighter rows keep the
#: top-down path unweighed (docs/MODEL.md §6)
BOTTOM_UP_ARCS = 1 << 11

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class RowResults:
    """An update's active rows, ascending, as the engine's fold needs
    them: one flat column per field (:meth:`arrays`), which is also
    what a pool chunk ships."""

    #: state row ids, ascending
    rows: np.ndarray
    #: per row: simulated seconds, stage seconds (columns in
    #: :data:`~repro.gpu.ledger.STAGES` order), and counter totals
    seconds: np.ndarray
    stages: np.ndarray
    steps: np.ndarray
    items: np.ndarray
    bytes_moved: np.ndarray
    atomics: np.ndarray
    #: :class:`UpdateStats` fields per row, in field order
    stats: np.ndarray
    #: each row's write-set, CSR-packed: row *j*'s ``nkeys[j]`` vertex
    #: ids, ascending, with their new ``d``, σ and δ; rows in order
    nkeys: np.ndarray
    keys: np.ndarray
    d: np.ndarray
    sigma: np.ndarray
    delta: np.ndarray

    def arrays(self) -> tuple:
        """The columns in field order (``RowResults(*arrays)`` rebuilds
        the result)."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def sorted(self) -> "RowResults":
        """These rows in ascending order."""
        order = np.argsort(self.rows, kind="stable")
        starts = np.cumsum(self.nkeys) - self.nkeys
        lens = self.nkeys[order]
        at = (np.arange(int(lens.sum()))
              + np.repeat(starts[order] - (np.cumsum(lens) - lens), lens))
        columns = self.arrays()
        return RowResults(*(a[order] for a in columns[:-5]), lens,
                          *(a[at] for a in columns[-4:]))


#: ``rebuild(i)`` — a fresh Brandes pass for state row *i*: its new
#: ``(d, sigma, delta)`` rows, its stats and its static trace
Rebuild = Callable[[int], Tuple[tuple, UpdateStats, Trace]]


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
    ) -> RowResults:
        """Compute the update of every ``(i, case, u_high, u_low)`` item
        (ascending *i*, Cases 2 and 3 only, at least one) from the
        ``(k, n)`` state arrays, which it only reads; returns the
        items' rows, ascending, each with its write-set.
        """
        insert = operation == "insert"
        adjacent = [it for it in items if int(it[1]) == Case.ADJACENT_LEVEL]
        distant = [it for it in items if int(it[1]) == Case.DISTANT_LEVEL]
        # The strategy's step formulas, charged over every batch's rows
        # into one ledger: the adjacent rows first, then the distant.
        book = make_accountant(
            self.backend, graph.num_vertices, 2 * graph.num_edges,
            self.op_costs,
            access_cycles=self.access if self.backend == "cpu" else None,
        )
        ledger = CostLedger(len(items))
        parts: List[tuple] = []
        # Zero divisors only come from corrupted rows; the pre-commit
        # check turns their inf/nan into a CorruptRowError.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # One batch's scratch at a time: each is freed before the
            # next is allocated.
            if adjacent:
                parts.append(_Batch(self, book, ledger, 0, graph, sources, d,
                                    sigma, delta, adjacent, case3=False)
                             .case2(insert))
            if distant and insert:
                parts.append(_Batch(self, book, ledger, len(adjacent), graph,
                                    sources, d, sigma, delta, distant,
                                    case3=True)
                             .case3())
            elif distant:
                parts.append(self._rebuild(book, ledger, len(adjacent),
                                           distant, graph.num_vertices,
                                           rebuild))
        rows, stats, *write_set = (np.concatenate(col) for col in zip(*parts))
        out = RowResults(rows, *ledger.close(self.cost_model), stats,
                         *write_set)
        return out if len(parts) == 1 else out.sorted()

    def _rebuild(self, book: UpdateAccountant, ledger: CostLedger,
                 offset: int, items, n: int, rebuild: Rebuild) -> tuple:
        """Distance-increasing deletions: the per-source Brandes
        fallback, charged to *ledger* rows ``offset, offset + 1, ...``.
        A row's cost is its classify step plus the static trace of the
        rebuild, and its write-set is the whole fresh row.  Returns the
        rows' ``(rows, stats, nkeys, keys, d, sigma, delta)``."""
        rows = np.array([int(it[0]) for it in items], dtype=np.int64)
        ledger.charge(np.arange(rows.size) + offset, book.classify_steps())
        stats, fresh = [], []
        for b, i in enumerate(rows.tolist()):
            row, row_stats, trace = rebuild(i)
            ledger.add_trace(offset + b, trace.steps)
            stats.append(astuple(row_stats))
            fresh.append(row)
        return (rows, np.array(stats, dtype=np.int64),
                np.full(rows.size, n, dtype=np.int64),
                np.tile(np.arange(n, dtype=np.int64), rows.size),
                *(np.concatenate(col) for col in zip(*fresh)))


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

    def preds(self, level: int, case3: bool):
        """Top-down: the dependency level's predecessor arcs among all
        arcs of the keys, and (Case 3) the old-DAG arcs of its unmoved
        keys; ``(p, old)``."""
        _, _, _, DN, MV, D, _, _ = self.batch.views(self.b)
        p = self.select((DN[self.lh] if case3 else D[self.gh]) == level - 1)
        if not case3:
            return p, None
        return p, self.select((D[self.gh] == self.spread(D[self.gt_keys] - 1))
                              & self.spread(~MV[self.lt_keys]))


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


class _BottomUp:
    """A dependency level's pass that finds its rows' predecessor arcs
    bottom-up; it stands in for the top-down :class:`_Arcs` of *keys*
    (every key of its rows at *level*).

    Every arc leaving the rows' previous level *prev* is gathered and
    kept when its head is one of the keys: a touched vertex at stage
    distance *level*, since the level's bucket holds every such vertex
    by the time the level runs.  The kept arcs are reversed (adjacency
    is symmetric) and put in the order the top-down scan finds them,
    keys ascending then CSR order — (key, predecessor) order, CSR rows
    being sorted — so :meth:`preds` returns the :class:`_Sel` that
    :meth:`_Arcs.preds` would, and every scatter-add sees the same
    sequence.
    """

    def __init__(self, batch: "_Batch", keys: np.ndarray, deg: np.ndarray,
                 b: Optional[int], prev: np.ndarray, level: int,
                 case3: bool) -> None:
        self.batch, self.keys, self.deg, self.b = batch, keys, deg, b
        up = _Arcs(batch, prev, b)
        self.total = up.total
        T, _, _, DN, MV, D, _, _ = batch.views(b)
        lh = up.lh
        key = (DN[lh] if case3 else D[up.gh]) == level
        key &= T[lh] != UNTOUCHED
        if not case3:  # prev is exactly the stored level - 1
            self.p, self.old = self._reverse(up.select(key)), None
            return
        # prev holds the new and the stored level - 1: the new-DAG
        # predecessors and the old-DAG arcs of unmoved keys
        self.p = self._reverse(
            up.select(key & up.spread(DN[up.lt_keys] == level - 1)))
        self.old = self._reverse(
            up.select(key & ~MV[lh] & up.spread(D[up.gt_keys] == level - 1)))

    def _reverse(self, q: _Sel) -> _Sel:
        """Arcs ``prev -> key`` as ``key -> prev``, in top-down order."""
        order = np.argsort(q.lh, kind="stable")
        lt = q.lh[order]
        local = lt if self.b is None else lt + self.batch.lbase[self.b]
        rb = q.rb if self.b is not None else q.rb[order]
        return _Sel(self.batch.m, np.searchsorted(self.keys, local), rb,
                    lt, q.gh[order], q.lt[order], q.gt[order])

    def preds(self, level: int, case3: bool):
        return self.p, self.old

    def row_arcs(self) -> np.ndarray:
        """Arcs per batch row the top-down scan of the keys gathers:
        what the per-source kernel is charged."""
        return np.bincount(self.keys // self.batch.n, weights=self.deg,
                           minlength=self.batch.m).astype(np.int64)


class _Batch:
    """Scratch and per-row bookkeeping for one case's rows of an update.

    A *local* key ``b * n + v`` addresses the ``(m, n)`` scratch of
    batch row *b*; the matching *global* key ``rows[b] * n + v``
    addresses the shared ``(k, n)`` state.  Both sort by row, then
    vertex.
    """

    def __init__(self, ex: SourceExecutor, book: UpdateAccountant,
                 ledger: CostLedger, offset: int, graph: CSRGraph, sources,
                 d, sigma, delta, items, case3: bool) -> None:
        n, m = graph.num_vertices, len(items)
        self.ex, self.book, self.n, self.m = ex, book, n, m
        self.offsets, self.cols = graph.row_offsets, graph.col_indices
        self.deg = np.diff(self.offsets)
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
        #: every row's steps, charged as the per-source kernel's
        #: accountant would be, to ledger rows ``offset + b``: classify
        #: and init first
        self.ledger, self.offset = ledger, offset
        self.all = np.arange(m, dtype=np.int64)
        self.charge(self.all, book.classify_steps())
        self.charge(self.all, book.init_steps(n))
        self.qq = np.zeros(m, dtype=np.int64)
        self.sp_levels = np.zeros(m, dtype=np.int64)
        self.dep_levels = np.zeros(m, dtype=np.int64)
        self.moved = np.zeros(m, dtype=np.int64)
        #: the running dependency level's previous level, for the rows
        #: :meth:`bottom_up` sent bottom-up: row -> (local keys, arcs)
        self.prev: Dict[int, Tuple[np.ndarray, int]] = {}

    # ------------------------------------------------------------------
    # passes, views and per-row counts
    # ------------------------------------------------------------------
    def charge(self, live: np.ndarray, steps) -> None:
        """Charge a step formula's quantities over batch rows *live*."""
        self.ledger.charge(live + self.offset, steps)

    def degrees(self, keys: np.ndarray) -> np.ndarray:
        """Degree of the vertex of each local key."""
        return self.deg[keys % self.n]

    def passes(self, keys: np.ndarray, deg: Optional[np.ndarray] = None):
        """Split one level's sorted local *keys* into whole-row passes
        of at most :data:`PASS_ARCS` arcs; yields the :class:`_Arcs` of
        each pass.  *deg* is the keys' degrees, when known."""
        if keys.size == 0:
            return
        n = self.n
        first, last = int(keys[0]) // n, int(keys[-1]) // n
        if first == last:
            yield _Arcs(self, keys, first)
            return
        if deg is None:
            deg = self.degrees(keys)
        if int(deg.sum()) <= PASS_ARCS:
            yield _Arcs(self, keys, None)
            return
        row_arcs = np.bincount(keys // n, weights=deg, minlength=self.m)
        bounds = np.searchsorted(
            keys, np.arange(self.m + 1, dtype=np.int64) * n
        ).tolist()
        for s, e in _runs(row_arcs.tolist()[first:last + 1]):
            b0, b1 = first + s, first + e
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
    # dependency-level direction
    # ------------------------------------------------------------------
    def dep_passes(self, w: np.ndarray, level: int, case3: bool):
        """The passes of dependency level *level* over its sorted local
        keys *w*: top-down, except for the rows :meth:`bottom_up`
        picks."""
        self.prev = {}
        deg = self.degrees(w)
        rows = self.bottom_up(w, deg, level, case3)
        if not rows.size:
            yield from self.passes(w, deg)
            return
        up = np.zeros(self.m, dtype=bool)
        up[rows] = True
        mask = up[w // self.n]
        yield from self.passes(w[~mask], deg[~mask])
        yield from self.up_passes(w[mask], deg[mask], rows, level, case3)

    def bottom_up(self, w: np.ndarray, deg: np.ndarray, level: int,
                  case3: bool) -> np.ndarray:
        """Rows (ascending, each holding keys in *w*) that find level
        *level*'s predecessors bottom-up: those whose top-down gather
        reaches :data:`BOTTOM_UP_ARCS` and exceeds their previous
        level's arcs.  The direction seam: tests force either direction
        here."""
        if int(deg.sum()) < BOTTOM_UP_ARCS:
            return _EMPTY
        top_down = np.bincount(w // self.n, weights=deg, minlength=self.m)
        rows = []
        for b in np.flatnonzero(top_down >= BOTTOM_UP_ARCS).tolist():
            prev = self.previous(b, level, case3)
            if prev[1] < top_down[b]:
                self.prev[b] = prev  # held: fewer arcs than the scan
                rows.append(b)
        return np.array(rows, dtype=np.int64)

    def previous(self, b: int, level: int, case3: bool):
        """Row *b*'s previous level, read from its stage distances:
        ``(local keys, arcs)`` of its vertices at ``level - 1`` — stored
        distance, or (Case 3) new or stored distance, which covers the
        new-DAG predecessors and the old-DAG retirements."""
        at = self.D[self.rows[b]] == level - 1
        if case3:
            at |= self.DN[b] == level - 1
        v = np.flatnonzero(at)
        return v + self.lbase[b], int(self.deg[v].sum())

    def up_passes(self, keys: np.ndarray, deg: np.ndarray, rows: np.ndarray,
                  level: int, case3: bool):
        """Bottom-up passes of *rows* (ascending), whose level keys are
        *keys*: whole rows, at most :data:`PASS_ARCS` previous-level
        arcs gathered per pass."""
        n = self.n
        prev = [self.prev.get(b) or self.previous(b, level, case3)
                for b in rows.tolist()]
        lo = np.searchsorted(keys, rows * n).tolist()
        hi = np.searchsorted(keys, (rows + 1) * n).tolist()
        for s, e in _runs([arcs for _, arcs in prev]):
            part = slice(lo[s], hi[e - 1])
            yield _BottomUp(self, keys[part], deg[part],
                            int(rows[s]) if e - s == 1 else None,
                            _concat([k for k, _ in prev[s:e]]), level, case3)

    # ------------------------------------------------------------------
    # Case 2
    # ------------------------------------------------------------------
    def case2(self, insert: bool) -> tuple:
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
                new = unique(raw_new)
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
            self.charge(live, self.book.sp_steps(
                sizes[live], arcs[live], onpath[live], raw[live],
                new_sizes[live], conflict[live]))
            below += 1

        # Stage 3: dependency accumulation.  Distances are unchanged,
        # so a touched vertex's level is its stored distance.
        touched = np.flatnonzero(self.Tf)
        levels = self.Df[self.to_global(touched, None)]
        self._dependency(touched, levels, d_low if not insert else None,
                         insert, case3=False)
        return self._commit(case3=False)

    # ------------------------------------------------------------------
    # Case 3 (insertion)
    # ------------------------------------------------------------------
    def case3(self) -> tuple:
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
                movers = unique(heads[DN[heads] > next_level])
                if movers.size:
                    DN[movers] = level[movers // n if b is None else b] + 1
                    MV[movers] = True
                cand = DN[heads] == next_level
                nxt = unique(heads[cand])
                if nxt.size:
                    T[nxt] = DOWN
                scan += s.row_arcs()
                raw += s.select(cand).row_count()
                found.append(self.to_keys(nxt, b))
            pending = _concat(found)
            new_sizes = self.per_row(pending)
            live = np.flatnonzero(sizes)
            self.sp_levels[live] += 1
            self.charge(live, self.book.pull_steps(
                sizes[live], pull[live], scan[live], raw[live],
                new_sizes[live]))
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
            new_up = unique(x.lh[T[x.lh] == UNTOUCHED])
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
        self.charge(self.all, self.book.prepass_steps(self.moved, arcs, subs))

        # Stage 3': dependency accumulation over the new levels.
        touched = np.flatnonzero(self.Tf)
        self._dependency(touched, self.DNf[touched], None, True, case3=True)
        return self._commit(case3=True)

    # ------------------------------------------------------------------
    # Dependency stage (Cases 2 and 3)
    # ------------------------------------------------------------------
    def _dependency(self, touched, levels, removed_base, insert: bool,
                    case3: bool) -> None:
        """Deepest touched level first, every row at once.  A row takes
        part in levels ``max_level .. 1`` of its own; *removed_base*
        (deletions only) is each row's ``d[u_low]``, the level where
        the removed arc is retired explicitly."""
        m = self.m
        max_level = np.zeros(m, dtype=np.int64)
        np.maximum.at(max_level, touched // self.n, levels)
        order = np.argsort(levels, kind="stable")
        touched, levels = touched[order], levels[order]
        cuts = (np.flatnonzero(np.diff(levels)) + 1).tolist()
        buckets: Dict[int, List[np.ndarray]] = {
            int(levels[start]): [part]
            for start, part in zip([0] + cuts, np.split(touched, cuts))
        }
        for level in range(int(max_level.max()), 0, -1):
            parts = buckets.pop(level, [])
            w = unique(_concat(parts)) if parts else _EMPTY
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
            for a in self.dep_passes(w, level, case3):
                b = a.b
                T, SH, DH, DN, MV, D, S, DL = self.views(b)
                p, old = a.preds(level, case3)
                fresh = unique(p.lh[T[p.lh] == UNTOUCHED])
                if fresh.size:
                    T[fresh] = UP
                    DH[fresh] = DL[self.to_global(fresh, b)]
                    fresh = self.to_keys(fresh, b)
                    new_up += self.per_row(fresh)
                    ups.append(fresh)
                # rows whose removed arc retires here: u_low is one of
                # this pass's keys (its row's keys are all in one pass)
                here = (removed[_holds(a.keys, self.lul[removed])]
                        if removed.size else removed)
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
            self.charge(live, self.book.dep_steps(
                self.qq[live], self.per_row(w)[live], arcs[live], adds[live],
                subs[live], new_up[live], conflict[live]))
            self.qq += new_up

    # ------------------------------------------------------------------
    # Commit (Algorithm 8)
    # ------------------------------------------------------------------
    def _commit(self, case3: bool) -> tuple:
        """Check every row and return its write-set, the commit the
        engine performs (Algorithm 8): the touched vertices' σ̂, δ̂ —
        except at the source, whose δ stays as stored — and new (Case 3)
        or stored distances.  Untouched entries of σ̂ (and of the new
        distances) equal the stored ones, so writing the touched
        entries is the full-row commit.  Returns the rows' ``(rows,
        stats, nkeys, keys, d, sigma, delta)``."""
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
        glob = self.to_global(touched, None)
        row_of = touched // n
        at_source = touched == (self.lbase + self.src)[row_of]
        counts = np.bincount(row_of, minlength=m)
        self.charge(self.all, self.book.commit_steps(n, counts))
        return (self.rows,
                np.column_stack([counts, self.moved, self.sp_levels,
                                 self.dep_levels]),
                counts, touched - row_of * n,
                self.DNf[touched] if case3 else self.Df[glob], sh,
                np.where(at_source, self.DLf[glob], dh))


def _runs(costs: List[int]):
    """Split consecutive items into runs ``[s, e)`` of at most
    :data:`PASS_ARCS` total cost; an item that exceeds it runs alone."""
    start, total = 0, 0
    for j, cost in enumerate(costs):
        if j > start and total + cost > PASS_ARCS:
            yield start, j
            start, total = j, 0
        total += cost
    yield start, len(costs)


def _holds(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Which of *probe* the sorted, non-empty *keys* hold."""
    pos = np.minimum(np.searchsorted(keys, probe), keys.size - 1)
    return keys[pos] == probe


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return _EMPTY
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)
