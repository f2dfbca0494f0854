"""Unified dynamic-BC engine.

:class:`DynamicBC` owns a mutable graph plus the per-source state and
applies streaming edge insertions/deletions under one of the
execution strategies ("backends"):

* ``"cpu"``             — Green et al.'s sequential algorithm on the i7 model;
* ``"gpu-edge"``        — edge-parallel kernels on the virtual GPU;
* ``"gpu-node"``        — node-parallel kernels on the virtual GPU;
* ``"gpu-node-atomic"`` — the §III-A atomic-dedup variant (ablation).

Every update returns an :class:`UpdateReport` carrying the per-source
case distribution (Fig. 2), touched counts (Fig. 4), simulated seconds
(Tables II/III) and wall-clock seconds of the vectorized execution.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bc.accountants import ACCOUNTANTS, CLASSIFY_STEP, make_accountant
from repro.bc.batched import MOVED, SIGMA, RowResults
from repro.bc.brandes import single_source_state
from repro.bc.cases import (
    Case,
    classify_deletion,
    classify_deletions_batch,
    classify_insertion,
    classify_insertions_batch,
)
from repro.bc.state import BCState
from repro.bc.static_gpu import trace_static_source
from repro.bc.update_core import (
    UpdateStats,
    adjacent_level_update,
    distant_level_update,
)
from repro.gpu.costmodel import (
    DEFAULT_OP_COSTS,
    CostModel,
    OpCosts,
    cpu_access_cycles,
)
from repro.gpu.counters import KernelCounters, Trace
from repro.gpu.device import CORE_I7_2600K, TESLA_C2075, DeviceSpec
from repro.gpu.executor import schedule_blocks
from repro.gpu.ledger import STAGES, stage_order
from repro.graph.csr import CSRGraph, DIST_INF
from repro.graph.dynamic import DynamicGraph
from repro.parallel.pool import ParallelExecutionError, WorkerTaskError
from repro.parallel.reducer import merge_indexed, rebuild_trace
from repro.parallel.shm import ShmArena, shm_available
from repro.parallel.supervisor import (
    HealthEvent,
    SupervisedPool,
    SupervisorPolicy,
)
from repro.parallel.worker import run_task
from repro.resilience.errors import CorruptRowError, UpdateError
from repro.resilience.transactions import UpdateTransaction
from repro.sanitize import tracer as _san
from repro.sanitize.report import SanitizerReport
from repro.utils.prng import SeedLike, default_rng, sample_without_replacement
from repro.utils.timing import WallTimer

#: valid backend names
BACKENDS = tuple(sorted(ACCOUNTANTS))

#: kernels launched per update on the GPU (init, SP, dep, commit)
_LAUNCHES_PER_UPDATE = 4


@dataclass
class UpdateReport:
    """Everything observable about one streaming update."""

    edge: tuple
    operation: str  # "insert" | "delete"
    cases: np.ndarray  # int8[k], per-source scenario
    per_source_seconds: np.ndarray  # float64[k], simulated
    simulated_seconds: float  # scheduled makespan of the whole update
    wall_seconds: float
    touched: np.ndarray  # int64[k], |{v : t[v] != untouched}| per source
    counters: KernelCounters
    stats: List[Optional[UpdateStats]] = field(default_factory=list)
    #: simulated seconds per kernel stage, summed over all sources
    #: (keys: classify, init, sp, dep, pull, prepass, dedup, commit)
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def case_histogram(self) -> Dict[int, int]:
        values, counts = np.unique(self.cases, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


@dataclass
class BatchResult:
    """Outcome of a batch mutation (:meth:`DynamicBC.insert_edges` /
    :meth:`DynamicBC.delete_edges`): one report per applied edge plus
    the pairs that were skipped (already present / absent / self loop)
    instead of silently dropping them.

    Iterating or ``len()``-ing the result walks the applied reports, so
    stream-replay style callers keep working unchanged.
    """

    reports: List[UpdateReport] = field(default_factory=list)
    skipped: List[Tuple[int, int]] = field(default_factory=list)

    def __iter__(self) -> Iterator[UpdateReport]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)


def _case_arrays(classifications) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cases, u_high, u_low)`` arrays from a batch classifier's
    tuple or from the per-source ``(case, high, low)`` list the
    ``vectorized=False`` deletion path builds (either reaches either
    apply path: the pool and the sanitizer override ``vectorized``)."""
    if isinstance(classifications, tuple):
        cases, highs, lows = classifications
        return np.asarray(cases, dtype=np.int8), highs, lows
    cases = np.array([int(c) for c, _, _ in classifications], dtype=np.int8)
    highs = np.array([int(h) for _, h, _ in classifications], dtype=np.int64)
    lows = np.array([int(lo) for _, _, lo in classifications], dtype=np.int64)
    return cases, highs, lows


def split_round(items: Sequence, workers: int) -> List[Sequence]:
    """Cut one pool round into ``min(workers, len(items))`` contiguous
    shares whose sizes differ by at most one: a fixed share per worker,
    as :func:`~repro.gpu.executor.schedule_blocks` gives each SM one.
    Concatenated in order the shares are *items*, so the ascending
    source fold (and bit-identity) never depends on the cut."""
    parts = min(workers, len(items))
    cut = [len(items) * j // max(parts, 1) for j in range(parts + 1)]
    return [items[a:b] for a, b in zip(cut, cut[1:])]


def rebuild_row(graph: CSRGraph, s: int, strategy: str, op_costs: OpCosts,
                access: float) -> Tuple[tuple, UpdateStats, Trace]:
    """A fresh Brandes pass from source *s*: its new ``(d, sigma,
    delta)`` rows (δ zero at *s*), the pass's stats, and the static
    per-source trace it is charged, built from the levels the pass just
    produced under the nearest static *strategy*
    (:meth:`DynamicBC._static_strategy`).  The per-source loop and the
    ``update`` and ``rebuild`` round tasks share it; only the loop and
    the ``rebuild`` task (:meth:`DynamicBC.repair_source`) write the
    rows in place."""
    d, sigma, delta, levels = single_source_state(graph, s)
    delta[s] = 0.0
    _, trace = trace_static_source(graph, s, strategy, op_costs, access,
                                   rebuilt=(d, levels))
    stats = UpdateStats(touched=int(np.count_nonzero(d != DIST_INF)),
                        moved=0, sp_levels=len(levels),
                        dep_levels=len(levels) - 1)
    return (d, sigma, delta), stats, trace


class DynamicBC:
    """Streaming betweenness centrality with stored per-source state."""

    def __init__(
        self,
        graph: Union[DynamicGraph, CSRGraph],
        state: BCState,
        backend: str = "gpu-node",
        device: Optional[DeviceSpec] = None,
        num_blocks: int = 0,
        op_costs: OpCosts = DEFAULT_OP_COSTS,
        vectorized: bool = True,
        workers: int = 1,
        supervisor_policy: Optional[SupervisorPolicy] = None,
        sanitize: bool = False,
    ) -> None:
        if backend not in ACCOUNTANTS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self.graph = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph.from_csr(graph)
        )
        if state.num_vertices != self.graph.num_vertices:
            raise ValueError(
                f"state has {state.num_vertices} vertices, graph has "
                f"{self.graph.num_vertices}"
            )
        self.state = state
        self.backend = backend
        if device is None:
            device = CORE_I7_2600K if backend == "cpu" else TESLA_C2075
        self.device = device
        self.cost_model = CostModel(device, num_blocks)
        self.num_blocks = self.cost_model.num_blocks
        self.op_costs = op_costs
        #: escape hatch for the differential tests: ``False`` runs the
        #: original per-source loop over the per-source kernels instead
        #: of the level-synchronous executor (identical reports either
        #: way — see tests/test_engine_vectorized.py and
        #: tests/test_bc_batched.py).
        self.vectorized = bool(vectorized)
        #: the open update's rollback journal: every update is atomic —
        #: a mid-update exception rolls graph, state rows, BC scores
        #: and counters back to their pre-update values and surfaces a
        #: structured :class:`~repro.resilience.errors.UpdateError`
        self._txn: Optional[UpdateTransaction] = None
        self.counters = KernelCounters()
        #: coarse-grained source parallelism: a supervised worker pool
        #: sharing the CSR arrays and state rows — the CPU analogue of
        #: the paper's one-source-per-SM decomposition (docs/MODEL.md,
        #: "Parallel execution"), in which the parent computes one of
        #: the N shares and forks N - 1 workers.  ``1`` runs serially;
        #: every reported artifact is bit-identical either way.
        self.workers = max(1, int(workers))
        #: heartbeat, respawn, quarantine and ladder tuning of the pool
        self.supervisor_policy = supervisor_policy
        #: ``True`` runs every kernel under the race sanitizer
        #: (:mod:`repro.sanitize.tracer`): the engine executes serially
        #: (the pool is bypassed — the parallel contract guarantees
        #: bit-identical results, so only wall-clock differs) and every
        #: reported artifact stays bit-identical to an uninstrumented
        #: run; hazards accumulate in :meth:`sanitizer_report`.
        self.sanitize = bool(sanitize)
        self._tracer: Optional[_san.MemoryTracer] = (
            _san.MemoryTracer() if self.sanitize else None
        )
        self._pool: Optional[SupervisedPool] = None
        self._arena: Optional[ShmArena] = None
        self._parallel_disabled = False
        #: identity signature of the state arrays adopted into shm
        self._adopted: Optional[tuple] = None
        self._graph_capacity = 0
        #: parent-side seconds spent folding worker results (the
        #: reduction half of the dispatch+reduction overhead metric)
        self._fold_seconds = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: Union[DynamicGraph, CSRGraph],
        num_sources: Optional[int] = None,
        sources: Optional[Sequence[int]] = None,
        backend: str = "gpu-node",
        device: Optional[DeviceSpec] = None,
        num_blocks: int = 0,
        seed: SeedLike = None,
        op_costs: OpCosts = DEFAULT_OP_COSTS,
        vectorized: bool = True,
        workers: int = 1,
        supervisor_policy: Optional[SupervisorPolicy] = None,
        sanitize: bool = False,
    ) -> "DynamicBC":
        """Build the engine, computing the initial state with Brandes.

        Give either ``sources`` explicitly or ``num_sources`` random
        ones (``None`` means exact BC over all vertices).

        ``workers > 1`` runs the k initial Brandes passes — and every
        subsequent update/recompute/check — on a shared-memory worker
        pool; the resulting state is bit-identical to the serial build
        (the bc fold happens in the parent, in source order).

        ``sanitize=True`` builds the engine in race-sanitizer mode:
        every update/recompute kernel from here on is traced
        (:meth:`sanitizer_report`); execution is serial (bypassing any
        worker pool) but bit-identical.  The initial Brandes build
        itself is not traced — use ``brandes_bc(..., sanitize=True)``
        to check the static kernels.
        """
        n = graph.num_vertices
        if sources is None and num_sources is not None:
            # Same sampling calls as BCState.compute_with_random_sources
            # so the engine and the plain state pick the same sources.
            sources = sample_without_replacement(default_rng(seed), n,
                                                 min(num_sources, n))
        elif sources is None:
            sources = range(n)
        engine = cls(graph, BCState.empty(sources, n), backend, device,
                     num_blocks, op_costs, vectorized, workers=workers,
                     supervisor_policy=supervisor_policy, sanitize=sanitize)
        engine._round("brandes", range(engine.state.num_sources))
        engine.state.rebuild_bc()
        return engine

    # ------------------------------------------------------------------
    @property
    def bc_scores(self) -> np.ndarray:
        """Current (approximate) BC scores — live view, do not mutate."""
        return self.state.bc

    @property
    def sources(self) -> np.ndarray:
        return self.state.sources

    def bc_snapshot(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Export a detached copy of the current BC scores.

        Unlike :attr:`bc_scores` (a live view that mutates under the
        caller as updates land), the returned array is the caller's to
        keep — the service layer's snapshot-publication hook.  Pass
        *out* (a ``float64[n]`` buffer) to copy in place and avoid a
        transient allocation; it is returned for convenience.
        """
        bc = self.state.bc
        if out is None:
            return bc.copy()
        if out.shape != bc.shape or out.dtype != bc.dtype:
            raise ValueError(
                f"out must be {bc.dtype}{list(bc.shape)}, got "
                f"{out.dtype}{list(out.shape)}"
            )
        np.copyto(out, bc)
        return out

    def top_k(self, k: int = 10) -> List:
        """The k most central vertices right now, as ``(vertex, score)``
        pairs in descending order — §II-A: "Typically the vertices with
        the highest BC scores are of particular interest"."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        k = min(k, self.state.num_vertices)
        order = np.argsort(self.state.bc)[::-1][:k]
        return [(int(v), float(self.state.bc[v])) for v in order]

    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> UpdateReport:
        """Insert edge {u, v} and update the analytic.

        Raises :class:`ValueError` if the edge already exists or is a
        self loop (the suite graphs are simple).
        """
        if not self.graph.insert_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present or self loop")
        return self._apply(u, v, operation="insert")

    def delete_edge(self, u: int, v: int) -> UpdateReport:
        """Delete edge {u, v} and update the analytic (extension; see
        :mod:`repro.bc.deletion` for the algorithmic background)."""
        if not self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        # Classification needs the pre-deletion adjacency (to find
        # alternative predecessors of u_low).
        pre_snap = self.graph.snapshot()
        if self.vectorized:
            classifications = classify_deletions_batch(
                self.state.d, self.state.sigma, pre_snap, u, v
            )
        else:
            classifications = [
                classify_deletion(self.state.d[i], self.state.sigma[i],
                                  pre_snap, u, v)
                for i in range(self.state.num_sources)
            ]
        self.graph.delete_edge(u, v)
        return self._apply(u, v, operation="delete", classifications=classifications)

    def add_vertex(self) -> int:
        """Append an isolated vertex and extend the stored state.

        Per §II-D: "a node insertion causes no change to existing BC
        scores.  A newly inserted node belongs to its own connected
        component ... and thus has a BC score of 0."  The new column is
        therefore (d=inf, sigma=0, delta=0, bc=0); subsequent
        `insert_edge` calls attach it through the normal Case-3
        component-merge machinery.
        """
        v = self.graph.add_vertex()
        st = self.state
        k = st.num_sources
        st.d = np.column_stack([st.d, np.full(k, DIST_INF, dtype=np.int64)])
        st.sigma = np.column_stack([st.sigma, np.zeros(k)])
        st.delta = np.column_stack([st.delta, np.zeros(k)])
        st.bc = np.append(st.bc, 0.0)
        return v

    def insert_edges(self, edges: Sequence) -> BatchResult:
        """Insert a batch of edges one at a time (the streaming model:
        updates are serialized so each report reflects a consistent
        analytic).  Self loops and edges already present are not
        applied; they are returned in :attr:`BatchResult.skipped`."""
        result = BatchResult()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v or self.graph.has_edge(u, v):
                result.skipped.append((u, v))
                continue
            result.reports.append(self.insert_edge(u, v))
        return result

    def delete_edges(self, edges: Sequence) -> BatchResult:
        """Delete a batch of edges one at a time; absent edges (and
        self loops) land in :attr:`BatchResult.skipped`."""
        result = BatchResult()
        for u, v in edges:
            u, v = int(u), int(v)
            if not self.graph.has_edge(u, v):
                result.skipped.append((u, v))
                continue
            result.reports.append(self.delete_edge(u, v))
        return result

    def recompute(self) -> None:
        """Rebuild every state row with Brandes, in place (the static
        recomputation the dynamic algorithm is measured against), and
        re-fold bc in source order: bit-identical to a fresh build,
        serial or pooled (with ``workers > 1`` the passes fan out to
        the pool).  Rows narrower than the graph are replaced."""
        n = self.graph.num_vertices
        if self.state.num_vertices != n:
            # a graph grown behind the state's back (a structural guard
            # escalation): rows of the graph's width
            self.state = BCState.empty(self.state.sources, n)
        with self._traced():
            self._round("brandes", range(self.state.num_sources))
        self.state.rebuild_bc()

    def verify(self, atol: float = 1e-6) -> None:
        """Assert the incrementally-maintained state matches scratch."""
        self.state.verify_against(self.graph.snapshot(), atol=atol)

    def spot_check(self, num_sources: int = 4, seed: SeedLike = None,
                   atol: float = 1e-6) -> None:
        """Cheap integrity check: recompute a random sample of source
        rows from scratch and compare (full :meth:`verify` is O(k m)).

        Catches state corruption without paying the full verification
        cost on every step of a long stream.  BC scores are sums over
        *all* sources, so they are only checked by :meth:`verify`.
        """
        k = self.state.num_sources
        picks = default_rng(seed).choice(k, size=min(num_sources, k),
                                         replace=False)
        outputs = self._round("check", picks.tolist(), atol=float(atol))
        bad = [record for output in outputs for record in output]
        if bad:
            i, component = bad[0]
            raise AssertionError(
                f"{component} row corrupt for source {int(self.state.sources[i])}"
            )

    def check_rows(self, indices: Sequence[int], atol: float = 1e-6) -> List[int]:
        """Return the subset of source-row *indices* whose stored
        ``d``/``sigma``/``delta`` rows differ from a from-scratch
        single-source recomputation (the guard's detection primitive;
        :meth:`spot_check` is the raising wrapper), in input order.

        An index outside ``[0, k)`` raises :class:`IndexError` before
        anything runs.
        """
        indices = [int(i) for i in indices]
        k = self.state.num_sources
        for i in indices:
            if not 0 <= i < k:
                raise IndexError(f"source index {i} out of range for k={k}")
        outputs = self._round("check", indices, atol=float(atol))
        return [int(record[0]) for output in outputs for record in output]

    def repair_source(self, i: int) -> UpdateStats:
        """Rebuild source row *i* from scratch and restore the
        ``bc = Σ delta`` invariant.

        This is the targeted recovery path for a *corrupted* row: the
        stored row cannot be trusted, so its BC contribution is not
        subtracted incrementally (that would bake the corruption into
        the scores); instead the row is replaced by a fresh Brandes
        pass and ``bc`` is re-folded from all stored rows.  Charged to
        the counters as one static source under the ``"repair"``
        kernel tag.  Returns the pass's :class:`UpdateStats`.
        """
        k = self.state.num_sources
        if not 0 <= i < k:
            raise IndexError(f"source index {i} out of range for k={k}")
        i = int(i)
        with self._traced():
            (output,) = self._round("rebuild", [i])
        _, steps, touched, num_levels = output[0]
        trace = rebuild_trace(f"repair:{int(self.state.sources[i])}", steps)
        self.state.rebuild_bc()
        counters = KernelCounters()
        counters.absorb(trace, kernel="repair")
        self.counters = self.counters.merged(counters)
        return UpdateStats(touched=int(touched), moved=0,
                           sp_levels=int(num_levels),
                           dep_levels=int(num_levels) - 1)

    def sanitizer_report(self) -> SanitizerReport:
        """Everything the race sanitizer has observed on this engine so
        far (cumulative across updates/recomputes/repairs).

        Raises :class:`RuntimeError` unless the engine was built with
        ``sanitize=True``.
        """
        if self._tracer is None:
            raise RuntimeError(
                "engine not in sanitize mode; construct with "
                "DynamicBC(..., sanitize=True)"
            )
        return self._tracer.report()

    def memory_report(self) -> Dict[str, int]:
        """Bytes held by the O(kn) supplemental state (§II-D: "This
        added storage increases the space complexity to ... O(kn) for
        approximate BC computation ... the performance gain is well
        worth the extra space").  Keys: per stored array plus 'total'.
        """
        st = self.state
        report = {
            "d": st.d.nbytes,
            "sigma": st.sigma.nbytes,
            "delta": st.delta.nbytes,
            "bc": st.bc.nbytes,
            "graph_csr": (
                self.graph.snapshot().row_offsets.nbytes
                + self.graph.snapshot().col_indices.nbytes
            ),
        }
        report["total"] = sum(report.values())
        return report

    # ------------------------------------------------------------------
    # Parallel execution layer (docs/MODEL.md, "Parallel execution")
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool and migrate the state back into
        private memory; the engine keeps working serially afterwards.

        Idempotent, and a no-op for serial engines.  ``with`` works
        too: ``with DynamicBC.from_graph(g, workers=4) as engine: ...``
        """
        self._release_parallel()
        self._parallel_disabled = True

    def __enter__(self) -> "DynamicBC":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            if self._pool is not None or self._arena is not None:
                self._release_parallel()
        except Exception:
            pass  # interpreter teardown: daemons + tracker clean up

    def _ensure_pool(self) -> Optional[SupervisedPool]:
        """The live worker pool, or ``None`` when running serially
        (``workers <= 1``, :meth:`close` called, sanitize mode — the
        tracer is single-threaded by design and the parallel contract
        makes serial execution bit-identical — or the platform cannot
        support the pool, which warns once and falls back).

        The pool is worker processes over POSIX shared memory.
        """
        if self.workers <= 1 or self._parallel_disabled or self.sanitize:
            return None
        if self._pool is not None:
            return self._pool
        try:
            if not shm_available():
                raise RuntimeError("POSIX shared memory unavailable")
            self._pool = SupervisedPool(self.workers,
                                        policy=self.supervisor_policy)
            self._arena = ShmArena()
            self._adopted = None
            self._graph_capacity = 0
        except Exception as exc:
            self._disable_parallel(str(exc))
        return self._pool

    def _disable_parallel(self, reason: str) -> None:
        """Fall back to serial execution permanently (results are
        identical — only wall-clock changes — so a warning suffices)."""
        import warnings

        warnings.warn(
            f"DynamicBC parallel mode disabled, falling back to serial "
            f"execution: {reason}",
            RuntimeWarning, stacklevel=3,
        )
        self._parallel_disabled = True
        self._release_parallel()

    def _round(self, kind: str, items: Sequence, **extra) -> List:
        """Run one round of the worker task *kind* (``brandes``,
        ``update``, ``check``, ``rebuild``; see
        :mod:`repro.parallel.worker`) over *items* on the current
        snapshot and state rows, and return its shares' results in
        order.

        The one place that decides where a round runs: without a live
        pool (``workers=1``, sanitize mode, a closed or disabled pool)
        the parent runs it whole, as one share; with one, it is cut
        into one contiguous share per worker (:func:`split_round`) and
        the parent computes share 0 (:meth:`_serial_chunk`) while the
        forked workers compute the rest.  A round the pool gives up on
        re-runs whole in the parent, with one exception: an ``update``
        round re-runs only when a task raised in a worker (so the error
        surfaces here with its type and row), and lets a chunk that
        failed even its in-parent retry
        (:class:`~repro.parallel.supervisor.ChunkEscalated`) reach the
        update's transaction.  Every round is retry-safe as it stands:
        ``update`` tasks write no state, and the other kinds only read
        rows or rewrite them whole.
        """
        snap = self.graph.snapshot()
        common = {
            "n": int(snap.num_vertices),
            "arcs": int(2 * snap.num_edges),
            "backend": self.backend,
            "op_costs": self.op_costs,
            "access": cpu_access_cycles(
                self.device, snap.num_vertices, 2 * snap.num_edges
            ),
            "static_strategy": self._static_strategy(),
            "cost_model": self.cost_model,
            **extra,
        }
        pool = self._ensure_pool()
        if pool is not None:
            common["spec"] = self._shared_spec(snap)
            payloads = [{"items": share}
                        for share in split_round(items, self.workers)]
            try:
                return pool.run(kind, common, payloads, self._serial_chunk)
            except ParallelExecutionError as exc:
                # an update's escalated chunk is its transaction's
                if kind == "update" and not isinstance(exc, WorkerTaskError):
                    raise
        return [self._serial_chunk(kind, common, {"items": items})]

    def _serial_chunk(self, kind: str, common: dict, payload: dict):
        """Execute one chunk of a round in the parent process (its own
        share, a quarantine retry, the ladder's serial rung, or a whole
        round without a pool): the exact worker handler runs over the
        engine's own snapshot — the round's, as snapshots are cached —
        and state rows, the bytes the workers map, so results are
        bit-identical to pool execution."""
        st = self.state
        views = (self.graph.snapshot(), st.sources, st.d, st.sigma, st.delta)
        return run_task(views, kind, common, payload)

    def _traced(self):
        """The race sanitizer's tracing context in sanitize mode (whose
        rounds all run in the parent), else a no-op one."""
        if self._tracer is None:
            return contextlib.nullcontext()
        return _san.tracing(self._tracer)

    def health_report(self) -> Dict:
        """Operator-facing supervision snapshot: execution mode
        (``"processes"`` with a live pool, else ``"serial"``) plus —
        with a live pool — the ladder level, the number of live forked
        workers (``workers - 1`` when healthy) and every supervision
        counter (kills, respawns, quarantines, demotions,
        promotions...)."""
        pool = self._pool
        report: Dict = {
            "workers": self.workers,
            "parallel_disabled": self._parallel_disabled,
            "pool_backend": "processes" if pool is not None else "serial",
        }
        if pool is not None:
            report.update(pool.health_report())
        else:
            report["level"] = "serial"
        return report

    def transport_report(self) -> Dict:
        """Result-path economics of the live pool: rounds run, chunks
        sent to the forked workers (the parent's own share is not one),
        result bytes read from their channels (``queue_bytes``, whole
        frames), and the parent's dispatch/decode/fold seconds — the
        direct dispatch+reduction overhead measurement the benchmarks
        record.  Empty when running serially."""
        pool = self._pool
        if pool is None:
            return {}
        report = pool.transport_stats()
        report["fold_seconds"] = self._fold_seconds
        report["overhead_seconds"] = (
            report.get("dispatch_seconds", 0.0)
            + report.get("decode_seconds", 0.0)
            + self._fold_seconds
        )
        return report

    def drain_health_events(self) -> List[HealthEvent]:
        """Supervision events since the last drain (empty for serial
        engines); :func:`repro.graph.stream.replay` folds them into the
        guard-event log."""
        if self._pool is None:
            return []
        return self._pool.drain_events()

    def _release_parallel(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            state = getattr(self, "state", None)
            if state is not None:
                for name in ("sources", "d", "sigma", "delta"):
                    arr = getattr(state, name, None)
                    if arr is not None and self._arena.owns(name, arr):
                        setattr(state, name, arr.copy())
            self._arena.close()
            self._arena = None
        self._adopted = None
        self._graph_capacity = 0

    def _shared_spec(self, snap: CSRGraph) -> dict:
        """Mirror the engine state + CSR into the shm arena and return
        the worker attach spec.

        State adoption is one-shot: the ``BCState`` arrays are
        *replaced* by shared-memory views, so worker writes and parent
        reads are the same bytes and steady-state dispatch copies only
        the CSR arrays (the graph changes every update).  Anything that
        swaps the state arrays (``add_vertex``, checkpoint restore)
        changes their identity and triggers re-adoption here.
        """
        arena = self._arena
        state = self.state
        k, n = state.num_sources, state.num_vertices
        signature = (
            id(state), id(state.sources), id(state.d), id(state.sigma),
            id(state.delta), k, n,
        )
        if signature != self._adopted:
            for name in ("sources", "d", "sigma", "delta"):
                current = getattr(state, name)
                if arena.owns(name, current):
                    # Re-adoption can find some arrays still living in
                    # the previous-generation block (e.g. add_vertex
                    # replaces d/sigma/delta but keeps sources); copy
                    # them out before allocate() unlinks that block.
                    current = current.copy()
                shared = arena.allocate(name, current.shape, current.dtype)
                shared[...] = current
                setattr(state, name, shared)
            arena.allocate("row_offsets", (n + 1,), np.int64)
            self._graph_capacity = 0
            self._adopted = (
                id(state), id(state.sources), id(state.d), id(state.sigma),
                id(state.delta), k, n,
            )
        arcs = int(snap.col_indices.size)
        if arcs > self._graph_capacity:
            # 25% headroom so steady insertion streams reallocate
            # (and force worker re-attachment) only O(log m) times.
            capacity = max(64, arcs + arcs // 4)
            arena.allocate("col_indices", (capacity,), np.int32)
            self._graph_capacity = capacity
        arena.get("row_offsets")[: n + 1] = snap.row_offsets
        arena.get("col_indices")[:arcs] = snap.col_indices
        return arena.spec()

    def _static_strategy(self) -> str:
        """Nearest static cost profile for this backend (variants like
        gpu-node-atomic share the node-parallel static profile)."""
        from repro.bc.static_gpu import STATIC_STRATEGIES

        if self.backend in STATIC_STRATEGIES:
            return self.backend
        return "cpu" if self.backend == "cpu" else "gpu-node"

    def _run_active(self, operation: str, cases, highs, lows,
                    active: np.ndarray) -> RowResults:
        """Run the executor over the active rows in one ``update``
        round and return their results in ascending order (the shares'
        columns concatenated)."""
        items = [
            (i, int(cases[i]), int(highs[i]), int(lows[i]))
            for i in active.tolist()
        ]
        outputs = self._round("update", items, operation=operation)
        if len(outputs) == 1:
            return RowResults(*outputs[0])
        return RowResults(*merge_indexed(outputs, active))

    def _apply_batched(
        self,
        u: int,
        v: int,
        operation: str,
        classifications=None,
    ) -> UpdateReport:
        """The update path: classify all k sources in one NumPy pass,
        bulk-charge the (typically dominant — Fig. 2) Case-1
        population, run the active rows through the level-synchronous
        executor (:mod:`repro.bc.batched`) in process or across the
        worker pool, commit their write-sets (:meth:`_commit`), and fold
        the results once, in ascending source order.

        Every reported artifact is bit-identical to
        :meth:`_apply_looped`: the Case-1 per-source cost is the shared
        classify step's cost, the classify stage total reproduces the
        loop's sequential float accumulation via
        :meth:`~repro.gpu.costmodel.CostModel.fold_step_seconds`, the
        counters bulk-charge scales exactly
        (:meth:`~repro.gpu.counters.KernelCounters.absorb_step_repeated`),
        each active row's ledger totals equal its per-source trace's
        (:mod:`repro.gpu.ledger`), each stage total is the loop's left
        fold over ascending sources (``np.add.accumulate``; a source
        without the stage adds 0.0), and the commit adds the sparse bc
        adjustments in the order the per-source kernels would have
        added them.
        """
        state = self.state
        k = state.num_sources
        per_source = np.zeros(k, dtype=np.float64)
        touched = np.zeros(k, dtype=np.int64)
        stats_list: List[Optional[UpdateStats]] = [None] * k
        stage_seconds: Dict[str, float] = {}
        counters = KernelCounters()
        timer = WallTimer()
        with timer:
            cases, highs, lows = _case_arrays(
                classifications if classifications is not None
                else classify_insertions_batch(state.d, u, v)
            )
            same_mask = cases == int(Case.SAME_LEVEL)
            # Case 1 in bulk: each such source's whole trace is the one
            # classify step, so its simulated time is that step's cost.
            per_source[same_mask] = self.cost_model.step_seconds(CLASSIFY_STEP)
            if k:
                # The loop adds the classify cost to one accumulator
                # once per source (all k of them); reproduce that fold.
                stage_seconds["classify"] = self.cost_model.fold_step_seconds(
                    CLASSIFY_STEP, k
                )
            counters.absorb_step_repeated(
                CLASSIFY_STEP, int(np.count_nonzero(same_mask)),
                kernel=f"{operation}-case{int(Case.SAME_LEVEL)}",
            )
            active = np.flatnonzero(~same_mask)
            if active.size:
                res = self._run_active(operation, cases, highs, lows, active)
                fold_timer = WallTimer().start()
                self._commit(res)
                per_source[res.rows] = res.seconds
                for stage in stage_order(res.stages):
                    if stage != "classify":  # folded into the bulk total
                        stage_seconds[stage] = float(np.add.accumulate(
                            res.stages[:, STAGES.index(stage)])[-1])
                self._absorb_rows(counters, operation, cases[res.rows], res)
                touched[res.rows] = res.stats[:, 0]
                for i, row in zip(res.rows.tolist(), res.stats.tolist()):
                    stats_list[i] = UpdateStats(*row)
                self._fold_seconds += fold_timer.stop()
        return self._finish_report(
            u, v, operation, cases, per_source, touched, stats_list,
            stage_seconds, counters, timer,
        )

    def _commit(self, res: RowResults) -> None:
        """Write the executor's write-sets into the state rows — the
        only writes to ``d``/σ/δ on this path — all rows at once, as
        Algorithm 8 commits a block's touched vertices in one kernel.
        :meth:`_before_commit` runs for every row, in ascending order,
        before anything is written.  Then one flat index over the
        ``(k, n)`` state, ``rows·n`` repeated per key plus the key,
        addresses every value shipped (δ at every key, σ and ``d`` at
        the keys shipping them); the transaction journals the old
        values there with one gather per column, and one scatter per
        column writes the new ones.  Each bc adjustment is the new δ
        minus the journaled δ; ``np.add.at`` adds the nonzero ones in
        (row, vertex) order, the order of the per-source kernels'
        masked commits (a zero adjustment is a bitwise no-op on the
        accumulator)."""
        for i in res.rows.tolist():
            self._before_commit(i)
        st = self.state
        flat = np.repeat(res.rows * st.num_vertices, res.nkeys) + res.keys
        at = (flat[res.ships == MOVED], flat[res.ships >= SIGMA], flat)
        old = self._txn.save_commit(at)
        for column, idx, new in zip((st.d, st.sigma, st.delta), at,
                                    (res.d, res.sigma, res.delta)):
            np.put(column, idx, new)
        adjust = res.delta - old
        nz = adjust != 0.0
        np.add.at(st.bc, res.keys[nz], adjust[nz])

    @staticmethod
    def _absorb_rows(counters: KernelCounters, operation: str,
                     row_cases: np.ndarray, res: RowResults) -> None:
        """:meth:`KernelCounters.absorb` of every active row's trace, in
        ascending order, from the rows' counter columns.  The totals are
        exact integer (and half-integer byte) sums, so their order does
        not matter."""
        steps = int(res.steps.sum())
        counters.steps += steps
        counters.barriers += steps
        counters.work_items += int(res.items.sum())
        counters.bytes_moved += float(res.bytes_moved.sum())
        counters.atomic_ops += int(res.atomics.sum())
        _, first = np.unique(row_cases, return_index=True)
        for case in row_cases[np.sort(first)].tolist():
            key = f"{operation}-case{case}"
            counters.by_kernel[key] = (counters.by_kernel.get(key, 0)
                                       + int(res.items[row_cases == case].sum()))

    # ------------------------------------------------------------------
    def _apply(
        self,
        u: int,
        v: int,
        operation: str,
        classifications=None,
    ) -> UpdateReport:
        # Journal every piece the update mutates (edge, touched state
        # rows, bc, counters) and roll all of it back on any mid-update
        # exception, so a failed update simply never happened (see
        # repro.resilience.transactions).
        txn = UpdateTransaction(self, u, v, operation)
        self._txn = txn
        try:
            return self._apply_inner(u, v, operation, classifications)
        except Exception as exc:
            failed_at = (exc.source_index if isinstance(exc, CorruptRowError)
                         else txn.current_source)
            txn.rollback()
            raise UpdateError(
                (u, v), operation, exc, source_index=failed_at,
                rolled_back=True,
            ) from exc
        finally:
            self._txn = None

    def _apply_inner(
        self,
        u: int,
        v: int,
        operation: str,
        classifications=None,
    ) -> UpdateReport:
        """Route one update: the level-synchronous executor (in process
        or across the live worker pool) by default, the per-source loop
        for ``vectorized=False`` and under the race sanitizer — all
        bit-identical, so routing only affects wall-clock."""
        if self._tracer is not None:
            with _san.tracing(self._tracer):
                return self._apply_looped(u, v, operation, classifications)
        if self.vectorized or self._ensure_pool() is not None:
            # A pool failure only surfaces here after the whole
            # recovery ladder failed for this update; the engine keeps
            # the pool and lets the transaction/guard layers take over.
            return self._apply_batched(u, v, operation, classifications)
        return self._apply_looped(u, v, operation, classifications)

    def _before_commit(self, i: int) -> None:
        """Runs before source row *i* is first written — by
        :meth:`_commit` for every row before its scatter writes any, or
        by the per-source loop before the row's kernel — and records
        the row an exception belongs to.  This is also the seam
        :class:`~repro.resilience.faults.FaultInjector` patches to fail
        an update part-way."""
        self._txn.current_source = i

    def _run_source(
        self, snap: CSRGraph, i: int, case: Case, u_high: int, u_low: int,
        operation: str, access: float,
    ):
        """Execute one source's update (any case) with the per-source
        kernels and return its ``(trace, stats)`` — the looped oracle's
        unit of work."""
        self._txn.save_row(i)
        self._before_commit(i)
        state = self.state
        s = int(state.sources[i])
        acc = make_accountant(
            self.backend, snap.num_vertices, 2 * snap.num_edges,
            self.op_costs, label=f"{operation}:{s}",
            access_cycles=access if self.backend == "cpu" else None,
        )
        acc.classify()
        if case == Case.SAME_LEVEL:
            stats = None
        elif case == Case.ADJACENT_LEVEL:
            stats = adjacent_level_update(
                snap, s, state.d[i], state.sigma[i], state.delta[i],
                state.bc, u_high, u_low, acc,
                insert=(operation == "insert"),
            )
        elif operation == "insert":
            stats = distant_level_update(
                snap, s, state.d[i], state.sigma[i], state.delta[i],
                state.bc, u_high, u_low, acc,
            )
        else:
            # Distance-increasing deletion: correct per-source
            # recompute fallback, charged at static cost.
            stats = self._recompute_source(snap, i, acc, access)
        return acc.finish(), stats

    def _apply_looped(
        self,
        u: int,
        v: int,
        operation: str,
        classifications=None,
    ) -> UpdateReport:
        """The original per-source loop: classify, account, and cost
        each of the k sources independently with the per-source
        kernels.  Kept as the reference implementation
        (``vectorized=False``) that the executor is differentially
        tested against, and as the sanitize-mode path (the race
        sanitizer instruments the per-source kernels)."""
        snap = self.graph.snapshot()
        state = self.state
        k = state.num_sources
        cases = np.empty(k, dtype=np.int8)
        per_source = np.zeros(k, dtype=np.float64)
        touched = np.zeros(k, dtype=np.int64)
        stats_list: List[Optional[UpdateStats]] = [None] * k
        stage_seconds: Dict[str, float] = {}
        counters = KernelCounters()
        access = cpu_access_cycles(self.device, snap.num_vertices, 2 * snap.num_edges)
        timer = WallTimer()
        if classifications is not None:
            given = _case_arrays(classifications)
        with timer:
            for i in range(k):
                if classifications is None:
                    case, u_high, u_low = classify_insertion(state.d[i], u, v)
                else:
                    case = Case(int(given[0][i]))
                    u_high, u_low = int(given[1][i]), int(given[2][i])
                cases[i] = int(case)
                trace, stats = self._run_source(
                    snap, i, case, int(u_high), int(u_low), operation, access
                )
                per_source[i] = self.cost_model.trace_seconds(trace)
                for stage, sec in self.cost_model.stage_breakdown(trace).items():
                    stage_seconds[stage] = stage_seconds.get(stage, 0.0) + sec
                counters.absorb(trace, kernel=f"{operation}-case{int(case)}")
                if stats is not None:
                    touched[i] = stats.touched
                    stats_list[i] = stats
        return self._finish_report(
            u, v, operation, cases, per_source, touched, stats_list,
            stage_seconds, counters, timer,
        )

    def _finish_report(
        self, u, v, operation, cases, per_source, touched, stats_list,
        stage_seconds, counters, timer,
    ) -> UpdateReport:
        """Schedule the costed sources onto the device and assemble the
        :class:`UpdateReport` (shared tail of both update paths)."""
        timing = schedule_blocks(
            per_source, self.device, self.num_blocks,
            _LAUNCHES_PER_UPDATE * self.cost_model.launch_overhead_seconds,
        )
        counters.kernel_launches += _LAUNCHES_PER_UPDATE
        self.counters = self.counters.merged(counters)
        return UpdateReport(
            edge=(u, v),
            operation=operation,
            cases=cases,
            per_source_seconds=per_source,
            simulated_seconds=timing.total_seconds,
            wall_seconds=timer.elapsed,
            touched=touched,
            counters=counters,
            stats=stats_list,
            stage_seconds=stage_seconds,
        )

    def _recompute_source(self, snap: CSRGraph, i: int, acc,
                          access: float) -> UpdateStats:
        """Replace source *i*'s rows with a fresh Brandes pass
        (:func:`rebuild_row`) and patch BC by the dependency
        difference; cost = one static source.

        The incremental BC patch is only correct when the stored row is
        trusted (the normal Case-3 deletion fallback); recovery from a
        *corrupted* row goes through :meth:`repair_source` instead.
        """
        state = self.state
        (d, sigma, delta), stats, trace = rebuild_row(
            snap, int(state.sources[i]), self._static_strategy(),
            self.op_costs, access)
        acc.trace.extend(trace)
        state.bc += delta - state.delta[i]
        state.d[i], state.sigma[i], state.delta[i] = d, sigma, delta
        return stats

    def __repr__(self) -> str:
        return (
            f"DynamicBC(backend={self.backend!r}, n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, k={self.state.num_sources})"
        )
