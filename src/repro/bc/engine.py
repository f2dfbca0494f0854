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

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bc.accountants import ACCOUNTANTS, CLASSIFY_STEP, make_accountant
from repro.bc.batched import SourceExecutor, SourceResult
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
from repro.graph.csr import CSRGraph, DIST_INF
from repro.graph.dynamic import DynamicGraph
from repro.parallel.chunks import plan_chunks_guided
from repro.parallel.pool import (
    ParallelExecutionError,
    WorkerPool,
    WorkerTaskError,
)
from repro.parallel.reducer import merge_indexed, rebuild_trace
from repro.parallel.shm import ShmArena, shm_available
from repro.parallel.supervisor import (
    HealthEvent,
    SupervisedPool,
    SupervisorPolicy,
)
from repro.parallel.threadpool import ThreadWorkerPool, free_threading_active
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
        transactional: bool = True,
        workers: int = 1,
        start_method: Optional[str] = None,
        supervised: bool = True,
        supervisor_policy: Optional[SupervisorPolicy] = None,
        sanitize: bool = False,
        pool_backend: str = "auto",
        pool=None,
        result_transport: str = "slab",
    ) -> None:
        if backend not in ACCOUNTANTS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if pool_backend not in ("auto", "processes", "threads"):
            raise ValueError(
                f"pool_backend must be 'auto', 'processes' or 'threads', "
                f"got {pool_backend!r}"
            )
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
        #: ``True`` makes every update atomic: a mid-update exception
        #: rolls graph, state rows, BC scores and counters back to
        #: their pre-update values and surfaces a structured
        #: :class:`~repro.resilience.errors.UpdateError`.
        self.transactional = bool(transactional)
        self._txn: Optional[UpdateTransaction] = None
        self.counters = KernelCounters()
        #: coarse-grained source parallelism: worker processes sharing
        #: the CSR arrays and state rows via shared memory — the CPU
        #: analogue of the paper's one-source-per-SM decomposition
        #: (docs/MODEL.md, "Parallel execution").  ``1`` runs serially;
        #: every reported artifact is bit-identical either way.
        self.workers = max(1, int(workers))
        self._start_method = start_method
        #: execution backend of the worker pool (not to be confused
        #: with the accountant ``backend`` above): ``"processes"`` runs
        #: fork+shm workers, ``"threads"`` runs the same round protocol
        #: on threads over direct array views (parallel on
        #: free-threaded CPython), ``"auto"`` resolves at pool creation
        #: (REPRO_POOL_BACKEND override, then free-threading, then shm)
        self.pool_backend = pool_backend
        #: result transport of the pool (``"slab"`` = shared-memory
        #: result slabs, ``"queue"`` = framed bytes through the queue —
        #: the benchmarks' measurable baseline)
        self.result_transport = result_transport
        #: externally owned warm pool: adopted, never closed by this
        #: engine, so one pool can serve successive replay() calls and
        #: engine instances without respawning workers
        self._external_pool = pool
        if pool is not None:
            self.workers = max(2, int(pool.workers))
        #: ``True`` wraps the worker pool in a
        #: :class:`~repro.parallel.supervisor.SupervisedPool`:
        #: heartbeat monitoring, hung-worker SIGKILL, bounded respawn
        #: and the degradation ladder replace the legacy "one crash
        #: demotes to serial permanently" policy.  ``False`` keeps the
        #: legacy fail-fast pool (the differential tests pin it).
        self.supervised = bool(supervised)
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
        self._pool: Optional[WorkerPool] = None
        self._arena: Optional[ShmArena] = None
        self._parallel_disabled = False
        #: identity signature of the state arrays adopted into shm
        self._adopted: Optional[tuple] = None
        self._graph_capacity = 0
        #: EWMA of each source's observed simulated seconds, feeding
        #: the guided chunk planner (deterministic — simulated costs
        #: are replayable — so chunk plans are too)
        self._source_cost: Optional[np.ndarray] = None
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
        transactional: bool = True,
        workers: int = 1,
        start_method: Optional[str] = None,
        supervised: bool = True,
        supervisor_policy: Optional[SupervisorPolicy] = None,
        sanitize: bool = False,
        pool_backend: str = "auto",
        pool=None,
        result_transport: str = "slab",
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
        snap = graph.snapshot() if isinstance(graph, DynamicGraph) else graph
        if sources is not None:
            chosen = [int(s) for s in sources]
        elif num_sources is not None:
            # Same sampling calls as BCState.compute_with_random_sources
            # so workers=N picks the identical source set.
            rng = default_rng(seed)
            chosen = sample_without_replacement(
                rng, snap.num_vertices, min(num_sources, snap.num_vertices)
            )
        else:
            chosen = range(snap.num_vertices)
        if (workers > 1 or pool is not None) and not sanitize:
            engine = cls._from_graph_parallel(
                graph, snap, chosen, backend, device, num_blocks, op_costs,
                vectorized, transactional, workers, start_method,
                supervised, supervisor_policy, pool_backend, pool,
                result_transport,
            )
            if engine is not None:
                return engine
        state = BCState.compute(snap, chosen)
        return cls(graph, state, backend, device, num_blocks, op_costs,
                   vectorized, transactional, workers=workers,
                   start_method=start_method, supervised=supervised,
                   supervisor_policy=supervisor_policy, sanitize=sanitize,
                   pool_backend=pool_backend, pool=pool,
                   result_transport=result_transport)

    @classmethod
    def _from_graph_parallel(
        cls, graph, snap, chosen, backend, device, num_blocks, op_costs,
        vectorized, transactional, workers, start_method,
        supervised, supervisor_policy, pool_backend="auto", pool=None,
        result_transport="slab",
    ) -> Optional["DynamicBC"]:
        """Initial Brandes build through the worker pool; ``None`` when
        the pool is unavailable or failed (caller falls back to the
        serial build, which also re-raises any real input error)."""
        src = np.asarray(sorted(int(s) for s in chosen), dtype=np.int64)
        k, n = int(src.size), snap.num_vertices
        if np.unique(src).size != k:
            return None  # let BCState.compute raise its usual error
        if k and (src[0] < 0 or src[-1] >= n):
            return None  # ditto (IndexError from single_source_state)
        state = BCState(
            src,
            np.full((k, n), DIST_INF, dtype=np.int64),
            np.zeros((k, n), dtype=np.float64),
            np.zeros((k, n), dtype=np.float64),
            np.zeros(n, dtype=np.float64),
        )
        engine = cls(graph, state, backend, device, num_blocks, op_costs,
                     vectorized, transactional, workers=workers,
                     start_method=start_method, supervised=supervised,
                     supervisor_policy=supervisor_policy,
                     pool_backend=pool_backend, pool=pool,
                     result_transport=result_transport)
        if engine._ensure_pool() is None:
            return None  # zeros state discarded; caller builds serially
        try:
            engine._brandes_fill(snap, range(k))
        except ParallelExecutionError as exc:
            engine._disable_parallel(f"initial build failed: {exc}")
            return None
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
        """Throw the state away and rebuild it with Brandes (the static
        recomputation the dynamic algorithm is measured against).

        With ``workers > 1`` the k passes fan out to the pool, writing
        the shared rows in place; the parent re-folds bc in source
        order, so the result is bit-identical to the serial rebuild.
        """
        snap = self.graph.snapshot()
        if self._ensure_pool() is not None:
            try:
                self._brandes_fill(snap, range(self.state.num_sources))
                return
            except ParallelExecutionError as exc:
                self._parallel_failed("recompute failed", exc)
        if self._tracer is not None:
            with _san.tracing(self._tracer):
                self.state = BCState.compute(snap, self.state.sources)
            return
        self.state = BCState.compute(snap, self.state.sources)

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
        from repro.utils.prng import default_rng

        from repro.resilience.guards import check_rows_against_scratch

        rng = default_rng(seed)
        k = self.state.num_sources
        picks = rng.choice(k, size=min(num_sources, k), replace=False)
        bad = check_rows_against_scratch(self, picks, atol=atol)
        if bad:
            i, component = bad[0]
            raise AssertionError(
                f"{component} row corrupt for source {int(self.state.sources[i])}"
            )

    def check_rows(self, indices: Sequence[int], atol: float = 1e-6) -> List[int]:
        """Return the subset of source-row *indices* whose stored
        ``d``/``sigma``/``delta`` rows differ from a from-scratch
        single-source recomputation (the guard's detection primitive;
        :meth:`spot_check` is the raising wrapper).

        With ``workers > 1`` the scratch recomputations fan out to the
        pool; chunks stay in input order, so the returned list matches
        the serial scan exactly.
        """
        indices = [int(i) for i in indices]
        if len(indices) > 1 and self._ensure_pool() is not None:
            try:
                return self._check_rows_parallel(indices, atol)
            except ParallelExecutionError as exc:
                self._parallel_failed("check_rows failed", exc)
        from repro.resilience.guards import check_rows_against_scratch

        return [i for i, _ in check_rows_against_scratch(self, indices, atol=atol)]

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
        snap = self.graph.snapshot()
        if self._ensure_pool() is not None:
            try:
                return self._repair_parallel(snap, i)
            except ParallelExecutionError as exc:
                self._parallel_failed("repair failed", exc)
        access = cpu_access_cycles(self.device, snap.num_vertices,
                                   2 * snap.num_edges)
        acc = make_accountant(
            self.backend, snap.num_vertices, 2 * snap.num_edges,
            self.op_costs, label=f"repair:{int(self.state.sources[i])}",
            access_cycles=access if self.backend == "cpu" else None,
        )
        if self._tracer is not None:
            with _san.tracing(self._tracer):
                stats = self._rebuild_row(snap, i, acc)
        else:
            stats = self._rebuild_row(snap, i, acc)
        self.state.rebuild_bc()
        counters = KernelCounters()
        counters.absorb(acc.finish(), kernel="repair")
        self.counters = self.counters.merged(counters)
        return stats

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

    def _resolve_pool_backend(self) -> str:
        """Resolve ``pool_backend`` to ``processes``/``threads`` at
        pool-creation time: an explicit choice wins, then the
        ``REPRO_POOL_BACKEND`` environment override, then threads when
        free-threading is active, else processes.  (Unlike the
        library-level :func:`~repro.parallel.threadpool.
        resolve_pool_backend`, ``auto`` without shm raises here so the
        engine keeps its documented warn-and-run-serial fallback.)"""
        import os

        if self.pool_backend != "auto":
            return self.pool_backend
        env = os.environ.get("REPRO_POOL_BACKEND", "").strip().lower()
        if env in ("processes", "threads"):
            return env
        if free_threading_active():
            return "threads"
        return "processes"

    def _ensure_pool(self) -> Optional[WorkerPool]:
        """The live worker pool, or ``None`` when running serially
        (``workers <= 1``, :meth:`close` called, sanitize mode — the
        tracer is single-threaded by design and the parallel contract
        makes serial execution bit-identical — or the platform cannot
        support the pool, which warns once and falls back)."""
        if self.workers <= 1 or self._parallel_disabled or self.sanitize:
            return None
        if self._pool is not None:
            return self._pool
        try:
            if self._external_pool is not None:
                self._pool = self._external_pool
                pool_backend = self._pool.backend
            else:
                pool_backend = self._resolve_pool_backend()
            if pool_backend == "processes" and not shm_available():
                raise RuntimeError("POSIX shared memory unavailable")
            if self._pool is None:
                if self.supervised:
                    self._pool = SupervisedPool(
                        self.workers, self._start_method,
                        policy=self.supervisor_policy,
                        backend=pool_backend,
                        result_transport=self.result_transport,
                    )
                elif pool_backend == "threads":
                    self._pool = ThreadWorkerPool(
                        self.workers, self._start_method,
                        result_transport=self.result_transport,
                    )
                else:
                    self._pool = WorkerPool(
                        self.workers, self._start_method,
                        result_transport=self.result_transport,
                    )
            # Thread workers operate on the engine's arrays directly;
            # only process workers need the shared-memory mirror.
            self._arena = ShmArena() if pool_backend == "processes" else None
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

    def _parallel_failed(self, what: str, exc: Exception) -> None:
        """Route a pool failure: the legacy pool demotes to serial
        permanently; a supervised pool already retried/degraded, so
        the engine keeps it (its ladder decides future routing)."""
        if not self.supervised:
            self._disable_parallel(f"{what}: {exc}")

    def _pool_run(self, kind: str, common: dict, payloads: List[dict],
                  reset=None) -> List:
        """Dispatch one round through the engine's pool, wiring the
        supervisor's recovery callbacks when supervision is on.

        ``reset`` restores a chunk's state rows before a retry; only
        the ``update`` kind mutates rows incrementally, so everything
        else is idempotent and retry-safe with ``reset=None``.  An
        update dispatched *without* a transaction journal has no safe
        reset, so it keeps the legacy fail-fast contract.
        """
        pool = self._pool
        if isinstance(pool, SupervisedPool):
            retryable = kind != "update" or reset is not None
            return pool.run(kind, common, payloads, reset=reset,
                            serial=self._serial_chunk, retryable=retryable)
        return pool.run(kind, common, payloads)

    def _serial_chunk(self, kind: str, common: dict, payload: dict):
        """Execute one worker chunk in the parent process (quarantine
        retry / the ladder's serial rung): the exact worker handler
        runs against the arena's parent-side views — the same bytes
        the workers map — so results are bit-identical to pool
        execution."""
        from types import SimpleNamespace

        from repro.parallel import worker as _worker_mod

        if self._arena is not None:
            attachment = SimpleNamespace(arrays=self._arena.views(),
                                         generation=self._arena.generation)
        else:
            # Thread backend: the round's views *are* the engine's
            # arrays, so the parent-side retry needs no attachment.
            attachment = SimpleNamespace(arrays=common.get("views") or {},
                                         generation=0)
        return _worker_mod.run_task(attachment, kind, common, payload)

    def _reset_update_chunk(self, payload: dict) -> None:
        """Restore every state row an ``update`` chunk may have half
        written (supervisor retry callback; rows were journaled before
        dispatch, and ``bc``/counters are parent-side only, touched
        after a fully successful round)."""
        txn = self._txn
        if txn is None:
            return
        for item in payload["items"]:
            txn.restore_row(int(item[0]))

    def health_report(self) -> Dict:
        """Operator-facing supervision snapshot: execution mode plus —
        under a supervised pool — the ladder level, live worker count
        and every supervision counter (kills, respawns, quarantines,
        demotions, promotions...)."""
        report: Dict = {
            "workers": self.workers,
            "supervised": self.supervised,
            "parallel_disabled": self._parallel_disabled,
            "pool_backend": (
                self._pool.backend if self._pool is not None
                else self.pool_backend
            ),
        }
        pool = self._pool
        if isinstance(pool, SupervisedPool):
            report.update(pool.health_report())
        else:
            report["level"] = (
                "serial"
                if self.workers <= 1 or self._parallel_disabled
                or pool is None
                else "full-pool"
            )
        return report

    def transport_report(self) -> Dict:
        """Result-path economics of the live pool: rounds/chunks
        dispatched, bytes through the queue vs read from the slabs,
        spills, and the parent's dispatch/decode/fold seconds — the
        direct dispatch+reduction overhead measurement the benchmarks
        record (no more negative overhead-by-subtraction).  Empty when
        running serially."""
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
        """Supervision events since the last drain (empty for serial /
        legacy-pool engines); :func:`repro.graph.stream.replay` folds
        them into the guard-event log."""
        pool = self._pool
        if isinstance(pool, SupervisedPool):
            return pool.drain_events()
        return []

    def _release_parallel(self) -> None:
        if self._pool is not None:
            # An adopted warm pool belongs to its creator: detach
            # without closing so other engines keep using it.
            if self._pool is not self._external_pool:
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
        swaps the state arrays (``add_vertex``, checkpoint restore, a
        serial ``recompute``) changes their identity and triggers
        re-adoption here.
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

    def _parallel_common(self, snap: CSRGraph, **extra) -> dict:
        """Build one round's shared task context for the active pool
        backend.

        Process workers get the shm attach ``spec`` (the CSR + state
        mirror from :meth:`_shared_spec`); thread workers get
        ``views`` — direct references to the engine's own arrays, no
        copy, no shm, same handler code (:func:`repro.parallel.worker.
        _views` slices both identically).
        """
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
        }
        if self._arena is not None:
            common["spec"] = self._shared_spec(snap)
        else:
            state = self.state
            common["views"] = {
                "row_offsets": snap.row_offsets,
                "col_indices": snap.col_indices,
                "sources": state.sources,
                "d": state.d,
                "sigma": state.sigma,
                "delta": state.delta,
            }
        common.update(extra)
        return common

    def _plan(self, items: List) -> List[List]:
        """Guided self-scheduling chunk plan for one round, weighted by
        the observed per-source cost EWMA when the items carry source
        indices (update rounds); deterministic because the weights are
        simulated seconds, not wall-clock."""
        weights = None
        cost = self._source_cost
        if cost is not None and items and isinstance(items[0], tuple):
            idx = [int(item[0]) for item in items]
            if max(idx) < cost.size and float(cost[idx].sum()) > 0.0:
                weights = cost[idx]
        return plan_chunks_guided(items, self._pool.workers, weights=weights)

    def _brandes_fill(self, snap: CSRGraph, indices) -> None:
        """Rebuild the given state rows from scratch in the workers and
        re-fold bc in source order (bit-identical to
        :meth:`BCState.compute`)."""
        common = self._parallel_common(snap)
        items = [int(i) for i in indices]
        payloads = [
            {"items": chunk}
            for chunk in plan_chunks_guided(items, self._pool.workers)
        ]
        self._pool_run("brandes", common, payloads)
        self.state.rebuild_bc()

    def _check_rows_parallel(self, indices: List[int], atol: float) -> List[int]:
        snap = self.graph.snapshot()
        common = self._parallel_common(snap, atol=float(atol))
        payloads = [
            {"items": chunk}
            for chunk in plan_chunks_guided(indices, self._pool.workers)
        ]
        outputs = self._pool_run("check", common, payloads)
        return [int(record[0]) for output in outputs for record in output]

    def _repair_parallel(self, snap: CSRGraph, i: int) -> UpdateStats:
        common = self._parallel_common(snap)
        outputs = self._pool_run("rebuild", common, [{"items": [i]}])
        _, steps, touched, num_levels = outputs[0][0]
        trace = rebuild_trace(f"repair:{int(self.state.sources[i])}", steps)
        self.state.rebuild_bc()
        counters = KernelCounters()
        counters.absorb(trace, kernel="repair")
        self.counters = self.counters.merged(counters)
        return UpdateStats(touched=int(touched), moved=0,
                           sp_levels=int(num_levels),
                           dep_levels=int(num_levels) - 1)

    def _run_active(
        self, snap: CSRGraph, operation: str, cases, highs, lows,
        active: np.ndarray,
    ) -> List[tuple]:
        """Run the executor over the active rows and return ``[(i,
        SourceResult), ...]`` in ascending *i*: in-process, or — with a
        live pool — by each worker on its chunk.

        Pool chunks follow the guided self-scheduling taper, weighted
        by each source's cost EWMA from previous rounds — big chunks
        first, fine tail — while staying contiguous and ordered, so the
        ascending-source fold (and bit-identity) is untouched.
        """
        items = [
            (i, int(cases[i]), int(highs[i]), int(lows[i]))
            for i in active.tolist()
        ]
        if self._ensure_pool() is None:
            return self._run_in_process(snap, operation, items)
        common = self._parallel_common(snap, operation=operation)
        payloads = [{"items": chunk} for chunk in self._plan(items)]
        reset = self._reset_update_chunk if self._txn is not None else None
        try:
            outputs = self._pool_run("update", common, payloads, reset=reset)
        except WorkerTaskError:
            if self._txn is None:
                raise
            # The executor raised inside a worker (a corrupt row failing
            # its pre-commit check, say): restore the rows and rerun in
            # process, so the error surfaces with its type and row.
            for payload in payloads:
                self._reset_update_chunk(payload)
            return self._run_in_process(snap, operation, items)
        merged = merge_indexed(outputs, active.tolist())
        return [(i, SourceResult(*merged[i])) for i in active.tolist()]

    def _run_in_process(self, snap: CSRGraph, operation: str,
                        items: List[tuple]) -> List[tuple]:
        state = self.state
        executor = SourceExecutor(
            self.backend, self.op_costs,
            cpu_access_cycles(self.device, snap.num_vertices,
                              2 * snap.num_edges),
            self.cost_model,
        )
        return executor.run(
            snap, state.sources, state.d, state.sigma, state.delta,
            items, operation,
            rebuild=lambda i, acc: self._rebuild_row(snap, i, acc),
            on_source=self._before_commit,
        )

    def _apply_batched(
        self,
        u: int,
        v: int,
        operation: str,
        classifications=None,
    ) -> UpdateReport:
        """The update path: classify all k sources in one NumPy pass,
        bulk-charge the (typically dominant — Fig. 2) Case-1
        population, journal the active rows, run them through the
        level-synchronous executor (:mod:`repro.bc.batched`) in process
        or across the worker pool, and fold the results once, in
        ascending source order.

        Every reported artifact is bit-identical to
        :meth:`_apply_looped`: the Case-1 per-source cost is the shared
        classify step's cost, the classify stage total reproduces the
        loop's sequential float accumulation via
        :meth:`~repro.gpu.costmodel.CostModel.fold_step_seconds`, the
        counters bulk-charge scales exactly
        (:meth:`~repro.gpu.counters.KernelCounters.absorb_step_repeated`),
        each active source's cost summary equals its per-source trace's
        (:meth:`~repro.gpu.costmodel.CostModel.summarize`), and the
        sparse bc adjustments are added in the order the per-source
        kernels would have added them.
        """
        snap = self.graph.snapshot()
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
                if self._txn is not None:
                    # Journal every row the executor may touch before
                    # any is written: a fault (or a crashed worker)
                    # leaves rows half written, and the rollback must
                    # cover all of them.
                    self._txn.save_rows(active)
                    self._txn.current_source = -1
                results = self._run_active(snap, operation, cases, highs,
                                           lows, active)
                fold_timer = WallTimer().start()
                for i, result in results:
                    cost = result.cost
                    per_source[i] = cost.seconds
                    for stage, sec in cost.stages.items():
                        if stage == "classify":
                            continue  # folded into the bulk total
                        stage_seconds[stage] = (
                            stage_seconds.get(stage, 0.0) + sec
                        )
                    counters.absorb_summary(
                        cost, kernel=f"{operation}-case{int(cases[i])}"
                    )
                    if result.bc_idx.size:
                        # Sparse replay of the kernel's masked commit:
                        # zero-valued adjustments are dropped, which is
                        # a bitwise no-op on the bc accumulator.
                        state.bc[result.bc_idx] += result.bc_vals
                    touched[i] = result.stats.touched
                    stats_list[i] = result.stats
                self._fold_seconds += fold_timer.stop()
                # Feed the guided planner: EWMA of each active source's
                # *simulated* seconds (deterministic, so the next
                # round's chunk plan is too).
                cost = self._source_cost
                if cost is None or cost.size != k:
                    cost = self._source_cost = np.zeros(k, dtype=np.float64)
                observed = per_source[active]
                cost[active] = np.where(
                    cost[active] > 0.0, 0.5 * cost[active] + 0.5 * observed,
                    observed,
                )
        return self._finish_report(
            u, v, operation, cases, per_source, touched, stats_list,
            stage_seconds, counters, timer,
        )

    # ------------------------------------------------------------------
    def _apply(
        self,
        u: int,
        v: int,
        operation: str,
        classifications=None,
    ) -> UpdateReport:
        if not self.transactional:
            return self._apply_inner(u, v, operation, classifications)
        # Transactional path: journal every piece the update mutates
        # (edge, touched state rows, bc, counters) and roll all of it
        # back on any mid-update exception, so a failed update simply
        # never happened (see repro.resilience.transactions).
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
            try:
                return self._apply_batched(u, v, operation, classifications)
            except ParallelExecutionError as exc:
                # Supervised pools only surface here after the whole
                # recovery ladder failed for this update; the engine
                # keeps the pool and lets the transaction/guard layers
                # take over.  Legacy pools demote to serial for good.
                self._parallel_failed("update failed", exc)
                raise
        return self._apply_looped(u, v, operation, classifications)

    def _before_commit(self, i: int) -> None:
        """Runs just before source row *i* is first written (by the
        executor, or by the per-source loop before its kernel): records
        the row an exception belongs to.  This is also the seam
        :class:`~repro.resilience.faults.FaultInjector` patches to fail
        an update part-way, with earlier rows already written."""
        if self._txn is not None:
            self._txn.current_source = i

    def _run_source(
        self, snap: CSRGraph, i: int, case: Case, u_high: int, u_low: int,
        operation: str, access: float,
    ):
        """Execute one source's update (any case) with the per-source
        kernels and return its ``(trace, stats)`` — the looped oracle's
        unit of work."""
        if self._txn is not None:
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
            stats = self._recompute_source(snap, i, acc)
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

    def _recompute_source(self, snap: CSRGraph, i: int, acc) -> UpdateStats:
        """Replace source *i*'s rows with a fresh Brandes pass and patch
        BC by the dependency difference; cost = one static source.

        The incremental BC patch is only correct when the stored row is
        trusted (the normal Case-3 deletion fallback); recovery from a
        *corrupted* row goes through :meth:`repair_source` instead.
        """
        state = self.state
        delta_old = state.delta[i].copy()
        stats = self._rebuild_row(snap, i, acc)
        state.bc += state.delta[i] - delta_old
        return stats

    def _rebuild_row(self, snap: CSRGraph, i: int, acc) -> UpdateStats:
        """Overwrite source *i*'s ``d``/``sigma``/``delta`` rows with a
        fresh Brandes pass (BC untouched) and charge the static
        per-source trace to *acc*."""
        state = self.state
        s = int(state.sources[i])
        # Brandes writes straight into the state rows (no transient
        # triple — same O(n + m) scratch guarantee as BCState.compute),
        # which also keeps shm-adopted rows in place under workers > 1.
        d, _, _, levels = single_source_state(
            snap, s, out=(state.d[i], state.sigma[i], state.delta[i])
        )
        state.delta[i, s] = 0.0
        # Charge the static per-source trace under the nearest static
        # strategy (backend variants like gpu-node-atomic share the
        # node-parallel static cost profile), built from the levels
        # this pass just produced.
        access = cpu_access_cycles(self.device, snap.num_vertices, 2 * snap.num_edges)
        _, trace = trace_static_source(
            snap, s, self._static_strategy(), self.op_costs, access,
            rebuilt=(d, levels),
        )
        acc.trace.extend(trace)
        touched = int(np.count_nonzero(state.d[i] != DIST_INF))
        return UpdateStats(touched=touched, moved=0,
                           sp_levels=len(levels), dep_levels=len(levels) - 1)

    def __repr__(self) -> str:
        return (
            f"DynamicBC(backend={self.backend!r}, n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, k={self.state.num_sources})"
        )
