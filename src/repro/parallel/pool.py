"""Worker pools with a shared chunk queue: the round bookkeeping both
backends share, and the process backend.

A *round* is one batch of ``(kind, round_id, chunk_id, common,
payload)`` tasks: every chunk is enqueued up front, idle workers pull
the next chunk, and each posts one ``(status, round_id, chunk_id,
result)`` message back.  The engine cuts a round into at most one
contiguous chunk per requested worker
(:func:`repro.bc.engine.split_round`), so at full strength each worker
pulls one share; on a shrunk pool the live workers pull the rest.  :class:`RoundPool` owns what is backend-independent — round
ids, transport accounting, heartbeat-slot reads, respawn and
lifecycle — and leaves four primitives to each backend: spawn,
teardown, ``poll_result`` and ``kill_worker``.

:class:`WorkerPool` is the process backend: N long-lived worker
processes sharing a task queue and a result queue, results staged in
shared-memory result slabs (:mod:`repro.parallel.slabs`).
:class:`~repro.parallel.threadpool.ThreadWorkerPool` is the thread
backend.  Neither collects a round itself:
:class:`~repro.parallel.supervisor.SupervisedPool` drives both through
the primitives here, adding heartbeat monitoring, hung-worker SIGKILL,
bounded respawn, quarantine and the degradation ladder.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import queue as _queue
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.parallel import slabs as _slabs
from repro.parallel import worker as _worker


class ParallelExecutionError(RuntimeError):
    """Base class for failures inside the parallel execution layer."""


class WorkerTaskError(ParallelExecutionError):
    """A task raised inside a worker; the message carries the remote
    exception and traceback."""


#: seconds between liveness polls while waiting on the result queue
_POLL_SECONDS = 0.05

#: default seconds granted per process per teardown-escalation stage
DEFAULT_JOIN_TIMEOUT = 2.0

#: zeroed transport-stats template (:meth:`RoundPool.transport_stats`)
_STATS_ZERO = {
    "rounds": 0,  #: rounds dispatched
    "chunks": 0,  #: chunks dispatched
    "queue_bytes": 0,  #: result bytes that crossed the queue (headers
    #: for slab messages, framed payloads for spilled messages)
    "slab_bytes": 0,  #: result bytes read in place from the slabs
    "spills": 0,  #: results that overflowed their slab to the queue
    "dispatch_seconds": 0.0,  #: parent time enqueueing rounds
    "decode_seconds": 0.0,  #: parent time decoding framed results
}


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's health snapshot, read from its heartbeat slots.

    ``beat_age``/``busy_seconds`` are ``0.0`` when heartbeats are
    disabled (the pool was built with ``heartbeat_interval=0``).
    """

    worker: int  #: worker index in the pool
    alive: bool  #: is the process alive (``Process.is_alive``)?
    beat_age: float  #: seconds since the last heartbeat stamp
    busy_seconds: float  #: seconds spent on the current task (0 = idle)
    round_id: int  #: round of the current task (-1 when idle)
    chunk_id: int  #: chunk of the current task (-1 when idle)


class RoundPool:
    """Backend-independent round bookkeeping over N workers.

    Subclasses set :attr:`backend` and :attr:`transport` and implement
    ``_spawn()`` (fill ``_procs``, ``_tasks``, ``_results`` and, with
    heartbeats on, ``_heartbeat``), ``_teardown(graceful)``,
    ``poll_result(timeout)`` (one ``(status, round_id, chunk_id,
    result)`` message, or ``None`` after *timeout* seconds) and
    ``kill_worker(j)`` (remove worker *j* for good).
    """

    #: execution backend tag; the engine and the benchmarks report
    #: it, never the class
    backend = ""
    #: how results reach the parent
    transport = ""

    def __init__(
        self,
        workers: int,
        join_timeout: float = DEFAULT_JOIN_TIMEOUT,
        heartbeat_interval: float = 0.0,
    ) -> None:
        if workers < 2:
            raise ValueError(f"WorkerPool needs >= 2 workers, got {workers}")
        if join_timeout <= 0:
            raise ValueError(f"join_timeout must be > 0, got {join_timeout}")
        self.workers = int(workers)
        #: seconds granted per worker per stage of the teardown
        #: escalation; each stage that times out hands the worker to
        #: the next, harder one
        self.join_timeout = float(join_timeout)
        #: heartbeat stamp period for the workers (0 disables the
        #: heartbeat slots entirely)
        self.heartbeat_interval = float(heartbeat_interval)
        self._round = 0
        self._procs: List[Any] = []
        self._tasks: Any = None
        self._results: Any = None
        self._heartbeat: Any = None
        self._stats: Dict[str, float] = dict(_STATS_ZERO)
        self._spawn()

    def _init_heartbeat(self, slots):
        """Stamp every worker's slots fresh and idle; returns *slots*."""
        now = time.monotonic()
        for j in range(self.workers):
            base = _worker.HB_SLOTS * j
            slots[base + _worker.HB_BEAT] = now
            slots[base + _worker.HB_TASK_START] = 0.0
            slots[base + _worker.HB_ROUND] = -1.0
            slots[base + _worker.HB_CHUNK] = -1.0
        return slots

    # ------------------------------------------------------------------
    def enqueue_round(self, kind: str, common: dict,
                      payloads: List[dict]) -> int:
        """Enqueue one round's chunks and return its round id; the
        caller collects results via :meth:`poll_result`."""
        if not self._procs:
            self._spawn()
        start = time.perf_counter()
        self._round += 1
        round_id = self._round
        for chunk_id, payload in enumerate(payloads):
            self._tasks.put((kind, round_id, chunk_id, common, payload))
        self._stats["rounds"] += 1
        self._stats["chunks"] += len(payloads)
        self._stats["dispatch_seconds"] += time.perf_counter() - start
        return round_id

    def transport_stats(self) -> Dict[str, Any]:
        """Cumulative result-transport accounting (benchmarks read
        this to report bytes moved and real dispatch overhead)."""
        out: Dict[str, Any] = dict(self._stats)
        out["transport"] = self.transport
        out["backend"] = self.backend
        return out

    def worker_status(self, j: int, now: Optional[float] = None) -> WorkerStatus:
        """Health snapshot of worker *j* from its heartbeat slots."""
        proc = self._procs[j]
        if self._heartbeat is None:
            return WorkerStatus(j, proc.is_alive(), 0.0, 0.0, -1, -1)
        if now is None:
            now = time.monotonic()
        base = _worker.HB_SLOTS * j
        beat = self._heartbeat[base + _worker.HB_BEAT]
        start = self._heartbeat[base + _worker.HB_TASK_START]
        return WorkerStatus(
            worker=j,
            alive=proc.is_alive(),
            beat_age=max(0.0, now - beat),
            busy_seconds=max(0.0, now - start) if start > 0.0 else 0.0,
            round_id=int(self._heartbeat[base + _worker.HB_ROUND]),
            chunk_id=int(self._heartbeat[base + _worker.HB_CHUNK]),
        )

    def respawn(self, workers: Optional[int] = None) -> None:
        """Tear the pool down (non-graceful) and bring up a fresh one,
        optionally resized to *workers* workers."""
        self._teardown(graceful=False)
        if workers is not None:
            if workers < 2:
                raise ValueError(f"WorkerPool needs >= 2 workers, got {workers}")
            self.workers = int(workers)
        self._spawn()

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        self._teardown(graceful=True)

    def __enter__(self) -> "RoundPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(workers={self.workers}, "
            f"alive={sum(p.is_alive() for p in self._procs)})"
        )


class WorkerPool(RoundPool):
    """N worker processes around one shared task/result queue pair,
    returning results through per-worker shared-memory slabs."""

    backend = "processes"
    transport = "slab"

    def __init__(
        self,
        workers: int,
        join_timeout: float = DEFAULT_JOIN_TIMEOUT,
        heartbeat_interval: float = 0.0,
        slab_bytes: int = _slabs.DEFAULT_SLAB_BYTES,
    ) -> None:
        # fork shares the parent's loaded modules (microsecond spawns
        # on Linux); spawn is the portable fallback.
        methods = mp.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else "spawn"
        self.slab_bytes = int(slab_bytes)
        self._ctx = mp.get_context(self.start_method)
        self._slabs: Optional[_slabs.ResultSlabs] = None
        super().__init__(workers, join_timeout, heartbeat_interval)

    def _spawn(self) -> None:
        self._slabs = _slabs.ResultSlabs(self.workers, self.slab_bytes)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._heartbeat = None
        if self.heartbeat_interval > 0:
            self._heartbeat = self._init_heartbeat(self._ctx.Array(
                "d", _worker.HB_SLOTS * self.workers, lock=False
            ))
        self._procs = []
        for j in range(self.workers):
            proc = self._ctx.Process(
                target=_worker.worker_main,
                args=(self._tasks, self._results, j, self._heartbeat,
                      self.heartbeat_interval, self._slabs.spec()),
                name=f"repro-worker-{j}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def poll_result(self, timeout: float = _POLL_SECONDS):
        """One ``(status, round_id, chunk_id, result)`` message from
        the result queue, or ``None`` after *timeout* seconds.

        Slab (``ok-slab``) and spilled (``ok-enc``) messages are
        decoded here, so callers only ever see ``ok``/``error``.  A
        message from a superseded round comes back as ``stale``,
        undecoded (its slab bytes may already be overwritten); callers
        discard it by round id.
        """
        try:
            message = self._results.get(timeout=timeout)
        except _queue.Empty:
            return None
        status, rid, chunk_id, result = message
        if status == "error":
            return message
        if rid != self._round:
            return ("stale", rid, chunk_id, None)
        start = time.perf_counter()
        if status == "ok-slab":
            worker_id, offset, length = result
            self._stats["queue_bytes"] += _slabs.HEADER_BYTES
            self._stats["slab_bytes"] += length
            decoded = self._slabs.read(worker_id, offset, length)
        else:
            self._stats["queue_bytes"] += len(result) + _slabs.HEADER_BYTES
            self._stats["spills"] += 1
            decoded = _slabs.decode(result)
        self._stats["decode_seconds"] += time.perf_counter() - start
        return ("ok", rid, chunk_id, decoded)

    def kill_worker(self, j: int) -> None:
        """SIGKILL worker *j* and reap it.  SIGKILL (not SIGTERM) is
        mandatory here: a SIGSTOPped process queues SIGTERM without
        acting on it, but SIGKILL removes even a stopped process."""
        proc = self._procs[j]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=self.join_timeout)

    def _teardown(self, graceful: bool) -> None:
        if graceful and self._procs:
            for _ in self._procs:
                try:
                    self._tasks.put(_worker.STOP)
                except Exception:  # pragma: no cover - queue already gone
                    break
        # Escalation ladder: (graceful) join -> terminate -> kill, each
        # stage bounded by join_timeout.  The final SIGKILL+join always
        # reaps — even a SIGSTOPped worker, which ignores SIGTERM but
        # cannot survive SIGKILL — so no zombie outlives a teardown.
        deadline = time.monotonic() + self.join_timeout
        for proc in self._procs:
            if graceful:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self.join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self.join_timeout)
        self._procs = []
        for q in (self._tasks, self._results):
            if q is None:
                continue
            with contextlib.suppress(Exception):  # platform teardown races
                q.cancel_join_thread()
                q.close()
        self._tasks = None
        self._results = None
        self._heartbeat = None
        if self._slabs is not None:
            self._slabs.close()
            self._slabs = None
