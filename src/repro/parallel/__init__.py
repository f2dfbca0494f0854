"""Coarse-grained source parallelism on CPU cores.

The paper's central design maps one source vertex to one SM/thread
block; this package is the CPU analogue — a process pool in which each
worker executes whole sources against shared-memory state
(``DynamicBC(workers=N)``; see docs/MODEL.md, "Parallel execution").
The engine cuts every round into one contiguous share of the sources
per worker (:func:`repro.bc.engine.split_round`), as each SM loops
over a fixed share of them; the pool only runs the chunks it is given.

Modules
-------
shm
    :class:`ShmArena` / :class:`ShmAttachment` — named shared-memory
    blocks holding the CSR arrays and the ``(k, n)`` state rows.
slabs
    :class:`ResultSlabs` / :class:`SlabWriter` — per-worker
    shared-memory result staging with a compact binary framing, so
    the result queue carries headers instead of pickled payloads.
pool
    :class:`RoundPool` — round bookkeeping shared by both backends;
    :class:`WorkerPool` — the process backend: long-lived workers, a
    shared chunk queue, results through the result slabs.
threadpool
    :class:`ThreadWorkerPool` — the same round protocol on daemon
    threads over direct array views (the backend on free-threaded
    CPython); :func:`free_threading_active` probes for it.
supervisor
    :class:`SupervisedPool` — the one collect loop: heartbeat
    monitoring, hung-worker SIGKILL, bounded respawn with backoff,
    poisoned-chunk quarantine, and the full-pool → shrunk-pool →
    serial degradation ladder, on either backend.
reducer
    :func:`merge_indexed` / :func:`rebuild_trace` — deterministic
    (source-order) reduction of worker results.
worker
    The child-process task loop (not imported by the parent's hot
    path).
"""

from repro.parallel.pool import (
    ParallelExecutionError,
    WorkerPool,
    WorkerStatus,
    WorkerTaskError,
)
from repro.parallel.reducer import merge_indexed, rebuild_trace
from repro.parallel.shm import ShmArena, ShmAttachment, shm_available
from repro.parallel.slabs import ResultSlabs, SlabWriter
from repro.parallel.supervisor import (
    ChunkEscalated,
    HealthEvent,
    SupervisedPool,
    SupervisorPolicy,
)
from repro.parallel.threadpool import ThreadWorkerPool, free_threading_active

__all__ = [
    "ChunkEscalated",
    "HealthEvent",
    "ParallelExecutionError",
    "ResultSlabs",
    "ShmArena",
    "ShmAttachment",
    "SlabWriter",
    "SupervisedPool",
    "SupervisorPolicy",
    "ThreadWorkerPool",
    "WorkerPool",
    "WorkerStatus",
    "WorkerTaskError",
    "free_threading_active",
    "merge_indexed",
    "rebuild_trace",
    "shm_available",
]
