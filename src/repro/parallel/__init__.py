"""Coarse-grained source parallelism on CPU cores.

The paper's central design maps one source vertex to one SM/thread
block; this package is the CPU analogue — a process pool in which each
worker executes whole sources against shared-memory state
(``DynamicBC(workers=N)``; see docs/MODEL.md, "Parallel execution").
The engine cuts every round into one contiguous share of the sources
per worker (:func:`repro.bc.engine.split_round`), as each SM loops
over a fixed share of them.  The parent is worker 0: it computes the
first share itself while ``workers - 1`` forked processes compute the
rest, as the host takes a share in the paper's heterogeneous split.

Modules
-------
shm
    :class:`ShmArena` / :class:`ShmAttachment` — named shared-memory
    blocks holding the CSR arrays and the ``(k, n)`` state rows.
pool
    :class:`WorkerPool` — long-lived worker processes, one private
    channel (a ``socket.socketpair``) each: the parent sends a chunk,
    the worker sends back its result, and the parent reads every
    channel without blocking.
supervisor
    :class:`SupervisedPool` — the parent's share and the one collect
    loop: heartbeat monitoring, hung-worker SIGKILL, bounded respawn
    with backoff, poisoned-chunk quarantine, and the pool → serial
    degradation ladder.
reducer
    :func:`merge_indexed` / :func:`rebuild_trace` — deterministic
    (source-order) reduction of worker results.
worker
    The child-process task loop, and the channel's wire format: each
    message is one frame, a checked prefix and a ``pickle``.
"""

from repro.parallel.pool import (
    ParallelExecutionError,
    WorkerPool,
    WorkerStatus,
    WorkerTaskError,
)
from repro.parallel.reducer import merge_indexed, rebuild_trace
from repro.parallel.shm import ShmArena, ShmAttachment, shm_available
from repro.parallel.supervisor import (
    ChunkEscalated,
    HealthEvent,
    SupervisedPool,
    SupervisorPolicy,
)

__all__ = [
    "ChunkEscalated",
    "HealthEvent",
    "ParallelExecutionError",
    "ShmArena",
    "ShmAttachment",
    "SupervisedPool",
    "SupervisorPolicy",
    "WorkerPool",
    "WorkerStatus",
    "WorkerTaskError",
    "merge_indexed",
    "rebuild_trace",
    "shm_available",
]
