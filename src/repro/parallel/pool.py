"""The worker pool: forked processes, one private channel each.

A *round* is one list of chunk payloads of one task kind.  Every worker
owns one duplex channel to the parent, a ``socket.socketpair``
(:class:`~repro.parallel.worker.Channel`): the parent writes a chunk
to it as one frame and the worker writes back one frame, its result.
The engine cuts a round into at most one contiguous share per worker
(:func:`repro.bc.engine.split_round`), the fixed share per SM that
``schedule_blocks`` models; the parent computes the first share itself
(:class:`~repro.parallel.supervisor.SupervisedPool`), so
``DynamicBC(workers=N)`` forks ``N - 1`` processes and a round sends
chunk *j* to process *j*, never more chunks than processes.  The
parent keeps the table of which worker holds a chunk and since when,
so it can blame a failure on the right chunk without asking the
worker.

The parent reads every channel without blocking: :meth:`WorkerPool.poll`
waits on all of them at once and reads what each holds into one buffer
of the length its frame announces.  It never waits on a partial frame,
a frame can be any size, and a worker stopped or killed mid-send is
left to the heartbeat and liveness checks.  After starting a worker
the parent closes its copy of the worker's end, so a dead worker reads
as EOF; a channel that fails (EOF, a reset, a bad prefix) is closed
and its worker reads as dead.

Workers read the engine's state through the shared-memory arena
(:mod:`repro.parallel.shm`).  :class:`WorkerPool` owns dispatch, the
chunk table, transport accounting, heartbeat-slot reads, respawn and
lifecycle; it never collects a round itself:
:class:`~repro.parallel.supervisor.SupervisedPool` drives it, adding
heartbeat monitoring, hung-worker SIGKILL, bounded respawn,
quarantine and the degradation ladder.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import select
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.parallel import worker as _worker


class ParallelExecutionError(RuntimeError):
    """Base class for failures inside the parallel execution layer."""


class WorkerTaskError(ParallelExecutionError):
    """A task raised inside a worker; the message carries the remote
    exception and traceback."""


#: seconds between liveness polls while waiting on the channels
_POLL_SECONDS = 0.05

#: seconds a graceful close waits for the workers to leave their loops
#: before it SIGKILLs the rest, and the bound on reaping a killed one
JOIN_TIMEOUT = 2.0

#: zeroed transport-stats template (:meth:`WorkerPool.transport_stats`)
_STATS_ZERO = {
    "rounds": 0,  #: rounds dispatched
    "chunks": 0,  #: chunks sent to the workers
    "queue_bytes": 0,  #: result bytes read from the channels
    "dispatch_seconds": 0.0,  #: parent time encoding and sending chunks
    "decode_seconds": 0.0,  #: parent time decoding result frames
}


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's health snapshot: its heartbeat slot and the
    parent's chunk table.

    ``beat_age`` is ``0.0`` when heartbeats are disabled (the pool was
    built with ``heartbeat_interval=0``).
    """

    worker: int  #: worker index in the pool
    alive: bool  #: is the process alive with its channel open?
    beat_age: float  #: seconds since the last heartbeat stamp
    busy_seconds: float  #: seconds since its chunk was sent (0 = idle)
    chunk_id: int  #: chunk of the current round it holds (-1 when idle)


class WorkerPool:
    """*processes* worker processes, each on its own channel to the
    parent."""

    def __init__(self, processes: int,
                 heartbeat_interval: float = 0.0) -> None:
        if processes < 1:
            raise ValueError(
                f"WorkerPool needs >= 1 process, got {processes}")
        self.processes = int(processes)
        #: heartbeat stamp period for the workers (0 disables the
        #: heartbeat slots entirely)
        self.heartbeat_interval = float(heartbeat_interval)
        # fork shares the parent's loaded modules (microsecond spawns
        # on Linux); spawn is the portable fallback.
        methods = mp.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(self.start_method)
        self._procs: List[Any] = []
        self._channels: List[Optional[_worker.Channel]] = []
        #: per worker, the monotonic time its chunk was sent (None: idle)
        self._sent: List[Optional[float]] = []
        self._heartbeat: Any = None
        self._stats: Dict[str, float] = dict(_STATS_ZERO)
        self._spawn()

    def _spawn(self) -> None:
        self._heartbeat = None
        if self.heartbeat_interval > 0:
            # every worker's beat slot starts fresh
            self._heartbeat = self._ctx.Array(
                "d", [time.monotonic()] * self.processes, lock=False
            )
        self._sent = [None] * self.processes
        for j in range(self.processes):
            ours, theirs = socket.socketpair()
            ours.setblocking(False)
            self._channels.append(_worker.Channel(ours))
            with theirs:  # only the worker may hold its end
                proc = self._ctx.Process(
                    target=_worker.worker_main,
                    args=(theirs, j, self._heartbeat,
                          self.heartbeat_interval),
                    name=f"repro-worker-{j}",
                    daemon=True,
                )
                proc.start()
            self._procs.append(proc)

    # ------------------------------------------------------------------
    def start_round(self, kind: str, common: dict,
                    payloads: List[dict]) -> None:
        """Send chunk *j* to worker *j* (at most one chunk per worker)
        and enter it in the chunk table.  The caller collects the
        replies via :meth:`poll`."""
        if payloads and not self._procs:
            self._spawn()
        self._stats["rounds"] += 1
        self._stats["chunks"] += len(payloads)
        start = time.perf_counter()
        for j, payload in enumerate(payloads):
            self._sent[j] = time.monotonic()
            channel = self._channels[j]
            if channel is not None:
                try:
                    channel.write(_worker.encode((kind, common, payload)))
                except OSError:  # the worker is gone
                    self._drop(j)
        self._stats["dispatch_seconds"] += time.perf_counter() - start

    @property
    def sending(self) -> bool:
        """Is part of some chunk still unsent (a frame longer than its
        socket's buffer, finished by later polls)?"""
        return any(c is not None and c.sending for c in self._channels)

    def poll(self, timeout: float = _POLL_SECONDS) -> List[tuple]:
        """Wait up to *timeout* seconds on every open channel, move
        what each one holds without blocking, and return the
        ``(chunk_id, status, result)`` replies it completed (chunk *j*
        is worker *j*'s)."""
        poller = select.poll()
        workers = {}
        for j, channel in enumerate(self._channels):
            if channel is not None:
                poller.register(channel.sock, select.POLLIN | (
                    select.POLLOUT if channel.sending else 0))
                workers[channel.sock.fileno()] = j
        replies = []
        for fd, _ in poller.poll(timeout * 1000.0):
            j = workers[fd]
            channel = self._channels[j]
            try:
                channel.flush()
                payload = channel.read()
            except (OSError, EOFError, ValueError):
                self._drop(j)
                continue
            if payload is None:
                continue
            self._stats["queue_bytes"] += _worker.PREFIX.size + len(payload)
            start = time.perf_counter()
            status, result = _worker.decode(payload)
            self._stats["decode_seconds"] += time.perf_counter() - start
            self._sent[j] = None
            replies.append((j, status, result))
        return replies

    def _drop(self, j: int) -> None:
        """Close worker *j*'s failed channel: from now on the worker
        reads as dead (:meth:`worker_status`)."""
        self._channels[j].sock.close()
        self._channels[j] = None

    def transport_stats(self) -> Dict[str, Any]:
        """Cumulative result-transport accounting (benchmarks read
        this to report bytes moved and real dispatch overhead)."""
        return dict(self._stats)

    def worker_status(self, j: int, now: Optional[float] = None) -> WorkerStatus:
        """Health snapshot of worker *j* from its heartbeat slot and the
        chunk table."""
        if now is None:
            now = time.monotonic()
        beat_age = 0.0
        if self._heartbeat is not None:
            beat_age = max(0.0, now - self._heartbeat[j])
        chunk_id, busy = -1, 0.0
        if self._sent[j] is not None:
            chunk_id, busy = j, max(0.0, now - self._sent[j])
        return WorkerStatus(
            worker=j,
            alive=self._channels[j] is not None and self._procs[j].is_alive(),
            beat_age=beat_age,
            busy_seconds=busy,
            chunk_id=chunk_id,
        )

    def kill_worker(self, j: int) -> None:
        """SIGKILL worker *j* and reap it.  SIGKILL (not SIGTERM) is
        mandatory here: a SIGSTOPped process queues SIGTERM without
        acting on it, but SIGKILL removes even a stopped process."""
        proc = self._procs[j]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=JOIN_TIMEOUT)

    def respawn(self) -> None:
        """Tear the pool down (non-graceful) and bring up a fresh one."""
        self._teardown(graceful=False)
        self._spawn()

    def close(self) -> None:
        """Stop the workers and close their channels (idempotent)."""
        self._teardown(graceful=True)

    def _teardown(self, graceful: bool) -> None:
        # Shutting the parent's end down is the stop signal: a worker
        # reads EOF and leaves its loop.  shutdown, not close alone,
        # because workers forked later hold copies of this end.
        for channel in self._channels:
            if channel is not None:
                with contextlib.suppress(OSError):  # the worker is gone
                    channel.sock.shutdown(socket.SHUT_RDWR)
                channel.sock.close()
        # A graceful close lets the workers leave within JOIN_TIMEOUT;
        # the rest, and every worker of a failed round at once, get
        # SIGKILL: workers hold no state a gentler signal could save,
        # and a SIGSTOPped one heeds nothing else.  The join after it
        # reaps, so no zombie outlives a teardown.
        deadline = time.monotonic() + JOIN_TIMEOUT
        for proc in self._procs:
            if graceful:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=JOIN_TIMEOUT)
        self._procs = []
        self._channels = []
        self._sent = []
        self._heartbeat = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(processes={self.processes}, "
            f"alive={sum(p.is_alive() for p in self._procs)})"
        )
