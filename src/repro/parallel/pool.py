"""The worker pool: N long-lived processes, one private channel each.

A *round* is one list of chunk payloads of one task kind.  Every worker
owns one duplex channel to the parent, a ``socket.socketpair``
(:class:`~repro.parallel.worker.Channel`): the parent writes a chunk
to it as one frame and the worker writes back one frame, its result.
The engine cuts a round into at most one contiguous chunk per
requested worker (:func:`repro.bc.engine.split_round`): at full
strength chunk *j* goes to worker *j*, the fixed share per SM that
``schedule_blocks`` models; on a shrunk pool the next pending chunk
goes to whichever worker has just returned one.  The parent keeps the
table of which chunk each worker holds and since when, so it can
blame a failure on the right chunk without asking the worker.

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
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.parallel import worker as _worker


class ParallelExecutionError(RuntimeError):
    """Base class for failures inside the parallel execution layer."""


class WorkerTaskError(ParallelExecutionError):
    """A task raised inside a worker; the message carries the remote
    exception and traceback."""


#: seconds between liveness polls while waiting on the channels
_POLL_SECONDS = 0.05

#: default seconds granted per process per teardown-escalation stage
DEFAULT_JOIN_TIMEOUT = 2.0

#: zeroed transport-stats template (:meth:`WorkerPool.transport_stats`)
_STATS_ZERO = {
    "rounds": 0,  #: rounds dispatched
    "chunks": 0,  #: chunks dispatched
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
    """N worker processes, each on its own channel to the parent."""

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
        # fork shares the parent's loaded modules (microsecond spawns
        # on Linux); spawn is the portable fallback.
        methods = mp.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(self.start_method)
        self._procs: List[Any] = []
        self._channels: List[Optional[_worker.Channel]] = []
        #: per worker, the (chunk id, monotonic send time) it holds
        self._held: List[Optional[Tuple[int, float]]] = []
        self._task: Tuple[str, dict, List[dict]] = ("", {}, [])
        self._pending: Deque[int] = deque()
        self._heartbeat: Any = None
        self._stats: Dict[str, float] = dict(_STATS_ZERO)
        self._spawn()

    def _spawn(self) -> None:
        self._heartbeat = None
        if self.heartbeat_interval > 0:
            # every worker's beat slot starts fresh
            self._heartbeat = self._ctx.Array(
                "d", [time.monotonic()] * self.workers, lock=False
            )
        self._held = [None] * self.workers
        for j in range(self.workers):
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
        """Send a round's first chunks, chunk *j* to worker *j*; the
        rest wait until a worker returns one.  The caller collects the
        replies via :meth:`poll`."""
        if not self._procs:
            self._spawn()
        self._task = (kind, common, payloads)
        self._pending = deque(range(len(payloads)))
        self._stats["rounds"] += 1
        self._stats["chunks"] += len(payloads)
        for j in range(min(self.workers, len(payloads))):
            self._dispatch(j)

    def _dispatch(self, j: int) -> None:
        """Send worker *j* the round's next pending chunk and enter it
        in the chunk table."""
        start = time.perf_counter()
        chunk_id = self._pending.popleft()
        self._held[j] = (chunk_id, time.monotonic())
        kind, common, payloads = self._task
        channel = self._channels[j]
        if channel is not None:
            try:
                channel.write(_worker.encode((kind, common,
                                              payloads[chunk_id])))
            except OSError:  # the worker is gone
                self._drop(j)
        self._stats["dispatch_seconds"] += time.perf_counter() - start

    def poll(self, timeout: float = _POLL_SECONDS) -> List[tuple]:
        """Wait up to *timeout* seconds on every open channel, move
        what each one holds without blocking, and return the
        ``(chunk_id, status, result)`` replies it completed.  A worker
        that returns one gets the round's next pending chunk."""
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
            chunk_id = self._held[j][0]
            self._held[j] = None
            replies.append((chunk_id, status, result))
            if self._pending:
                self._dispatch(j)
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
        if self._held[j] is not None:
            chunk_id, sent = self._held[j]
            busy = max(0.0, now - sent)
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
        proc.join(timeout=self.join_timeout)

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
        self._channels = []
        self._held = []
        self._pending.clear()
        self._heartbeat = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, "
            f"alive={sum(p.is_alive() for p in self._procs)})"
        )
