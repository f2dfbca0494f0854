"""Thread-backed worker pool: the free-threaded CPython backend.

:class:`ThreadWorkerPool` runs the *identical* round protocol as the
process pool — ``(kind, round_id, chunk_id, common, payload)`` tasks in,
``(status, round_id, chunk_id, result)`` messages out, shared-queue
chunk pulling, stale-round discard — but on daemon threads inside the
parent process.  That removes every serialization and shm hop: tasks carry the
state arrays as direct references (``common["views"]``), workers read
the engine's own d/sigma/delta rows (an update task writes none; only
Brandes builds, recomputes and repairs write rows), and results return
by reference (``queue_bytes == 0`` by construction).

The engine selects this backend only on free-threaded CPython
(3.13t+/3.14t, ``sys._is_gil_enabled() is False``), where the workers
genuinely run in parallel and skip fork, shm setup and framing
entirely.  On GIL builds it is correct but serialized; the tests reach
it there for differential checks (bit-identity is backend-independent).

Supervision compatibility: the pool shares the process pool's round
bookkeeping (:class:`~repro.parallel.pool.RoundPool`) and keeps
per-worker heartbeat slots, so
:class:`~repro.parallel.supervisor.SupervisedPool` drives both
backends unchanged.  The fault hooks are cooperative — a *crash* makes
the worker thread exit without reporting (liveness polling sees a dead
handle), a *stall* makes it stop heartbeating and park on its kill
event (heartbeat staleness sees a hang, :meth:`kill_worker` releases
it).  The one honest limitation vs processes: a thread hung *inside*
un-instrumented compute cannot be SIGKILLed, only abandoned — teardown
replaces the queues so a late result lands in an orphaned queue, and
the supervisor's retry proceeds.  An abandoned update task cannot
write an update's rows after the retry, since update tasks write no
state; a thread abandoned inside a Brandes build, recompute or repair
can still overwrite its rows late.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from types import SimpleNamespace
from typing import Optional

from repro.parallel import worker as _worker
from repro.parallel.pool import _POLL_SECONDS, RoundPool


def free_threading_active() -> bool:
    """``True`` when this interpreter runs with the GIL disabled (the
    free-threaded CPython 3.13+ builds); absent the probe (<=3.12),
    the GIL is on."""
    import sys

    probe = getattr(sys, "_is_gil_enabled", None)
    return probe is not None and not probe()


class _ThreadHandle:
    """Liveness facade over one worker thread, duck-typing the subset
    of ``multiprocessing.Process`` the pool and supervisor touch
    (``is_alive``/``name``/``join``)."""

    def __init__(self, index: int) -> None:
        self.name = f"repro-thread-worker-{index}"
        self.index = index
        self.thread: Optional[threading.Thread] = None
        #: set by the crash hook or kill_worker: the handle reports
        #: dead even while the abandoned thread unwinds
        self.dead = False
        #: set by the stall hook: the beater stops stamping (the
        #: thread-backend analogue of a SIGSTOP freezing the process)
        self.stalled = False
        #: released by kill_worker; the stalled worker parks on it
        self.kill_event = threading.Event()

    def is_alive(self) -> bool:
        """Alive = the thread runs and has not been marked dead."""
        return (not self.dead and self.thread is not None
                and self.thread.is_alive())

    def join(self, timeout: Optional[float] = None) -> None:
        """Join the underlying thread (no-op when never started)."""
        if self.thread is not None:
            self.thread.join(timeout)


class ThreadWorkerPool(RoundPool):
    """Thread-backed drop-in for :class:`~repro.parallel.pool.
    WorkerPool`: same round protocol, results by reference."""

    backend = "threads"
    transport = "reference"

    def _spawn(self) -> None:
        self._tasks = _queue.Queue()
        self._results = _queue.Queue()
        self._heartbeat = None
        if self.heartbeat_interval > 0:
            self._heartbeat = self._init_heartbeat(
                [0.0] * (_worker.HB_SLOTS * self.workers)
            )
        self._procs = []
        for j in range(self.workers):
            handle = _ThreadHandle(j)
            handle.thread = threading.Thread(
                target=self._worker_loop,
                args=(handle, self._tasks, self._results),
                name=handle.name,
                daemon=True,
            )
            handle.thread.start()
            self._procs.append(handle)
            if self._heartbeat is not None:
                self._start_beater(handle)

    def _start_beater(self, handle: _ThreadHandle) -> None:
        """Per-worker heartbeat stamper; stops with the handle (dead)
        and freezes with it (stalled) so supervision sees the same
        staleness signal a frozen process would produce."""
        base = _worker.HB_SLOTS * handle.index
        interval = self.heartbeat_interval
        heartbeat = self._heartbeat

        def _beat() -> None:
            while handle.is_alive():
                if not handle.stalled:
                    heartbeat[base + _worker.HB_BEAT] = time.monotonic()
                time.sleep(interval)

        threading.Thread(target=_beat, daemon=True,
                         name=f"{handle.name}-beat").start()

    def _worker_loop(self, handle: _ThreadHandle, tasks, results) -> None:
        """The thread-side task loop: same message protocol as
        :func:`repro.parallel.worker.worker_main`, with direct array
        views instead of an shm attachment and cooperative fault
        hooks instead of signals."""
        base = _worker.HB_SLOTS * handle.index
        heartbeat = self._heartbeat
        beating = heartbeat is not None
        while True:
            message = tasks.get()
            if message == _worker.STOP:
                break
            kind, round_id, chunk_id, common, payload = message
            if beating:
                heartbeat[base + _worker.HB_ROUND] = float(round_id)
                heartbeat[base + _worker.HB_CHUNK] = float(chunk_id)
                heartbeat[base + _worker.HB_TASK_START] = time.monotonic()
            # The fault hooks run *outside* the try/finally: a process
            # worker dies via os._exit with its heartbeat slots still
            # stamped, and the supervisor's culprit scan (and chunk
            # quarantine) needs the same forensics here.
            if payload.get(_worker.CRASH_KEY):
                # Cooperative crash: vanish without a result; the
                # parent's liveness poll attributes the loss.
                handle.dead = True
                return
            if payload.get(_worker.STALL_KEY):
                # Cooperative hang: stop heartbeating, park until
                # kill_worker releases us, then vanish.
                handle.stalled = True
                handle.kill_event.wait()
                handle.dead = True
                return
            try:
                shim = SimpleNamespace(arrays=common.get("views") or {})
                result = _worker.run_task(shim, kind, common, payload)
            except BaseException as exc:
                import traceback

                detail = (f"{type(exc).__name__}: {exc}\n"
                          f"{traceback.format_exc()}")
                results.put(("error", round_id, chunk_id, detail))
            else:
                results.put(("ok", round_id, chunk_id, result))
            finally:
                if beating:
                    heartbeat[base + _worker.HB_TASK_START] = 0.0
                    heartbeat[base + _worker.HB_ROUND] = -1.0
                    heartbeat[base + _worker.HB_CHUNK] = -1.0

    def poll_result(self, timeout: float = _POLL_SECONDS):
        """One ``(status, round_id, chunk_id, result)`` message, or
        ``None`` after *timeout* seconds — nothing to decode, results
        are references."""
        try:
            return self._results.get(timeout=timeout)
        except _queue.Empty:
            return None

    def kill_worker(self, j: int) -> None:
        """Cooperatively remove worker *j*: release its kill event
        (frees a parked stalled worker), mark the handle dead, and
        give the thread a bounded join.  A thread genuinely stuck in
        compute is abandoned, not reaped — see the module docstring."""
        handle = self._procs[j]
        handle.kill_event.set()
        handle.dead = True
        handle.join(timeout=self.join_timeout)

    def _teardown(self, graceful: bool) -> None:
        if self._procs:
            # STOP sentinels drain the live workers; dead/stalled ones
            # ignore the queue, so release every kill event too.
            for handle in self._procs:
                handle.kill_event.set()
                if self._tasks is not None:
                    self._tasks.put(_worker.STOP)
            deadline = time.monotonic() + self.join_timeout
            for handle in self._procs:
                handle.join(timeout=max(0.0, deadline - time.monotonic()))
                # A thread that failed to exit is abandoned: fresh
                # queues (below) orphan anything it posts later.
                handle.dead = True
        self._procs = []
        self._tasks = None
        self._results = None
        self._heartbeat = None
