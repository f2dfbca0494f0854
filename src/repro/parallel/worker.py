"""Worker-process loop: one contiguous chunk of sources per task.

This module runs inside the pool's child processes.  Each worker owns
one duplex channel to the parent (a ``socket.socketpair``; see
:mod:`repro.parallel.pool`).  A task arrives on it as one frame of
``(kind, common, payload)``; it executes one contiguous chunk of source
indices — the worker's whole share of the round, as the engine cuts
one chunk per worker — against the shared-memory arena
(:mod:`repro.parallel.shm`), and the worker writes back one frame of
``(status, result)`` (:func:`post_result`).  The parent runs the same
handlers on its own share of every round (:func:`run_task`), over its
own snapshot and state rows.

Division of labour with the parent (the determinism contract):

* **Workers** run the level-synchronous executor
  (:mod:`repro.bc.batched`) over all sources of their chunk at once,
  reading the shared ``d``/``sigma``/``delta`` rows zero-copy and
  writing none of them, and return the chunk's results as the flat
  columns of one :class:`~repro.bc.batched.RowResults`: per source its
  simulated seconds, per-stage seconds and counter totals (costed and
  folded in the worker by a :class:`~repro.gpu.ledger.CostLedger`),
  its :class:`UpdateStats` fields, and its write-set, CSR-packed —
  touched vertex ids with their new δ, and their new σ and ``d`` only
  where those can differ from the stored values.
* **The parent** commits the write-sets of every row at once, one
  scatter per column, and replays every order-*sensitive* float
  accumulation (bc adjustments, which it derives from the journaled
  δ, stage-seconds folds, counter absorption) over the concatenated
  columns in ascending source order — the same commit and fold the
  serial path runs — reproducing the serial execution bit for bit no
  matter which worker finished first.  A failed round therefore leaves no row to
  undo.  Only Brandes builds, recomputes and repairs write rows in the
  workers, each row whole.

Wire format: every message on a channel is one *frame*, ``MAGIC``
(u32) + payload length (u64), then the payload, a protocol-5
``pickle`` (:func:`encode`).  :class:`Channel` checks the magic and
reads the payload into one buffer of exactly the announced length; a
peer that closes mid-frame leaves a truncated frame, which is an
error, never a short result.  On the parent's non-blocking end a read
returns ``None`` until the whole frame is in, so the parent never waits
on a partial frame and a frame can be any size.

Supervision hooks (see :mod:`repro.parallel.supervisor`): when the pool
hands the worker a heartbeat slot, a daemon thread stamps
``time.monotonic()`` into it every ``heartbeat_interval`` seconds.  A
worker frozen by ``SIGSTOP`` freezes the thread too, so the parent
detects the hang as heartbeat staleness, even in the middle of a
frame; a worker stuck in compute keeps beating but trips the per-chunk
deadline, which the parent times from when it sent the chunk.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time
import traceback
from typing import Optional

from repro.bc.batched import SourceExecutor
from repro.bc.state import fill_rows
from repro.graph.csr import CSRGraph
from repro.parallel.shm import ShmAttachment

#: payload key that makes the worker die abruptly mid-task — the
#: crash-injection hook for the resilience tests
#: (SupervisedPool.arm_crash); never set by production dispatch
CRASH_KEY = "__crash__"

#: payload key that makes the worker SIGSTOP itself mid-task — the
#: hang-injection hook (SupervisedPool.arm_stall): the process freezes
#: (heartbeat thread included) exactly as an externally-stopped or
#: deadlocked worker would, and only SIGKILL can remove it
STALL_KEY = "__stall__"

#: frame prefix: magic + u64 payload length
MAGIC = 0x534C4142
PREFIX = struct.Struct("<IQ")


def encode(obj) -> bytes:
    """Frame *obj*: the prefix, then its protocol-5 pickle.  Raises
    whatever ``pickle`` raises for an object it cannot carry."""
    payload = pickle.dumps(obj, protocol=5)
    return PREFIX.pack(MAGIC, len(payload)) + payload


def decode(payload):
    """Unpickle one frame's payload, as :meth:`Channel.read` returns
    it.  Frames come only from this pool's own processes; unpickling
    anything else could run foreign code."""
    return pickle.loads(payload)


class Channel:
    """One end of a worker's socket, moving whole frames.

    On a blocking socket (the worker's end) :meth:`read` and
    :meth:`write` return when the frame is through.  On a non-blocking
    one (the parent's end) they move what the socket takes now; the
    parent polls the socket and calls :meth:`read` or :meth:`flush`
    again.
    """

    def __init__(self, sock) -> None:
        self.sock = sock
        self._head = bytearray(PREFIX.size)
        self._body: Optional[bytearray] = None
        self._got = 0
        self._out = memoryview(b"")

    @property
    def sending(self) -> bool:
        """Is part of the last written frame still unsent?"""
        return len(self._out) > 0

    def write(self, frame: bytes) -> None:
        """Send *frame* (an :func:`encode` result); on a non-blocking
        socket, as much of it as the socket takes now."""
        self._out = memoryview(frame)
        self.flush()

    def flush(self) -> None:
        """Send what the socket takes of the frame still unsent."""
        while self._out:
            try:
                sent = self.sock.send(self._out)
            except BlockingIOError:
                return
            self._out = self._out[sent:]

    def read(self) -> Optional[bytearray]:
        """The next frame's payload once all of it is in; ``None``
        while a non-blocking socket holds less.  Raises ``ValueError``
        on a bad magic and ``EOFError`` when the peer has closed its
        end (a truncated frame, if it did so mid-frame)."""
        while True:
            buf = self._head if self._body is None else self._body
            view = memoryview(buf)
            while self._got < len(buf):
                try:
                    got = self.sock.recv_into(view[self._got:])
                except BlockingIOError:
                    return None
                if not got:
                    mid = self._got > 0 or self._body is not None
                    raise EOFError("truncated frame" if mid
                                   else "channel closed")
                self._got += got
            self._got = 0
            if self._body is not None:
                payload, self._body = self._body, None
                return payload
            magic, length = PREFIX.unpack(self._head)
            if magic != MAGIC:
                raise ValueError(f"bad frame magic {magic:#x}")
            self._body = bytearray(length)


def _start_heartbeat(heartbeat, slot: int, interval: float) -> None:
    """Start the daemon thread that stamps ``time.monotonic()`` into
    this worker's beat slot every *interval* seconds.

    A plain assignment into a lock-free ``multiprocessing.Array`` slot
    is a single aligned 8-byte store — no lock needed, and the parent
    always reads a consistent value.  ``monotonic()`` is system-wide
    comparable on Linux (CLOCK_MONOTONIC), so the parent can age the
    stamp against its own clock.
    """

    def _beat() -> None:
        while True:
            heartbeat[slot] = time.monotonic()
            time.sleep(interval)

    threading.Thread(target=_beat, daemon=True,
                     name="repro-heartbeat").start()


def post_result(channel: Channel, status: str, result) -> None:
    """Write one reply frame, ``(status, result)``, to the parent.  A
    result ``pickle`` cannot carry raises here, before a byte is
    written; the task loop reports it as the task's error."""
    channel.write(encode((status, result)))


def worker_main(sock, worker_id: int, heartbeat,
                heartbeat_interval: float) -> None:
    """Serve tasks from this worker's channel (*sock*) until the parent
    closes its end; never let an exception escape (errors travel back
    to the parent as ``("error", traceback)`` replies).

    When *heartbeat* (the pool's shared beat array, one slot per
    worker) is provided with a positive *heartbeat_interval*, a thread
    stamps this worker's slot so the supervisor can detect hangs.
    """
    channel = Channel(sock)
    attachment = None
    if heartbeat is not None and heartbeat_interval > 0:
        heartbeat[worker_id] = time.monotonic()
        _start_heartbeat(heartbeat, int(worker_id), float(heartbeat_interval))
    while True:
        try:
            kind, common, payload = decode(channel.read())
        except (EOFError, OSError):
            break  # the parent closed its end: the pool is shutting down
        try:
            if payload.get(CRASH_KEY):
                os._exit(3)
            if payload.get(STALL_KEY):
                os.kill(os.getpid(), signal.SIGSTOP)
            spec = common.get("spec")
            if spec is not None and (
                attachment is None
                or attachment.generation != spec["generation"]
            ):
                if attachment is not None:
                    attachment.close()
                attachment = ShmAttachment(spec)
            views = None if spec is None else _views(attachment, common)
            result = run_task(views, kind, common, payload)
            post_result(channel, "ok", result)
        except BaseException as exc:
            detail = (
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc()}"
            )
            try:
                post_result(channel, "error", detail)
            except OSError:  # pragma: no cover - the parent is gone
                os._exit(1)
    if attachment is not None:
        attachment.close()


def run_task(views, kind: str, common: dict, payload: dict):
    """Execute one task *in the calling process* over *views*, the
    ``(graph, sources, d, sigma, delta)`` it runs on (``None`` for the
    kinds that read no state).

    A worker passes the views of its attached arena (:func:`_views`);
    the parent passes the round's own snapshot and state rows — the
    same bytes the arena mirrors — when it computes its share of a
    round, a quarantined chunk, every chunk at the serial rung, or a
    whole round without a pool.  Either way the same handler runs, so
    every result (and every row a build or repair writes) is
    bit-identical.
    """
    return _HANDLERS[kind](views, common, payload)


def _views(attachment, common):
    """Zero-copy CSR + state views over the attached arena."""
    n = common["n"]
    arcs = common["arcs"]
    arrays = attachment.arrays
    # the parent's snapshot, already checked
    graph = CSRGraph.from_sorted_rows(
        arrays["row_offsets"][: n + 1], arrays["col_indices"][:arcs]
    )
    return (
        graph,
        arrays["sources"],
        arrays["d"],
        arrays["sigma"],
        arrays["delta"],
    )


def _handle_update(views, common, payload):
    """One streaming update's active sources in this chunk: run the
    level-synchronous executor over the state rows, which it only
    reads, and return the chunk's :class:`~repro.bc.batched.RowResults`
    columns, write-sets included."""
    from repro.bc.engine import rebuild_row

    graph, sources, d, sigma, delta = views
    static = (common["static_strategy"], common["op_costs"], common["access"])
    executor = SourceExecutor(common["backend"], common["op_costs"],
                              common["access"], common["cost_model"])
    return executor.run(
        graph, sources, d, sigma, delta, payload["items"],
        common["operation"],
        lambda i: rebuild_row(graph, int(sources[i]), *static),
    ).arrays()


def _handle_brandes(views, common, payload):
    """Initial build / full recompute: fresh Brandes rows in place."""
    fill_rows(*views, payload["items"])


def _handle_rebuild(views, common, payload):
    """repair_source: rebuild rows in place and return the static
    repair trace."""
    from repro.bc.engine import rebuild_row

    graph, sources, d, sigma, delta = views
    static = (common["static_strategy"], common["op_costs"], common["access"])
    out = []
    for i in payload["items"]:
        i = int(i)
        (d[i], sigma[i], delta[i]), stats, trace = rebuild_row(
            graph, int(sources[i]), *static)
        out.append((i, trace.steps, stats.touched, stats.sp_levels))
    return out


def _handle_check(views, common, payload):
    """check_rows: compare stored rows against a scratch recompute."""
    from repro.resilience.guards import row_drift_component

    graph, sources, d, sigma, delta = views
    atol = common["atol"]
    bad = []
    for i in payload["items"]:
        i = int(i)
        component = row_drift_component(
            graph, int(sources[i]), d[i], sigma[i], delta[i], atol=atol
        )
        if component is not None:
            bad.append((i, component))
    return bad


def _handle_ping(views, common, payload):
    """Health check / pool tests: echo the payload items."""
    return list(payload.get("items", []))


def _handle_sleep(views, common, payload):
    """Supervision tests only: busy-sleep ``payload['seconds']`` (in
    short naps, heartbeats keep flowing), then echo the items — a
    compute loop that outlives a chunk deadline without hanging."""
    deadline = time.monotonic() + float(payload.get("seconds", 0.0))
    while time.monotonic() < deadline:
        time.sleep(0.01)
    return list(payload.get("items", []))


_HANDLERS = {
    "update": _handle_update,
    "brandes": _handle_brandes,
    "rebuild": _handle_rebuild,
    "check": _handle_check,
    "ping": _handle_ping,
    "sleep": _handle_sleep,
}
