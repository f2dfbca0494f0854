"""Worker-process loop: one contiguous chunk of sources per task.

This module runs inside the pool's child processes.  Tasks arrive on a
shared queue as ``(kind, round_id, chunk_id, common, payload)`` tuples;
each task executes one contiguous chunk of source indices — the
worker's whole share of the round, as the engine cuts one chunk per
worker — against the shared-memory arena (:mod:`repro.parallel.shm`)
and posts ``(status, round_id, chunk_id, result)`` back, the result
itself staged in the worker's result slab row (:func:`post_result`).

Division of labour with the parent (the determinism contract):

* **Workers** run the level-synchronous executor
  (:mod:`repro.bc.batched`) over all sources of their chunk at once,
  reading the shared ``d``/``sigma``/``delta`` rows zero-copy and
  writing none of them, and return the chunk's results as the flat
  columns of one :class:`~repro.bc.batched.RowResults`: per source its
  simulated seconds, per-stage seconds and counter totals (costed and
  folded in the worker by a :class:`~repro.gpu.ledger.CostLedger`),
  its :class:`UpdateStats` fields, and its write-set — touched vertex
  ids with their new ``d``, σ and δ — CSR-packed.
* **The parent** commits the write-sets, one row at a time in
  ascending source order, and replays every order-*sensitive* float
  accumulation (bc adjustments, which it derives from the journaled
  δ, stage-seconds folds, counter absorption) over the concatenated
  columns in that order — the same commit and fold the serial path
  runs — reproducing the serial execution bit for bit no matter which
  worker finished first.  A failed round therefore leaves no row to
  undo.  Only Brandes builds, recomputes and repairs write rows in the
  workers, each row whole.

Supervision hooks (see :mod:`repro.parallel.supervisor`): when the pool
hands the worker a heartbeat slot, a daemon thread stamps
``time.monotonic()`` into it every ``heartbeat_interval`` seconds and
the task loop records which (round, chunk) it is executing.  A worker
frozen by ``SIGSTOP`` freezes the thread too, so the parent detects the
hang as heartbeat staleness; a worker stuck in compute keeps beating
but trips the per-chunk deadline instead.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback

from repro.bc.batched import SourceExecutor
from repro.bc.brandes import single_source_state
from repro.graph.csr import CSRGraph
from repro.parallel import slabs as _slabs
from repro.parallel.shm import ShmAttachment

#: queue sentinel telling a worker to exit its loop
STOP = "__stop__"

#: payload key that makes the worker die abruptly mid-task — the
#: crash-injection hook for the resilience tests
#: (SupervisedPool.arm_crash); never set by production dispatch
CRASH_KEY = "__crash__"

#: payload key that makes the worker SIGSTOP itself mid-task — the
#: hang-injection hook (SupervisedPool.arm_stall): the process freezes
#: (heartbeat thread included) exactly as an externally-stopped or
#: deadlocked worker would, and only SIGKILL can remove it
STALL_KEY = "__stall__"

#: heartbeat-slot layout: each worker owns ``HB_SLOTS`` consecutive
#: doubles in the pool's lock-free shared array
HB_SLOTS = 4
#: slot 0 — last ``time.monotonic()`` stamped by the heartbeat thread
HB_BEAT = 0
#: slot 1 — ``time.monotonic()`` when the current task started (0.0
#: when idle)
HB_TASK_START = 1
#: slot 2 — round id of the current task (-1 when idle)
HB_ROUND = 2
#: slot 3 — chunk id of the current task (-1 when idle)
HB_CHUNK = 3


def _start_heartbeat(heartbeat, base: int, interval: float) -> None:
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
            heartbeat[base + HB_BEAT] = time.monotonic()
            time.sleep(interval)

    threading.Thread(target=_beat, daemon=True,
                     name="repro-heartbeat").start()


def post_result(results, writer, round_id: int, chunk_id: int,
                result) -> None:
    """Ship one chunk result to the parent.

    The result is framed once (:func:`repro.parallel.slabs.encode`).
    The frame goes into this worker's slab row and only a ``(worker,
    offset, length)`` header crosses the queue (``ok-slab``); a frame
    too big for the remaining row space spills through the queue
    itself (``ok-enc``).  A result ``pickle`` cannot carry raises here,
    before anything is queued; the task loop reports it as the task's
    error.
    """
    frame = _slabs.encode(result)
    ref = writer.write(round_id, frame)
    if ref is None:
        results.put(("ok-enc", round_id, chunk_id, frame))
    else:
        results.put(("ok-slab", round_id, chunk_id,
                     (writer.worker_id, ref[0], ref[1])))


def worker_main(tasks, results, worker_id: int, heartbeat,
                heartbeat_interval: float, slab_spec: dict) -> None:
    """Pull tasks until :data:`STOP`; never let an exception escape
    (errors travel back to the parent as structured results).

    When *heartbeat* (the pool's shared slot array) is provided with a
    positive *heartbeat_interval*, the worker stamps liveness and
    per-task (round, chunk, start-time) bookkeeping into its slots so
    the supervisor can detect hangs and attribute them to a chunk.

    Results are staged in this worker's row of the pool's result slabs
    (*slab_spec*) via :func:`post_result`.
    """
    attachment = None
    writer = _slabs.SlabWriter(slab_spec, worker_id)
    base = HB_SLOTS * int(worker_id)
    beating = heartbeat is not None and heartbeat_interval > 0
    if beating:
        heartbeat[base + HB_BEAT] = time.monotonic()
        _start_heartbeat(heartbeat, base, float(heartbeat_interval))
    while True:
        message = tasks.get()
        if message == STOP:
            break
        kind, round_id, chunk_id, common, payload = message
        try:
            if beating:
                # Attribution before the fault hooks: a worker that
                # crashes or stalls right here must still be blamed on
                # the correct (round, chunk).
                heartbeat[base + HB_ROUND] = float(round_id)
                heartbeat[base + HB_CHUNK] = float(chunk_id)
                heartbeat[base + HB_TASK_START] = time.monotonic()
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
            result = _HANDLERS[kind](attachment, common, payload)
            post_result(results, writer, round_id, chunk_id, result)
        except BaseException as exc:
            detail = (
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc()}"
            )
            try:
                results.put(("error", round_id, chunk_id, detail))
            except Exception:  # pragma: no cover - queue already gone
                os._exit(1)
        finally:
            if beating:
                heartbeat[base + HB_TASK_START] = 0.0
                heartbeat[base + HB_ROUND] = -1.0
                heartbeat[base + HB_CHUNK] = -1.0
    writer.close()
    if attachment is not None:
        attachment.close()


def run_task(attachment, kind: str, common: dict, payload: dict):
    """Execute one task *in the calling process* (no queue round-trip).

    This is the supervisor's serial-retry primitive: the parent runs
    the exact handler a worker would have run, against an attachment
    shim whose ``arrays`` are the arena's parent-side views — the same
    bytes the workers see — so the result (and every row a build or
    repair writes) is bit-identical to pool execution.
    """
    return _HANDLERS[kind](attachment, common, payload)


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


def _handle_update(attachment, common, payload):
    """One streaming update's active sources in this chunk: run the
    level-synchronous executor over the shared rows, which it only
    reads, and return the chunk's :class:`~repro.bc.batched.RowResults`
    columns, write-sets included."""
    from repro.bc.engine import rebuild_row

    graph, sources, d, sigma, delta = _views(attachment, common)
    static = (common["static_strategy"], common["op_costs"], common["access"])
    executor = SourceExecutor(common["backend"], common["op_costs"],
                              common["access"], common["cost_model"])
    return executor.run(
        graph, sources, d, sigma, delta, payload["items"],
        common["operation"],
        lambda i: rebuild_row(graph, int(sources[i]), *static),
    ).arrays()


def _handle_brandes(attachment, common, payload):
    """Initial build / full recompute: fresh Brandes rows in place."""
    graph, sources, d, sigma, delta = _views(attachment, common)
    done = []
    for i in payload["items"]:
        i = int(i)
        s = int(sources[i])
        single_source_state(graph, s, out=(d[i], sigma[i], delta[i]))
        delta[i, s] = 0.0
        done.append(i)
    return done


def _handle_rebuild(attachment, common, payload):
    """repair_source: rebuild rows in place and return the static
    repair trace."""
    from repro.bc.engine import rebuild_row

    graph, sources, d, sigma, delta = _views(attachment, common)
    static = (common["static_strategy"], common["op_costs"], common["access"])
    out = []
    for i in payload["items"]:
        i = int(i)
        (d[i], sigma[i], delta[i]), stats, trace = rebuild_row(
            graph, int(sources[i]), *static)
        out.append((i, trace.steps, stats.touched, stats.sp_levels))
    return out


def _handle_check(attachment, common, payload):
    """check_rows: compare stored rows against a scratch recompute."""
    from repro.resilience.guards import row_drift_component

    graph, sources, d, sigma, delta = _views(attachment, common)
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


def _handle_ping(attachment, common, payload):
    """Health check / pool tests: echo the payload items."""
    return list(payload.get("items", []))


def _handle_sleep(attachment, common, payload):
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
