"""Worker-process loop: one source per worker at a time.

This module runs inside the pool's child processes.  Tasks arrive on a
shared queue as ``(kind, round_id, chunk_id, common, payload)`` tuples;
each task executes one contiguous chunk of source indices against the
shared-memory arena (:mod:`repro.parallel.shm`) and posts
``(status, round_id, chunk_id, result)`` back.

Division of labour with the parent (the determinism contract):

* **Workers** run the level-synchronous executor
  (:mod:`repro.bc.batched`) over their chunk, mutating its
  ``d``/``sigma``/``delta`` rows in place (zero-copy, disjoint per
  source — no locks needed), and return the order-*insensitive*
  artifacts of each source: its :class:`~repro.gpu.counters.
  CostSummary` (simulated seconds, per-stage seconds, step/item/byte/
  atomic totals), its :class:`UpdateStats`, and its bc adjustment as a
  sparse ``(indices, values)`` pair.
* **The parent** replays every order-*sensitive* float accumulation
  (bc scatter-adds, stage-seconds folds, counter absorption) in
  ascending source order — the same single fold the serial path runs —
  reproducing the serial execution bit for bit no matter which worker
  finished first.

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

import numpy as np

from repro.bc.batched import SourceExecutor
from repro.bc.brandes import single_source_state
from repro.bc.static_gpu import trace_static_source
from repro.bc.update_core import UpdateStats
from repro.graph.csr import CSRGraph, DIST_INF
from repro.parallel import slabs as _slabs
from repro.parallel.shm import ShmAttachment

#: queue sentinel telling a worker to exit its loop
STOP = "__stop__"

#: payload key that makes the worker die abruptly mid-task — the
#: crash-injection hook for the resilience tests (WorkerPool.arm_crash);
#: never set by production dispatch
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


def post_result(results, writer, transport: str,
                round_id: int, chunk_id: int, result) -> None:
    """Ship one chunk result to the parent on the cheapest channel.

    Slab transport stages the framed result in this worker's slab row
    and posts only a ``(worker, offset, length)`` header (``ok-slab``);
    an oversized result spills as framed bytes through the queue
    (``ok-enc``).  The queue transport always sends framed bytes.  A
    result the framing cannot carry falls back to the legacy pickled
    ``ok`` message — correctness never depends on the fast path.
    """
    if writer is not None:
        ref = writer.write(round_id, result)
        if ref is not None:
            results.put(("ok-slab", round_id, chunk_id,
                         (writer.worker_id, ref[0], ref[1])))
            return
    try:
        data = _slabs.encode(result)
    except _slabs.SlabEncodeError:
        results.put(("ok", round_id, chunk_id, result))
    else:
        results.put(("ok-enc", round_id, chunk_id, data))


def worker_main(tasks, results, worker_id: int = 0, heartbeat=None,
                heartbeat_interval: float = 0.0, slab_spec=None,
                transport: str = "queue") -> None:
    """Pull tasks until :data:`STOP`; never let an exception escape
    (errors travel back to the parent as structured results).

    When *heartbeat* (the pool's shared slot array) is provided with a
    positive *heartbeat_interval*, the worker stamps liveness and
    per-task (round, chunk, start-time) bookkeeping into its slots so
    the supervisor can detect hangs and attribute them to a chunk.

    When *slab_spec* is provided (``transport="slab"``), results are
    staged in this worker's shared result slab via :func:`post_result`
    instead of being pickled through the queue.
    """
    attachment = None
    writer = None
    if slab_spec is not None and transport == "slab":
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
        except BaseException as exc:
            detail = (
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc()}"
            )
            try:
                results.put(("error", round_id, chunk_id, detail))
            except Exception:  # pragma: no cover - queue already gone
                os._exit(1)
        else:
            post_result(results, writer, transport,
                        round_id, chunk_id, result)
        finally:
            if beating:
                heartbeat[base + HB_TASK_START] = 0.0
                heartbeat[base + HB_ROUND] = -1.0
                heartbeat[base + HB_CHUNK] = -1.0
    if writer is not None:
        writer.close()
    if attachment is not None:
        attachment.close()


def run_task(attachment, kind: str, common: dict, payload: dict):
    """Execute one task *in the calling process* (no queue round-trip).

    This is the supervisor's serial-retry primitive: the parent runs
    the exact handler a worker would have run, against an attachment
    shim whose ``arrays`` are the arena's parent-side views — the same
    bytes the workers see — so the result (and every in-place row
    write) is bit-identical to pool execution.
    """
    return _HANDLERS[kind](attachment, common, payload)


def _views(attachment, common):
    """Zero-copy CSR + state views over the attached arena."""
    n = common["n"]
    arcs = common["arcs"]
    arrays = attachment.arrays
    graph = CSRGraph(
        arrays["row_offsets"][: n + 1], arrays["col_indices"][:arcs]
    )
    return (
        graph,
        arrays["sources"],
        arrays["d"],
        arrays["sigma"],
        arrays["delta"],
    )


def _rebuild_row(graph, sources, d, sigma, delta, i, common):
    """Rewrite state row *i* with a fresh Brandes pass (in place) and
    return ``(static trace, stats)``; the trace is built from the
    pass's own levels (mirrors ``DynamicBC._rebuild_row``)."""
    s = int(sources[i])
    d_row, _, _, levels = single_source_state(
        graph, s, out=(d[i], sigma[i], delta[i])
    )
    delta[i, s] = 0.0
    _, trace = trace_static_source(
        graph, s, common["static_strategy"], common["op_costs"],
        common["access"], rebuilt=(d_row, levels),
    )
    stats = UpdateStats(
        touched=int(np.count_nonzero(d[i] != DIST_INF)), moved=0,
        sp_levels=len(levels), dep_levels=len(levels) - 1,
    )
    return trace, stats


def _handle_update(attachment, common, payload):
    """One streaming update's active sources in this chunk: run the
    level-synchronous executor in place over the shared rows and
    return each source's cost summary, stats and sparse bc
    adjustment."""
    graph, sources, d, sigma, delta = _views(attachment, common)
    executor = SourceExecutor(common["backend"], common["op_costs"],
                              common["access"], common["cost_model"])

    def rebuild(i, acc):
        trace, stats = _rebuild_row(graph, sources, d, sigma, delta, i,
                                    common)
        acc.trace.extend(trace)
        return stats

    results = executor.run(graph, sources, d, sigma, delta,
                           payload["items"], common["operation"], rebuild)
    return [(i, r.cost, r.stats, r.bc_idx, r.bc_vals) for i, r in results]


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
    """repair_source: rebuild rows and return the static repair trace."""
    graph, sources, d, sigma, delta = _views(attachment, common)
    out = []
    for i in payload["items"]:
        i = int(i)
        trace, stats = _rebuild_row(graph, sources, d, sigma, delta, i,
                                    common)
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
