"""Drive a generated workload through a live :class:`BCService`.

:func:`drive_workload` is the shared measurement harness behind both
``repro.cli serve`` and ``benchmarks/bench_service.py``: it plays a
:class:`~repro.service.loadgen.Workload` against a service — writes
through the ingest queue, reads against the snapshot store — and
reports the serving metrics the tentpole promises: p50/p99/max query
latency, sustained applied-updates/sec, flush-reason mix, and how many
queries were answered *while* an update batch was in flight (the
non-blocking-reads proof).

Timing uses wall-clock (allowed outside ``repro.bc``/``repro.gpu``;
see rule R001) because service latency *is* wall time; the
workload itself stays fully seeded.

With ``install_signals=True`` the driver turns SIGTERM/SIGINT into a
graceful shutdown: intake stops, the queue drains, a final checkpoint
is written at the exact watermark, and the journal is fsynced and
closed before the loop exits — so a supervised restart resumes with
nothing to replay.  ``ack_stream`` emits one ``ack <seq>`` line per
durably acknowledged write (the crash drill's observer reads these to
know the service's durability lower bound at kill time).
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Dict, Optional

import numpy as np

from repro.graph.stream import EdgeEvent
from repro.service.loadgen import QueryOp, Workload
from repro.service.service import BCService


def _percentiles(latencies) -> Dict:
    """p50/p99/max of a latency list, in milliseconds."""
    if not latencies:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0, "count": 0}
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
        "max_ms": float(np.percentile(arr, 100)),
        "count": int(arr.size),
    }


async def _drive(service: BCService, workload: Workload, pace: float,
                 duration: float, stop_event: Optional[asyncio.Event] = None,
                 ack_stream=None) -> Dict:
    """Inner async loop: issue ops in order, time the queries."""
    latencies = []
    during_apply_latencies = []
    started = time.monotonic()
    prev_t: Optional[float] = None
    truncated = False
    interrupted = False
    for op in workload.ops:
        if stop_event is not None and stop_event.is_set():
            interrupted = True
            break
        if duration > 0 and time.monotonic() - started >= duration:
            truncated = True
            break
        if pace > 0 and prev_t is not None and op.time > prev_t:
            await asyncio.sleep((op.time - prev_t) * pace)
        else:
            # Back-to-back mode: yield one loop turn per op so the
            # flusher actually interleaves with the open-loop driver —
            # the realistic shape where reads land mid-apply.
            await asyncio.sleep(0)
        prev_t = op.time
        if isinstance(op, EdgeEvent):
            seq = await service.submit(op)
            if ack_stream is not None and seq is not None:
                # One line per acknowledged write, flushed immediately:
                # in ack_durable mode the record is fsynced by the time
                # this prints, so an observer's last-seen ack is a hard
                # lower bound on what recovery must reproduce.
                ack_stream.write(f"ack {seq}\n")
                ack_stream.flush()
            continue
        applying = service._applying
        t0 = time.perf_counter()
        if op.kind == "top_k":
            await service.query_top_k(op.arg if op.arg else 10)
        else:
            await service.query_bc(
                None if op.arg is None else [op.arg]
            )
        elapsed = time.perf_counter() - t0
        latencies.append(elapsed)
        if applying:
            during_apply_latencies.append(elapsed)
    await service.drain()
    wall = time.monotonic() - started
    return {
        "wall_seconds": wall,
        "truncated": truncated,
        "interrupted": interrupted,
        "latencies": latencies,
        "during_apply_latencies": during_apply_latencies,
    }


def drive_workload(
    engine,
    workload: Workload,
    *,
    max_batch: int = 64,
    max_delay: float = 0.05,
    max_pending: int = 1024,
    pace: float = 0.0,
    duration: float = 0.0,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    checkpoint_keep: Optional[int] = None,
    resume_from=None,
    wal_dir=None,
    wal_segment_records: Optional[int] = None,
    ack_durable: Optional[bool] = None,
    fsync_every: Optional[int] = None,
    fsync_delay: Optional[float] = None,
    install_signals: bool = False,
    ack_stream=None,
) -> Dict:
    """Run *workload* against a fresh service over *engine*; returns a
    JSON-ready metrics dict.

    ``pace``
        Wall-seconds per workload time unit.  ``0`` (default) issues
        ops back-to-back — the throughput-stress shape; a positive
        value reproduces the workload's arrival curve in wall time.
    ``duration``
        Wall-clock budget in seconds; ``0`` plays the whole workload.
        A truncated run is flagged in the result (accepted writes are
        still drained before the service stops).
    ``wal_dir`` / ``ack_durable`` / ``fsync_every`` / ``fsync_delay``
        Journal configuration passed through to :class:`BCService`.
    ``install_signals``
        Turn SIGTERM/SIGINT into a graceful stop: finish the in-flight
        op, drain accepted writes, write a final checkpoint, fsync and
        close the journal, and return normally (the run is flagged
        ``interrupted``).
    ``ack_stream``
        Writable text stream receiving one flushed ``ack <seq>`` line
        per acknowledged write (journal mode only).
    """
    service_kwargs: Dict = {}
    if fsync_every is not None:
        service_kwargs["fsync_every"] = fsync_every
    if fsync_delay is not None:
        service_kwargs["fsync_delay"] = fsync_delay

    async def _main() -> Dict:
        service = BCService(
            engine, max_batch=max_batch, max_delay=max_delay,
            max_pending=max_pending, checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir, checkpoint_keep=checkpoint_keep,
            resume_from=resume_from, wal_dir=wal_dir,
            wal_segment_records=wal_segment_records,
            ack_durable=ack_durable, **service_kwargs,
        )
        loop = asyncio.get_running_loop()
        stop_event: Optional[asyncio.Event] = None
        installed = []
        if install_signals:
            stop_event = asyncio.Event()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop_event.set)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass  # non-Unix loop: fall back to KeyboardInterrupt
        final_checkpoint = None
        try:
            async with service as svc:
                run = await _drive(svc, workload, pace, duration,
                                   stop_event=stop_event,
                                   ack_stream=ack_stream)
                if run["interrupted"]:
                    # Graceful shutdown: everything accepted is already
                    # drained; pin the exact watermark so a restart
                    # replays nothing.
                    final_checkpoint = await asyncio.to_thread(
                        svc.core.checkpoint_now
                    )
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
        stats = svc.stats
        health = svc.health_report()
        applied = stats["events_applied"]
        wall = run["wall_seconds"]
        durability = {
            "wal_dir": None if wal_dir is None else str(wal_dir),
            "ack_durable": svc.ack_durable,
            "wal_appends": stats["wal_appends"],
            "wal_syncs": stats["wal_syncs"],
            "durable_waits": stats["durable_waits"],
            "wal_replayed_on_start": svc.core.wal_replayed,
            "final_checkpoint": final_checkpoint,
        }
        return {
            "profile": workload.profile,
            "num_vertices": workload.num_vertices,
            "ops_total": len(workload),
            "reads": workload.reads,
            "writes": workload.writes,
            "seed": workload.seed,
            "max_batch": max_batch,
            "max_delay": max_delay,
            "max_pending": max_pending,
            "pace": pace,
            "truncated": run["truncated"],
            "interrupted": run["interrupted"],
            "durability": durability,
            "wall_seconds": wall,
            "updates_applied": applied,
            "updates_skipped": stats["events_skipped"],
            "updates_per_second": (applied / wall) if wall > 0 else 0.0,
            "batches": stats["batches"],
            "flush_reasons": dict(stats["flush_reasons"]),
            "backpressure_waits": stats["backpressure_waits"],
            "rejected": stats["rejected"],
            "max_queue_depth": stats["max_queue_depth"],
            "queries": stats["queries"],
            "queries_during_apply": stats["queries_during_apply"],
            "query_latency": _percentiles(run["latencies"]),
            "query_latency_during_apply": _percentiles(
                run["during_apply_latencies"]
            ),
            "final_watermark": svc.watermark,
            "snapshot_version": svc.core.store.version,
            "snapshots_published": svc.core.store.published,
            "snapshot_buffers_allocated": svc.core.store.buffers_allocated,
            "snapshot_buffers_reused": svc.core.store.buffers_reused,
            "health_level": health["level"],
            "checkpoints_written": len(svc.core.result.checkpoints),
        }

    return asyncio.run(_main())
