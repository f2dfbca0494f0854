"""The layers the traced run splits time across, and their metrics.

:func:`install` wraps each layer's public functions at the binding its
caller uses; :func:`metrics` turns the recorded spans, the engine's
reports and the program's own reports (``DynamicBC.transport_report()``,
``BCService.stats``) into the per-layer metrics of ``BENCHMARK.json``.
Worker processes are not traced: pool time is split with
``transport_report()`` deltas, and ``parallel.wait_s`` is the
``SupervisedPool.run`` span time minus dispatch and decode.
"""

from __future__ import annotations

#: accountant charge methods (wrapped on every class defining them)
_CHARGES = ("classify", "init", "commit", "sp_level",
            "dep_level", "pull_level", "prepass", "finish", "_charge_dedup")

#: span names whose self time makes up each ``*.self_s`` metric
SELF_TIMES = {
    "bc.engine.self_s": ("bc.engine",),
    "bc.case2.self_s": ("bc.case2",),
    "bc.case3.self_s": ("bc.case3",),
    "bc.classify.self_s": ("bc.classify",),
    "cost.trace.self_s": ("cost.trace",),
    "cost.fold.self_s": ("cost.fold",),
    "txn.self_s": ("txn", "txn.save_row"),
    "graph.mutate.self_s": ("graph.mutate",),
    "graph.snapshot.self_s": ("graph.snapshot",),
    "wal.append.self_s": ("wal.append",),
    "wal.sync.self_s": ("wal.sync",),
    "service.apply_batch.self_s": ("service.apply_batch",),
    "service.publish.self_s": ("service.publish",),
    "service.query.self_s": ("service.query",),
}


def install(tracer, service_probe=None) -> None:
    """Wrap every layer boundary.  *service_probe* receives the
    journal-append and batch-start callbacks the queue-wait metric
    needs (serving only)."""
    import repro.bc.engine as engine
    import repro.bc.state as state
    from repro.bc import accountants
    from repro.gpu.costmodel import CostModel
    from repro.gpu.counters import KernelCounters
    from repro.graph.dynamic import DynamicGraph
    from repro.parallel.supervisor import SupervisedPool
    from repro.resilience.transactions import UpdateTransaction
    from repro.resilience.wal import WriteAheadLog
    from repro.service.core import ServiceCore

    wrap = tracer.wrap
    wrap(engine, "adjacent_level_update", "bc.case2")
    wrap(engine, "distant_level_update", "bc.case3")
    wrap(state, "single_source_state", "bc.brandes.setup")
    wrap(engine, "single_source_state", "bc.brandes.update")
    wrap(engine, "classify_insertions_batch", "bc.classify")
    wrap(engine, "classify_deletions_batch", "bc.classify")
    wrap(engine, "make_accountant", "cost.trace")
    wrap(engine, "trace_static_source", "cost.trace")
    for cls in vars(accountants).values():
        if isinstance(cls, type) and issubclass(cls, accountants.UpdateAccountant):
            for attr in _CHARGES:
                if attr in cls.__dict__:
                    wrap(cls, attr, "cost.trace")
    wrap(CostModel, "trace_seconds", "cost.fold")
    wrap(CostModel, "stage_breakdown", "cost.fold")

    def count_steps(args, result, start, end):
        tracer.counts["cost.steps"] += len(args[1].steps)

    wrap(KernelCounters, "absorb", "cost.fold", on_call=count_steps)
    wrap(engine, "schedule_blocks", "cost.fold")
    wrap(engine, "rebuild_trace", "cost.fold")
    wrap(UpdateTransaction, "__init__", "txn")
    wrap(UpdateTransaction, "save_row", "txn.save_row")
    wrap(UpdateTransaction, "restore_row", "txn")
    wrap(UpdateTransaction, "rollback", "txn")
    wrap(DynamicGraph, "insert_edge", "graph.mutate")
    wrap(DynamicGraph, "delete_edge", "graph.mutate")
    wrap(DynamicGraph, "snapshot", "graph.snapshot")
    wrap(SupervisedPool, "run", "parallel.run")
    wrap(WriteAheadLog, "append", "wal.append",
         on_call=service_probe and service_probe.appended)
    wrap(WriteAheadLog, "sync", "wal.sync")
    wrap(ServiceCore, "apply_batch", "service.apply_batch",
         on_call=service_probe and service_probe.batch_started)
    wrap(ServiceCore, "publish", "service.publish")


def metrics(tracer, window, props, setup_repeats, main_phase,
            transport=None, health=None, service=None, serving=None):
    """Per-layer metrics of one traced run (every name is always
    present; a layer the workload bypasses reads 0).

    *props* are the stream properties from :func:`workloads.
    stream_properties`; *transport* is the ``transport_report()``
    delta over *main_phase* (the ``(start, end)`` of the replay);
    *service* the ``BCService.stats`` dict; *serving* the figures the
    serving workload measures over its open-loop phase (queue wait,
    batch size, records per fsync, load-generator lateness).
    Setup-phase figures are per engine build (the run builds
    *setup_repeats* times).
    """
    table, wall = tracer.attribution(*window)
    out = {name: tracer.self_seconds(table, *spans)
           for name, spans in SELF_TIMES.items()}
    setup_calls = tracer.calls("bc.brandes.setup")
    out.update({
        "bc.case2.calls": tracer.calls("bc.case2"),
        "bc.case3.calls": tracer.calls("bc.case3"),
        "bc.touched_frac": props["mean_touched_frac"],
        "bc.levels_per_active": props["mean_levels_per_active"],
        "bc.brandes.calls": (setup_calls / setup_repeats
                             + tracer.calls("bc.brandes.update")),
        "bc.brandes.setup_s": (tracer.self_seconds(table, "bc.brandes.setup")
                               / setup_repeats),
        "bc.brandes.update_s": tracer.self_seconds(table, "bc.brandes.update"),
        "bc.classify.calls": tracer.calls("bc.classify"),
        "bc.sources.case1": props["source_updates"]["1"],
        "bc.sources.case2": props["source_updates"]["2"],
        "bc.sources.case3": props["source_updates"]["3"],
        "cost.steps": tracer.counts["cost.steps"],
        "txn.save_row.calls": tracer.calls("txn.save_row"),
        "wal.append.calls": tracer.calls("wal.append"),
        "wal.sync.calls": tracer.calls("wal.sync"),
    })
    transport = transport or {}
    dispatch = transport.get("dispatch_seconds", 0.0)
    decode = transport.get("decode_seconds", 0.0)
    run_span = tracer.durations("parallel.run", *main_phase)
    out.update({
        "parallel.rounds": transport.get("rounds", 0),
        "parallel.chunks": transport.get("chunks", 0),
        "parallel.dispatch_s": dispatch,
        "parallel.decode_s": decode,
        "parallel.fold_s": transport.get("fold_seconds", 0.0),
        "parallel.wait_s": max(0.0, run_span - dispatch - decode),
        "parallel.queue_bytes": transport.get("queue_bytes", 0),
        "parallel.slab_bytes": transport.get("slab_bytes", 0),
        "parallel.respawns": (health or {}).get("respawns", 0),
    })
    service = service or {}
    out["service.max_queue_depth"] = service.get("max_queue_depth", 0)
    out["service.backpressure_waits"] = service.get("backpressure_waits", 0)
    for name in ("service.queue_wait_p50_ms", "service.queue_wait_p99_ms",
                 "service.events_per_batch", "wal.records_per_sync",
                 "loadgen.lateness_p50_ms", "loadgen.lateness_p99_ms"):
        out[name] = (serving or {}).get(name, 0.0)
    return out, table, wall

