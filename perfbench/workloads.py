"""The benchmark's workloads, each on the default ``gpu-node`` backend.
Each workload's graph is fixed, as the paper fixes its graphs; the seed
draws the sources, the updates and the reads.

``paper-reinsert-pool``
    Kronecker scale 13, k=256, ``workers=2`` on the default pool
    backend; the paper's section IV removal/re-insertion stream replayed
    closed-loop.  The only workload where pool and parent-side fold
    changes show.
``serve-durable``
    ``BCService`` with a journal and durable acks over the suite's
    small-world graph (n=1000), k=16; open-loop Poisson traffic at a
    fixed offered rate (half reads), in segments between blocks of
    writes submitted at once that measure the backlog drain rate.  The
    only workload through ingest, group commit, snapshot publish and
    the read path.

Every bounded end-to-end metric is defined on both workloads.  A replay
is a closed-loop client of the engine's public API: an update is due
when issued and acknowledged, and visible, when its call returns, so
``ack_p50_ms`` and ``fresh_p50_ms`` are both the per-update latency
median; the stream is a standing backlog, so ``serve_capacity_ups``
equals ``replay_ups``.  A replay's few hundred updates are too few for
a p99 with ten samples beyond it, and it makes no reads, so the p99s
and ``query_*`` are reported on ``serve-durable`` only.  There, both
rates are medians over the drain blocks: ``serve_capacity_ups`` of a
block's writes per second until the last is visible, ``replay_ups`` of
its writes per second of the service core's apply time.

The rates, and the replay's update latencies, are reported at the
reference host's speed (:class:`host.HostSpeed`), which each run
samples while the program idles; the raw figures are in ``extra``.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import os
import statistics
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import host
import layers
from tracing import REQUEST

from repro.bc.engine import DynamicBC
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeEvent, EdgeStream, replay
from repro.graph.suite import make_suite_graph
from repro.service import BCService, generate_workload
from repro.service.core import ServiceCore

#: every workload's graph is fixed, as the paper fixes its graphs; the
#: run's seed draws the sources and the updates (and reads)
GRAPH_SEED = 2014
#: set-ups per replay (setup_s is their median): half before the replay
#: and half after it, each half at least SETUP_REPEATS set-ups and more
#: until they add up to SETUP_MIN_SECONDS, so the median spans the run
#: and resists the host's slow phases
SETUP_REPEATS = 2
SETUP_MIN_SECONDS = 2.0

POOL_SCALE = 13
POOL_SOURCES = 256
POOL_WORKERS = 2
#: the replay's stream holds --seconds times this nominal rate (updates/s
#: of the seed commit on the reference 2-core x86-64 host), so a run
#: lasts about --seconds while both sides of a comparison replay
#: identical inputs
POOL_NOMINAL_UPS = 15.0

SERVE_GRAPH_SCALE = 0.5  # suite "small": Watts-Strogatz, n=1000
SERVE_SOURCES = 16
#: offered load, fixed: about a third of the seed commit's capacity
#: on the reference host (37 writes/s + 37 reads/s)
SERVE_OPS_PER_S = 74.0
SERVE_READ_FRACTION = 0.5
SERVE_DELETE_FRACTION = 0.3
#: writes submitted at once to measure the drain rate, in DRAIN_BLOCKS
#: equal blocks with the open-loop phase split evenly between them; the
#: capacity is the median block's rate, so the blocks span the run and a
#: slow phase of the shared host that covers fewer than half of them
#: does not move it
DRAIN_WRITES = 1800
DRAIN_BLOCKS = 9
#: a served run times set-ups before its first drain block and after
#: each one, each time at least SETUP_REPEATS and this many seconds
SERVE_SETUP_SECONDS = 0.4
#: a replay samples the host's speed (host.HostSpeed) between updates at
#: least this often; a served run samples SPEED_SLICES slices per CPU
#: before its first drain block and after each drain block and open-loop
#: segment, while the service idles
SPEED_INTERVAL_S = 0.5
SPEED_SLICES = 2


#: unit of every end-to-end metric a run measures; BENCHMARK.json
#: bounds the ones that are steady across seeds at the run length
E2E_UNITS = {
    "setup_s": "s", "replay_ups": "updates/s",
    "ack_p50_ms": "ms", "ack_p99_ms": "ms",
    "fresh_p50_ms": "ms", "fresh_p99_ms": "ms",
    "query_p50_ms": "ms", "query_p99_ms": "ms",
    "serve_capacity_ups": "updates/s", "peak_rss_mb": "MB",
    "error_rate": "fraction",
}


def sub_seed(seed: int, tag: str) -> int:
    """Independent seed for one input (sources, stream, ops)."""
    return (seed * 1_000_003 + zlib.crc32(tag.encode())) % (2 ** 63)


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    metrics: dict
    samples: dict
    attempted: int
    failed: int
    rejected: int
    simulated_seconds: float
    inputs: dict
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    layers: dict = None
    attribution: dict = None


def stream_properties(reports, n, m, k, state_bytes) -> dict:
    """Input properties measured on the applied updates: per-source
    case mix, deletion share, touched fraction and BFS depth of the
    sources that did work (Case 2/3)."""
    hist = np.zeros(4, dtype=np.int64)
    touched = active = levels = with_levels = deletions = 0
    for rep in reports:
        hist += np.bincount(rep.cases, minlength=4)[:4]
        act = np.flatnonzero(rep.cases != 1)
        active += act.size
        touched += int(rep.touched[act].sum())
        for i in act:
            stats = rep.stats[i]
            if stats is not None:
                levels += stats.sp_levels
                with_levels += 1
        deletions += rep.operation == "delete"
    total = int(hist[1:].sum())
    return {
        "n": n, "m": m, "k": k, "state_bytes": state_bytes,
        "updates": len(reports),
        "source_updates": {str(c): int(hist[c]) for c in (1, 2, 3)},
        "case_shares": {str(c): (int(hist[c]) / total if total else 0.0)
                        for c in (1, 2, 3)},
        "deletion_share": deletions / len(reports) if reports else 0.0,
        "mean_touched_frac": touched / (active * n) if active else 0.0,
        "mean_levels_per_active": levels / with_levels if with_levels else 0.0,
    }


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) * 1e3


def _state_bytes(engine) -> int:
    st = engine.state
    return int(st.d.nbytes + st.sigma.nbytes + st.delta.nbytes + st.bc.nbytes)


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _verify(engine, errors) -> None:
    """Tolerance check of the final BC against a Brandes recompute."""
    try:
        engine.verify()
    except AssertionError as exc:
        errors.append(f"verify: {exc}")


def _trace_updates(engine, tracer, request_of) -> None:
    """Record a span per engine update, tagged with its request id."""
    for attr in ("insert_edge", "delete_edge"):
        inner = tracer.wrap(engine, attr, "bc.engine")

        def tagged(u, v, _inner=inner):
            REQUEST.set(request_of())
            return _inner(u, v)

        setattr(engine, attr, tagged)


class _ReplayClient:
    """Make the replay a closed-loop client of the engine's public API:
    each update is due when issued and acknowledged (and visible) when
    its call returns.  Between updates, at least every
    SPEED_INTERVAL_S, it samples the host's speed; *paused* is the time
    the samples took, which the replay's wall time excludes."""

    def __init__(self, engine, tracer, speed):
        self.latencies = []
        self.paused = 0.0
        self._speed, self._tracer = speed, tracer
        self._sampled = perf_counter()
        if tracer is not None:
            _trace_updates(engine, tracer, lambda: len(self.latencies))
        for attr in ("insert_edge", "delete_edge"):
            setattr(engine, attr, self._client(getattr(engine, attr)))

    def _client(self, inner):
        def client(u, v):
            if perf_counter() - self._sampled >= SPEED_INTERVAL_S:
                with _span(self._tracer, "host.speed"):
                    self.paused += self._speed.sample()
                self._sampled = perf_counter()
            start = perf_counter()
            report = inner(u, v)
            self.latencies.append(perf_counter() - start)
            return report
        return client


# ----------------------------------------------------------------------
# closed-loop replay
# ----------------------------------------------------------------------
def paper_reinsert_pool(seed, seconds, tracer, scratch) -> Outcome:
    dyn = DynamicGraph.from_csr(
        generators.kronecker(POOL_SCALE, seed=GRAPH_SEED)
    )
    events = max(1, round(seconds * POOL_NOMINAL_UPS))
    stream = EdgeStream.removal_reinsertion(dyn, events,
                                            seed=sub_seed(seed, "stream"))
    base = dyn.snapshot()

    def build():
        return DynamicBC.from_graph(
            DynamicGraph.from_csr(base), num_sources=POOL_SOURCES,
            seed=sub_seed(seed, "sources"), workers=POOL_WORKERS,
        )

    return _replay_run(build, stream, tracer)


def _more_setups(times, min_seconds=SETUP_MIN_SECONDS) -> bool:
    return len(times) < SETUP_REPEATS or sum(times) < min_seconds


def _timed_builds(build, tracer, times):
    """One half of a replay's set-ups: build until :func:`_more_setups`
    holds for the half, closing and dropping all but the last build,
    which is returned; each build's wall time is appended to *times*."""
    half = []
    while True:
        start = perf_counter()
        with _span(tracer, "setup"):
            engine = build()
        half.append(perf_counter() - start)
        if not _more_setups(half):
            times.extend(half)
            return engine
        engine.close()
        # a closed pooled engine copies its state into private memory:
        # free it before the next build, or peak RSS counts two engines
        # the workload never holds at once
        engine = None


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if isinstance(value, (int, float))}


def _replay_run(build, stream, tracer) -> Outcome:
    if tracer is not None:
        layers.install(tracer)
    window_start = perf_counter()
    setup_times = []
    speed = host.HostSpeed()
    try:
        engine = _timed_builds(build, tracer, setup_times)
        try:
            client = _ReplayClient(engine, tracer, speed)
            before = engine.transport_report()
            start = perf_counter()
            result = replay(engine, stream)
            end = perf_counter()
            transport = _delta(engine.transport_report(), before)
            rss = host.peak_rss_mb()
            health = engine.health_report()
            snap = engine.graph.snapshot()
            props = stream_properties(result.reports, snap.num_vertices,
                                      snap.num_edges,
                                      engine.state.num_sources,
                                      _state_bytes(engine))
        finally:
            engine.close()
        _timed_builds(build, tracer, setup_times).close()
        window_end = perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    errors = []
    _verify(engine, errors)
    replay_wall = end - start - client.paused
    raw_ups = len(result.reports) / replay_wall
    ups = speed.normalize(raw_ups)
    raw_p50 = _pct(client.latencies, 50)
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(setup_times),
            "replay_ups": ups,
            "ack_p50_ms": speed.normalize_time(raw_p50),
            "fresh_p50_ms": speed.normalize_time(raw_p50),
            "serve_capacity_ups": ups,
            "peak_rss_mb": rss,
        },
        samples={"setup": len(setup_times), "updates": len(client.latencies),
                 "host_speed": len(speed.samples)},
        attempted=len(stream),
        failed=len(result.skipped),
        rejected=0,
        simulated_seconds=result.simulated_seconds,
        inputs=props,
        errors=errors,
        extra={"setup_times_s": setup_times, "replay_wall_s": replay_wall,
               "host_speed": speed.speed(), "raw_replay_ups": raw_ups,
               "raw_update_p50_ms": raw_p50, "transport": transport},
    )
    if tracer is not None:
        outcome.layers, outcome.attribution, wall = layers.metrics(
            tracer, (window_start, window_end), props, len(setup_times),
            (start, end), transport=transport, health=health,
        )
        outcome.extra["traced_wall_s"] = wall
    return outcome


# ----------------------------------------------------------------------
# open-loop serving
# ----------------------------------------------------------------------
class _QueueWaits:
    """Submit -> batch-start wait of every write, and the op id behind
    each journal sequence number (traced runs)."""

    def __init__(self):
        self.appended_at = {}
        self.request = {}
        self.waits = {}
        self.batches = []  # (start, events)

    def appended(self, args, seq, start, end):
        self.appended_at[seq] = end
        self.request[seq] = REQUEST.get()

    def batch_started(self, args, outcome, start, end):
        self.batches.append((start, outcome.events))
        for seq in range(outcome.first_index,
                         outcome.first_index + outcome.events):
            if seq in self.appended_at:
                self.waits[seq] = start - self.appended_at[seq]


def serve_inputs(seed, seconds):
    """The graph and consecutive parts of one generated op sequence, so
    every write is applied in the order it was generated: DRAIN_BLOCKS
    blocks of DRAIN_WRITES / DRAIN_BLOCKS writes each (the reads among
    them are dropped) and, between each two, an open-loop segment: the
    ops due in the next *seconds* / (DRAIN_BLOCKS - 1) seconds, as
    ``(due offset, op)``."""
    graph = make_suite_graph("small", scale=SERVE_GRAPH_SCALE,
                             seed=GRAPH_SEED).graph
    num_ops = int(SERVE_OPS_PER_S * seconds * 1.2) + 3 * DRAIN_WRITES + 100
    ops = generate_workload(
        graph, "steady", num_ops, read_fraction=SERVE_READ_FRACTION,
        base_rate=SERVE_OPS_PER_S, delete_fraction=SERVE_DELETE_FRACTION,
        seed=sub_seed(seed, "ops"),
    ).ops
    times = [op.time for op in ops]
    segment = seconds / (DRAIN_BLOCKS - 1)
    blocks, segments, i = [], [], 0
    while True:
        block = []
        while len(block) < DRAIN_WRITES // DRAIN_BLOCKS:
            if isinstance(ops[i], EdgeEvent):
                block.append(ops[i])
            i += 1
        blocks.append(block)
        if len(blocks) == DRAIN_BLOCKS:
            return graph, blocks, segments
        end = bisect.bisect_left(times, times[i] + segment)
        if end == len(ops):
            raise RuntimeError("generated workload too short")
        segments.append([(times[j] - times[i], ops[j]) for j in range(i, end)])
        i = end


def serve_durable(seed, seconds, tracer, scratch) -> Outcome:
    graph, blocks, segments = serve_inputs(seed, seconds)

    def build():
        return DynamicBC.from_graph(
            DynamicGraph.from_csr(graph), num_sources=SERVE_SOURCES,
            seed=sub_seed(seed, "sources"),
        )

    waits = None
    if tracer is not None:
        waits = _QueueWaits()
        layers.install(tracer, waits)
    # when each snapshot, and so each write, becomes visible to readers;
    # a publish at watermark 0 (every set-up makes one) shows no write
    publishes = []
    publish = ServiceCore.publish

    def observed_publish(core):
        snap = publish(core)
        if core.watermark:
            publishes.append((perf_counter(), core.watermark))
        return snap

    ServiceCore.publish = observed_publish
    try:
        run = asyncio.run(_serve(build, blocks, segments, scratch, tracer,
                                 waits))
    finally:
        ServiceCore.publish = publish
        if tracer is not None:
            tracer.restore()
    engine = run["engine"]
    errors = []
    _verify(engine, errors)
    acked = run["acked"]
    if run["watermark"] != acked or acked != run["writes"]:
        errors.append(f"watermark {run['watermark']} != acked writes "
                      f"{acked} (submitted {run['writes']})")

    marks = [w for _, w in publishes]

    def visible(seq):
        i = bisect.bisect_left(marks, seq + 1)
        return publishes[i][0] if i < len(publishes) else float("nan")

    fresh = [visible(seq) - due for seq, due in run["write_due"].items()]
    # a block has drained once the write with its last sequence number
    # is visible; the core applied it in the block's apply_batch seconds
    drain_rates = [writes / (visible(last) - start)
                   for start, last, writes, _ in run["blocks"]]
    apply_rates = [writes / applying
                   for _, _, writes, applying in run["blocks"]]
    drain_writes = sum(len(block) for block in blocks)
    core = run["core"]
    props = run["props"]
    stats = run["stats"]
    speed = run["speed"]
    outcome = Outcome(
        metrics={
            "setup_s": statistics.median(run["setup_times"]),
            "replay_ups": speed.normalize(statistics.median(apply_rates)),
            "ack_p50_ms": _pct(run["acks"], 50),
            "ack_p99_ms": _pct(run["acks"], 99),
            "fresh_p50_ms": _pct(fresh, 50),
            "fresh_p99_ms": _pct(fresh, 99),
            "query_p50_ms": _pct(run["queries"], 50),
            "query_p99_ms": _pct(run["queries"], 99),
            "serve_capacity_ups": speed.normalize(
                statistics.median(drain_rates)),
            "peak_rss_mb": run["rss"],
        },
        samples={"setup": len(run["setup_times"]), "acks": len(run["acks"]),
                 "fresh": len(fresh), "queries": len(run["queries"]),
                 "drain_writes": drain_writes,
                 "drain_blocks": len(drain_rates),
                 "host_speed": len(speed.samples)},
        attempted=sum(len(seg) for seg in segments) + drain_writes,
        failed=len(run["failures"]),
        rejected=stats["rejected"],
        simulated_seconds=core.result.simulated_seconds,
        inputs=props,
        errors=errors,
        extra={
            "setup_times_s": run["setup_times"],
            "host_speed": speed.speed(),
            "drain_ups": drain_rates,
            "apply_ups": apply_rates,
            "mean_apply_ups": (stats["events_applied"]
                               / core.result.wall_seconds),
            "offered_ops_per_s": SERVE_OPS_PER_S,
            "loadgen.lateness_p50_ms": _pct(run["lateness"], 50),
            "loadgen.lateness_p99_ms": _pct(run["lateness"], 99),
            "lateness_samples": len(run["lateness"]),
            "failures": run["failures"][:10],
            "service_stats": stats,
        },
    )
    if tracer is not None:
        open_writes = len(run["write_due"])
        queue_waits = [w for seq, w in waits.waits.items()
                       if seq in run["write_due"]]

        def open_loop(t):
            return any(lo <= t < hi for lo, hi in run["open_windows"])

        # coalescing and group commit at the offered rate, not in a drain
        batches = [n for t, n in waits.batches if open_loop(t)]
        syncs = sum(1 for sp in tracer.spans
                    if sp[1] == "wal.sync" and open_loop(sp[2]))
        serving = {
            "service.queue_wait_p50_ms": _pct(queue_waits, 50),
            "service.queue_wait_p99_ms": _pct(queue_waits, 99),
            "service.events_per_batch": (sum(batches) / len(batches)
                                         if batches else 0.0),
            "wal.records_per_sync": open_writes / syncs if syncs else 0.0,
            "loadgen.lateness_p50_ms": _pct(run["lateness"], 50),
            "loadgen.lateness_p99_ms": _pct(run["lateness"], 99),
        }
        outcome.layers, outcome.attribution, wall = layers.metrics(
            tracer, run["window"], props, len(run["setup_times"]),
            run["window"],
            service=stats, serving=serving,
        )
        outcome.extra["traced_wall_s"] = wall
    return outcome


async def _timed_services(build, scratch, tracer, times, min_seconds):
    """:func:`_timed_builds` for a durable service: each set-up builds
    the engine, opens a fresh journal and starts the service; returns
    the last ``(engine, service)``."""
    half = []
    while True:
        start = perf_counter()
        with _span(tracer, "setup"):
            engine = build()
            wal_dir = os.path.join(scratch, f"wal-{len(times) + len(half)}")
            svc = BCService(engine, wal_dir=wal_dir, ack_durable=True)
            svc.start()
        half.append(perf_counter() - start)
        if not _more_setups(half, min_seconds):
            times.extend(half)
            return engine, svc
        await svc.stop()
        engine = svc = None


async def _serve(build, blocks, segments, scratch, tracer, waits) -> dict:
    loop = asyncio.get_running_loop()
    window_start = perf_counter()
    setup_times = []
    engine, svc = await _timed_services(build, scratch, tracer, setup_times,
                                        SERVE_SETUP_SECONDS)
    speed = host.HostSpeed()

    def sample_speed():
        # the service idles: nothing queued, applying or syncing
        with _span(tracer, "host.speed"):
            speed.sample(SPEED_SLICES)

    sample_speed()
    if tracer is not None:
        # the service applies events in journal order, so the event an
        # update call works on is the one at the core's watermark
        _trace_updates(engine, tracer, lambda: waits.request.get(
            svc.core.watermark, -1))
    lateness, acks, queries, failures = [], [], [], []
    write_due = {}

    async def run_op(op_id, op, due, timed):
        REQUEST.set(op_id)
        if timed:
            lateness.append(perf_counter() - due)
        try:
            if isinstance(op, EdgeEvent):
                seq = await svc.submit(op)
                if timed:
                    acks.append(perf_counter() - due)
                    write_due[seq] = due
                return seq
            # the snapshot reads never suspend, so the span nests
            # correctly on the loop thread's stack
            with _span(tracer, "service.query"):
                if op.kind == "top_k":
                    await svc.query_top_k(op.arg)
                else:
                    await svc.query_bc([op.arg])
            queries.append(perf_counter() - due)
        except Exception as exc:  # a failed op is counted, not fatal
            failures.append(f"op {op_id}: {exc!r}")
        return None

    drained, drained_seqs, open_windows = [], [], []

    async def drain_block(writes, first_id):
        """Submit *writes* at once and wait until they are applied."""
        start = perf_counter()
        applying = svc.core.result.wall_seconds
        seqs = await asyncio.gather(*[
            loop.create_task(run_op(first_id + j, op, start, False))
            for j, op in enumerate(writes)
        ])
        await svc.drain()
        seqs = [seq for seq in seqs if seq is not None]
        drained_seqs.extend(seqs)
        drained.append((start, max(seqs), len(seqs),
                        svc.core.result.wall_seconds - applying))

    async def open_segment(ops, first_id):
        """Issue each op as its own task at its due time; wait until
        every op has returned and every write is applied."""
        base = perf_counter() + 0.01
        tasks = []
        for op_id, (offset, op) in enumerate(ops, first_id):
            due = base + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(run_op(op_id, op, due, True)))
        await asyncio.gather(*tasks)
        await svc.drain()
        open_windows.append((base, perf_counter()))

    try:
        op_id = 0
        for i, block in enumerate(blocks):
            if i:
                await open_segment(segments[i - 1], op_id)
                op_id += len(segments[i - 1])
                sample_speed()
            await drain_block(block, op_id)
            op_id += len(block)
            # more set-ups while the service idles, so that set-up time
            # is sampled across the run
            _, idle = await _timed_services(build, scratch, tracer,
                                            setup_times, SERVE_SETUP_SECONDS)
            await idle.stop()
            sample_speed()
        rss = host.peak_rss_mb()
        stats = dict(svc.stats, flush_reasons=dict(svc.stats["flush_reasons"]))
        watermark = svc.watermark
        snap = engine.graph.snapshot()
        props = stream_properties(svc.core.result.reports, snap.num_vertices,
                                  snap.num_edges, engine.state.num_sources,
                                  _state_bytes(engine))
    finally:
        await svc.stop()
        engine.close()
    window_end = perf_counter()
    return {
        "engine": engine, "core": svc.core, "setup_times": setup_times,
        "lateness": lateness, "acks": acks, "queries": queries,
        "failures": failures, "write_due": write_due,
        "acked": len(acks) + len(drained_seqs),
        "writes": sum(len(block) for block in blocks) + sum(
            isinstance(op, EdgeEvent) for seg in segments for _, op in seg),
        "blocks": drained, "watermark": watermark,
        "stats": stats, "rss": rss, "props": props,
        "window": (window_start, window_end), "open_windows": open_windows,
        "speed": speed,
    }


WORKLOADS = {
    "paper-reinsert-pool": paper_reinsert_pool,
    "serve-durable": serve_durable,
}
