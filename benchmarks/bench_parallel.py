"""Coarse-grained source parallelism — serial vs multi-worker sweep.

The paper's decomposition assigns one source per SM; the CPU analogue
(``DynamicBC(workers=N)``) fans per-source kernels out to a process
pool over shared memory and reduces results in fixed source order, so
the parallel engine is *bit-identical* to serial — only wall-clock may
differ (see docs/MODEL.md, "Parallel execution").

This benchmark replays the paper's §IV removal/re-insertion protocol
(every event has genuinely active sources) on a Graph500 Kronecker
graph at k=256 sources and n=2^14 vertices, once serially and once per
worker count, and

* always asserts exact equality — ``np.array_equal`` on the BC vector,
  ``==`` on counters, field-identical reports — between serial and
  every parallel run,
* measures dispatch + reduction overhead **directly** from the
  engine's :meth:`transport_report` (parent-side dispatch, decode and
  fold seconds accumulated per round) instead of the old
  wall-clock-subtraction estimate, which went *negative* on noisy
  hosts (−0.148 s/event was recorded once) because serial and parallel
  replays see different cache/turbo conditions,
* checks that each round was cut into at most one chunk per worker
  (``chunks <= workers * rounds``: one contiguous share of the active
  sources per worker),
* checks that every result came back through the result slabs: no
  spills, and exactly one ``slabs.HEADER_BYTES`` header per chunk
  crossed the result queue, and
* records the sweep — including per-width ``parallel_efficiency``
  (speedup / workers) — in ``BENCH_parallel.json`` at the repo root.

The wall-clock gates (>= 2x at 4 workers, and the scaling-efficiency
monotonicity gate ``speedup(4) > speedup(2)``) only apply when the
host actually has >= 4 usable cores; constrained CI runners still
exercise the full sweep, the bit-identity asserts and the slab-header
check — they just skip the wall-clock gates (and say so in the
artifact).  A second, *always-on* bound applies everywhere: the
directly measured pool overhead per event must stay under
``MAX_OVERHEAD_PER_EVENT`` at every worker count.  Because the direct
measurement only counts parent-side work (it cannot be dragged
negative or inflated by an unlucky serial baseline), it catches
order-of-magnitude transport regressions without flaking on slow
machines.
"""

import os
import time

import numpy as np
import pytest

from repro.bc.engine import DynamicBC
from repro.graph import generators as gen
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeStream, replay
from repro.parallel import slabs
from repro.parallel.shm import shm_available
from repro.resilience.chaos import reports_identical

NUM_SOURCES = 256  # the paper's k
KRON_SCALE = 14  # n = 2^14 = 16384, the ~2e4-vertex regime
NUM_EVENTS = 8  # removal/re-insertion events in the update stream
WORKER_SWEEP = (2, 4)

#: acceptance floor at 4 workers — enforced only on >= 4-core hosts
MIN_SPEEDUP = 2.0

#: always-on budget: directly measured parent-side pool overhead
#: (dispatch + decode + fold seconds) per stream event, any host
MAX_OVERHEAD_PER_EVENT = 0.5


def available_cores():
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_sweep_point(graph, workers, seed):
    """One engine lifetime: build, replay the re-insertion stream, and
    return (replay result, bc copy, counters, replay wall seconds,
    transport report captured before close)."""
    dyn = DynamicGraph.from_csr(graph)
    stream = EdgeStream.removal_reinsertion(dyn, NUM_EVENTS, seed=seed)
    engine = DynamicBC.from_graph(
        dyn, num_sources=NUM_SOURCES, seed=seed, workers=workers,
    )
    try:
        start = time.perf_counter()
        result = replay(engine, stream)
        elapsed = time.perf_counter() - start
        transport = engine.transport_report()
        return result, engine.state.bc.copy(), engine.counters, elapsed, \
            transport
    finally:
        engine.close()


def _queue_bytes_per_round(report):
    """Result-queue payload bytes per dispatched round (0 when the
    engine never went parallel)."""
    rounds = report.get("rounds", 0)
    if not rounds:
        return 0.0
    return report.get("queue_bytes", 0) / rounds


@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
def test_parallel_sweep(benchmark, bench_config, save_artifact, record_bench):
    graph = gen.kronecker(KRON_SCALE, seed=bench_config.seed)

    def run():
        serial = _run_sweep_point(graph, 1, bench_config.seed)
        points = {
            w: _run_sweep_point(graph, w, bench_config.seed)
            for w in WORKER_SWEEP
        }
        return serial, points

    (res_s, bc_s, cnt_s, t_s, _), points = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert len(res_s.reports) == NUM_EVENTS

    # Bit-identity is unconditional: every parallel run must match the
    # serial run exactly, whatever the host looks like.
    sweep = {}
    for w, (res_w, bc_w, cnt_w, t_w, tr_w) in points.items():
        assert np.array_equal(bc_s, bc_w), f"bc diverged at workers={w}"
        assert cnt_s == cnt_w, f"counters diverged at workers={w}"
        assert len(res_s.reports) == len(res_w.reports)
        for x, y in zip(res_s.reports, res_w.reports):
            assert reports_identical(x, y), f"report diverged at workers={w}"
        assert res_s.simulated_seconds == res_w.simulated_seconds
        # Direct overhead: parent-side dispatch + decode + fold seconds
        # accumulated by the pool/engine, non-negative by construction.
        overhead = tr_w.get("overhead_seconds", 0.0) / NUM_EVENTS
        assert overhead <= MAX_OVERHEAD_PER_EVENT, (
            f"workers={w} spends {overhead:.3f}s dispatch+reduction "
            f"overhead per event (budget {MAX_OVERHEAD_PER_EVENT}s)"
        )
        sweep[w] = {
            "replay_seconds": t_w,
            "speedup": t_s / t_w,
            "parallel_efficiency": (t_s / t_w) / w,
            "overhead_per_event_seconds": overhead,
            "transport": {
                k: tr_w.get(k, 0)
                for k in ("rounds", "chunks",
                          "queue_bytes", "slab_bytes", "spills",
                          "dispatch_seconds", "decode_seconds",
                          "fold_seconds", "overhead_seconds")
            },
            "queue_bytes_per_round": _queue_bytes_per_round(tr_w),
            "bit_identical": True,
        }
        # The round shape: one contiguous share of the round's
        # sources per worker, never more.
        chunks, rounds = tr_w.get("chunks", 0), tr_w.get("rounds", 0)
        assert chunks <= w * rounds, (
            f"workers={w} dispatched {chunks} chunks for {rounds} "
            f"rounds (at most {w} per round)"
        )
        # Every result must come back through the slabs: no spills,
        # and exactly one header per chunk on the queue.
        assert chunks > 0, f"workers={w} never went parallel"
        assert tr_w["spills"] == 0, (
            f"workers={w} spilled {tr_w['spills']} result(s) past "
            f"the slabs"
        )
        assert tr_w["queue_bytes"] == chunks * slabs.HEADER_BYTES, (
            f"workers={w} moved {tr_w['queue_bytes']} queue bytes "
            f"for {chunks} chunks (expected {slabs.HEADER_BYTES} per "
            f"chunk)"
        )

    cores = available_cores()
    enforce_floor = cores >= 4
    record_bench(
        "parallel_sweep",
        {
            "graph": f"kronecker(scale={KRON_SCALE})",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "num_sources": NUM_SOURCES,
            "num_events": NUM_EVENTS,
            "cores": cores,
            "serial_replay_seconds": t_s,
            "workers": {str(w): sweep[w] for w in sorted(sweep)},
            "slab_header_bytes": slabs.HEADER_BYTES,
            "min_speedup_floor": MIN_SPEEDUP,
            "floor_enforced": enforce_floor,
            "scaling_gate_enforced": enforce_floor,
            "max_overhead_per_event_seconds": MAX_OVERHEAD_PER_EVENT,
            "overhead_enforced": True,
        },
    )
    lines = [
        f"Removal/re-insertion replay on kronecker(scale={KRON_SCALE}) "
        f"(n={graph.num_vertices}, m={graph.num_edges}, k={NUM_SOURCES}, "
        f"{NUM_EVENTS} events, {cores} cores):",
        f"  serial      : {t_s * 1e3:8.1f} ms wall",
    ]
    for w in sorted(sweep):
        lines.append(
            f"  workers={w}   : {sweep[w]['replay_seconds'] * 1e3:8.1f} ms "
            f"wall ({sweep[w]['speedup']:5.2f}x, "
            f"eff {sweep[w]['parallel_efficiency']:.2f}, "
            f"{sweep[w]['overhead_per_event_seconds'] * 1e3:.1f} ms/event "
            f"overhead, bit-identical)"
        )
    tr = points[2][4]
    lines.append(
        f"  result queue: {tr['queue_bytes']:,} B for "
        f"{tr['chunks']} chunks at workers=2 — one "
        f"{slabs.HEADER_BYTES} B slab header each, 0 spills"
    )
    if not enforce_floor:
        lines.append(
            f"  [wall-clock gates not enforced: only {cores} usable "
            f"core(s)]"
        )
    save_artifact("parallel_sweep.txt", "\n".join(lines))

    if enforce_floor:
        assert sweep[4]["speedup"] >= MIN_SPEEDUP, (
            f"workers=4 only {sweep[4]['speedup']:.2f}x over serial "
            f"(need >= {MIN_SPEEDUP}x on a {cores}-core host)"
        )
        # Scaling-efficiency gate: adding cores must keep helping.  A
        # transport or scheduling regression that serializes the pool
        # shows up as speedup(4) collapsing onto speedup(2).
        assert sweep[4]["speedup"] > sweep[2]["speedup"], (
            f"speedup(4)={sweep[4]['speedup']:.2f} <= "
            f"speedup(2)={sweep[2]['speedup']:.2f} on a {cores}-core "
            f"host — parallel scaling regressed"
        )
