"""End-to-end chaos scenario: prove the guards actually recover.

:func:`run_chaos` drives one seeded scenario through every layer of
the resilience subsystem and checks the recovery claims hold:

1. build a graph + engine + churn stream from the seed;
2. replay under a :class:`~repro.resilience.guards.GuardPolicy` while a
   :class:`~repro.resilience.faults.FaultInjector` corrupts state rows
   (mid-stream), injects structural damage, fires a mid-update fault
   and — on pooled engines — freezes a worker (``SIGSTOP``) so the
   heartbeat deadline must catch it; the guarded replay must *finish*
   and the final :meth:`~repro.bc.engine.DynamicBC.verify` must pass;
3. separately, replay the same stream uninterrupted and
   checkpoint+resume, and require the resumed run to be bit-identical
   (reports, counters, BC scores) to the uninterrupted one;
4. (``workers > 1``) replay a serial twin and a pool twin with a
   worker crash *and* a worker stall armed, and require the pool run
   to stay bit-identical (reports, BC scores, counters) with zero
   permanent serial demotions — the supervision acceptance claim.

Everything derives from ``seed``; the CI chaos job runs a seed matrix
and prints the failing seed so any red run is reproducible with
``python -m repro.cli chaos --seed <seed>``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.resilience.errors import FaultInjected
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import DETECT, ESCALATE, REPAIR, GuardPolicy
from repro.utils.prng import default_rng


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos scenario."""

    seed: int
    backend: str
    num_events: int
    detections: int = 0
    repairs: int = 0
    escalations: int = 0
    recovered_updates: int = 0
    skipped_events: int = 0
    verify_ok: bool = False
    resume_identical: bool = False
    #: worker-pool supervision totals (zero for serial scenarios)
    workers: int = 1
    worker_kills: int = 0
    hung_detections: int = 0
    respawns: int = 0
    quarantined_chunks: int = 0
    #: did the engine end the scenario demoted to serial for good?
    permanent_serial: bool = False
    #: phase-4 pool-vs-serial differential (vacuously true when the
    #: scenario is serial and the phase is skipped)
    pool_identical: bool = True
    #: injected faults that never resolved: rolled-back updates whose
    #: retry also failed, plus armed pool faults never consumed
    unrecovered_faults: int = 0
    #: supervision events, "action: [level] detail" (drained from the
    #: guard-event log plus any trailing events before engine close)
    health_events: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    injector_log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.verify_ok
            and self.resume_identical
            and self.pool_identical
            and self.unrecovered_faults == 0
            and not self.failures
        )

    def summary(self) -> str:
        """Human-readable multi-line PASS/FAIL summary (what the CLI
        ``chaos`` subcommand prints)."""
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos seed={self.seed} backend={self.backend} "
            f"events={self.num_events} workers={self.workers}: {status}",
            f"  guard: {self.detections} detections, {self.repairs} repairs, "
            f"{self.escalations} escalations",
            f"  updates: {self.recovered_updates} recovered after rollback, "
            f"{self.skipped_events} skipped, "
            f"{self.unrecovered_faults} unrecovered",
            f"  final verify: {'ok' if self.verify_ok else 'FAILED'}",
            f"  checkpoint resume bit-identical: "
            f"{'yes' if self.resume_identical else 'NO'}",
        ]
        if self.workers > 1:
            lines.append(
                f"  supervision: {self.worker_kills} kills, "
                f"{self.hung_detections} hung detected, "
                f"{self.respawns} respawns, "
                f"{self.quarantined_chunks} quarantined"
            )
            lines.append(
                f"  pool run bit-identical to serial: "
                f"{'yes' if self.pool_identical else 'NO'}; "
                f"permanent serial demotion: "
                f"{'YES' if self.permanent_serial else 'no'}"
            )
        for f in self.failures:
            lines.append(f"  failure: {f}")
        return "\n".join(lines)


def reports_identical(a, b) -> bool:
    """Field-by-field report equality, excluding wall-clock time (the
    one field that legitimately differs between two runs)."""
    return (
        a.edge == b.edge
        and a.operation == b.operation
        and np.array_equal(a.cases, b.cases)
        and np.array_equal(a.per_source_seconds, b.per_source_seconds)
        and a.simulated_seconds == b.simulated_seconds
        and np.array_equal(a.touched, b.touched)
        and a.counters == b.counters
        and a.stats == b.stats
        and a.stage_seconds == b.stage_seconds
    )


def _build(seed: int, num_events: int, backend: str, workers: int = 1):
    from repro.bc.engine import DynamicBC
    from repro.graph import generators as gen
    from repro.graph.stream import EdgeStream
    from repro.parallel.supervisor import SupervisorPolicy

    graph = gen.erdos_renyi(48, 110, seed=seed)
    stream = EdgeStream.churn(graph, num_events, delete_fraction=0.35,
                              seed=seed + 1)
    # A fast heartbeat/backoff keeps stall detection (~2x the interval)
    # from dominating a CI chaos run; semantics are interval-invariant.
    policy = SupervisorPolicy(heartbeat_interval=0.1, backoff_base=0.02,
                              backoff_max=0.2)
    engine = DynamicBC.from_graph(graph, num_sources=8, seed=seed + 2,
                                  backend=backend, workers=workers,
                                  supervisor_policy=policy)
    return graph, stream, engine


def _harvest_supervision(report: ChaosReport, engine, *replays) -> None:
    """Fold *engine*'s supervision activity into *report*: counters
    from :meth:`DynamicBC.health_report`, plus every health event the
    replays folded into their guard logs (and any trailing ones not
    yet drained), plus armed-but-never-consumed pool faults."""
    from repro.resilience.guards import HEALTH

    for res in replays:
        for e in res.guard_events:
            if e.action == HEALTH:
                report.health_events.append(f"{e.kind}: {e.detail}")
    for ev in engine.drain_health_events():
        report.health_events.append(f"{ev.action}: [{ev.level}] {ev.detail}")
    hr = engine.health_report()
    report.worker_kills += int(hr.get("kills", 0))
    report.hung_detections += int(hr.get("hung", 0))
    report.respawns += int(hr.get("respawns", 0))
    report.quarantined_chunks += int(hr.get("quarantined", 0))
    if report.workers > 1 and (
        hr.get("parallel_disabled") or hr.get("level") == "serial"
    ):
        report.permanent_serial = True
    if engine._pool is not None:
        report.unrecovered_faults += engine._pool.pending_faults()


def run_chaos(
    seed: int = 0,
    num_events: int = 30,
    backend: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    workers: int = 1,
) -> ChaosReport:
    """Run one seeded chaos scenario; see the module docstring.

    ``workers > 1`` runs every engine of the scenario on the
    shared-memory worker pool (``DynamicBC(workers=N)``); since the
    parallel paths are bit-identical to serial, all resilience claims
    — including checkpoint-resume bit-identity — must hold unchanged
    at any worker count (the CI matrix exercises ``--workers 2``).
    """
    from repro.bc.engine import BACKENDS
    from repro.graph.stream import EdgeStream, replay

    rng = default_rng(seed)
    if backend is None:
        backend = str(rng.choice(BACKENDS))
    report = ChaosReport(seed=int(seed), backend=backend,
                         num_events=num_events, workers=int(workers))
    injector = FaultInjector(seed)
    policy = GuardPolicy(check_every=5, num_check_sources=8,
                         repair_budget=6, seed=seed)

    # ------------------------------------------------------------ phase 1
    # Guarded survival under injected faults.
    _, stream, engine = _build(seed, num_events, backend, workers)
    try:
        cut = max(1, num_events // 3)
        first = EdgeStream(stream.events[:cut])
        second = EdgeStream(stream.events[cut:])

        injector.arm_update_fault(engine, after_sources=int(rng.integers(0, 3)))
        res1 = replay(engine, first, guard=policy)
        # Mid-stream bit-rot: drifted rows plus (on some seeds) structural
        # damage that must escalate to a full recompute.
        injector.corrupt_row(engine)
        injector.corrupt_row(engine)
        if bool(rng.integers(0, 2)):
            injector.corrupt_structural(engine)
        # Mid-stream hang: on a supervised pool a worker SIGSTOPs
        # itself, so the rest of the replay must survive a heartbeat
        # detection + SIGKILL + respawn cycle too.
        if engine._ensure_pool() is not None:
            injector.arm_update_stall(engine)
        res2 = replay(engine, second, guard=policy)

        # Final sweep: the cadence rarely lands exactly on the last event,
        # so close the stream with one explicit full check.
        from repro.resilience.guards import Guard

        closing = Guard(engine, policy)
        closing.check(num_events)

        all_guard_events = list(res1.guard_events) + list(res2.guard_events) \
            + list(closing.events)
        report.detections = sum(
            1 for e in all_guard_events if e.action == DETECT
        )
        report.repairs = sum(1 for e in all_guard_events if e.action == REPAIR)
        report.escalations = sum(
            1 for e in all_guard_events if e.action == ESCALATE
        )
        for res in (res1, res2):
            report.recovered_updates += len(res.recovered)
            report.skipped_events += len(res.skipped)
            report.unrecovered_faults += sum(
                1 for s in res.skipped
                if s.reason.startswith("update-error")
            )
        _harvest_supervision(report, engine, res1, res2)
        try:
            engine.verify()
            report.verify_ok = True
        except AssertionError as exc:
            report.failures.append(f"final verify failed: {exc}")
        if report.detections and not (report.repairs or report.escalations):
            report.failures.append("guard detected corruption but never acted")
    finally:
        engine.close()

    # ------------------------------------------------------------ phase 2
    # Checkpoint/resume bit-identity on an uninterrupted twin.
    def _check_resume(ckpt_dir: str) -> None:
        _, stream2, eng_full = _build(seed, num_events, backend, workers)
        _, stream3, eng_ckpt = _build(seed, num_events, backend, workers)
        _, stream4, eng_res = _build(seed, num_events, backend, workers)
        try:
            full = replay(eng_full, stream2)

            every = max(2, num_events // 4)
            res_ckpt = replay(eng_ckpt, stream3, checkpoint_every=every,
                              checkpoint_dir=ckpt_dir)
            if not res_ckpt.checkpoints:
                report.failures.append(
                    "checkpointed replay wrote no checkpoints"
                )
                return
            # "Crash" after the second checkpoint and resume from it.
            resume_path = res_ckpt.checkpoints[
                min(1, len(res_ckpt.checkpoints) - 1)
            ]
            resumed = replay(eng_res, stream4, resume_from=resume_path)

            # start_index counts stream events, reports only applied
            # ones; the resumed run must reproduce exactly the trailing
            # reports.
            tail = full.reports[len(full.reports) - len(resumed.reports):]
            mismatches = [
                j for j, (x, y) in enumerate(zip(tail, resumed.reports))
                if not reports_identical(x, y)
            ]
            if mismatches:
                report.failures.append(
                    f"resumed reports differ at positions {mismatches[:3]}"
                )
            if not np.array_equal(eng_full.bc_scores, eng_res.bc_scores):
                report.failures.append("resumed BC scores differ")
            if eng_full.counters != eng_res.counters:
                report.failures.append("resumed counters differ")
            if full.simulated_seconds != resumed.simulated_seconds:
                report.failures.append(
                    "resumed simulated_seconds differ: "
                    f"{full.simulated_seconds!r} vs {resumed.simulated_seconds!r}"
                )
            if not report.failures:
                report.resume_identical = True
        finally:
            eng_full.close()
            eng_ckpt.close()
            eng_res.close()

    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        _check_resume(checkpoint_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            _check_resume(tmp)

    # ------------------------------------------------------------ phase 3
    # Pool-fault differential: a crash AND a stall hit the pool twin,
    # yet its replay must stay bit-identical to the serial twin with
    # zero permanent serial demotions (the supervision headline claim).
    if workers > 1:
        _, stream_s, eng_s = _build(seed, num_events, backend, workers=1)
        _, stream_p, eng_p = _build(seed, num_events, backend, workers)
        try:
            pool = eng_p._ensure_pool()
            if pool is not None:
                # Round 1 of the first update that forks work crashes
                # the worker of its first forked chunk; the retry round
                # stalls it (SIGSTOP).
                # Two strikes quarantine the chunk, so one armed pair
                # walks the whole recovery path: death detection, hung
                # detection + SIGKILL, respawn, quarantine, in-parent
                # serial retry.
                pool.arm_crash()
                pool.arm_stall(rounds=2)
                injector.log.append(
                    "phase3 armed pool crash + stall (differential)"
                )
            rs = replay(eng_s, stream_s)
            rp = replay(eng_p, stream_p)
            mismatched = len(rs.reports) != len(rp.reports) or any(
                not reports_identical(x, y)
                for x, y in zip(rs.reports, rp.reports)
            )
            if mismatched:
                report.pool_identical = False
                report.failures.append(
                    "pool-fault differential: reports differ from serial"
                )
            if not np.array_equal(eng_s.bc_scores, eng_p.bc_scores):
                report.pool_identical = False
                report.failures.append(
                    "pool-fault differential: BC scores differ from serial"
                )
            if eng_s.counters != eng_p.counters:
                report.pool_identical = False
                report.failures.append(
                    "pool-fault differential: counters differ from serial"
                )
            _harvest_supervision(report, eng_p, rp)
            if report.permanent_serial:
                report.failures.append(
                    "pool was permanently demoted to serial although the "
                    "faults stopped within the respawn budget"
                )
        finally:
            eng_s.close()
            eng_p.close()

    report.injector_log = list(injector.log)
    return report
