"""Synchronous heart of the BC service: ordered batch application.

:class:`ServiceCore` owns the engine on behalf of the service and is
the *only* code that mutates it once the service is running.  It
applies coalesced event batches strictly in ingest order through the
exact per-event machinery :func:`repro.graph.stream.replay` uses
(:func:`~repro.graph.stream._apply_event`), so a service run is
bit-identical — reports, skipped events, counters, BC scores,
simulated-seconds left-fold, even checkpoint files — to replaying the
same event sequence in one batch call, for *every* coalescing
configuration (``tests/test_service.py`` is the differential proof).

On top of the replay semantics it adds the service bookkeeping:

* the **watermark** — how many stream events have been consumed —
  which stamps every published snapshot and every checkpoint
  (``event_index``), so resume restores the exact stream offset;
* periodic **checkpoints** on the same cadence as
  ``replay(checkpoint_every=N)`` (after every N-th event, even when
  that lands mid-batch), reusing the PR-2 checksummed NPZ format,
  with optional **retention** (``checkpoint_keep``) so the directory
  holds a bounded window of restore points;
* optional **journal integration**: given a
  :class:`~repro.resilience.wal.WriteAheadLog`, construction replays
  the journal tail past the restored checkpoint watermark through the
  same batch machinery (crash recovery — state lands bit-identical to
  an uninterrupted run), and every checkpoint triggers journal GC up
  to the oldest *retained* checkpoint's watermark;
* snapshot **publication** into a :class:`~repro.service.snapshots.
  SnapshotStore` via the engine's ``bc_snapshot`` export hook.

Because the core owns one engine for its whole life, a pooled engine
keeps its worker processes **warm across batches** — successive
:meth:`apply_batch` calls reuse the same workers, shared-memory arena
and result slabs with no respawn.
:meth:`transport_report` exposes the engine's cumulative result-path
accounting for the service's observability surface.

The async front-end (:class:`~repro.service.service.BCService`) calls
:meth:`apply_batch` from a single worker thread and everything else
from the event loop; the core itself is deliberately synchronous and
single-threaded so the differential tests can drive it directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.graph.stream import (
    EdgeEvent,
    ReplayResult,
    _apply_event,
    _fold_health_events,
)
from repro.service.snapshots import Snapshot, SnapshotStore
from repro.utils.timing import WallTimer


@dataclass
class BatchOutcome:
    """What one coalesced batch did (service stats, not the report
    stream — the full per-event reports live in
    :attr:`ServiceCore.result`)."""

    events: int  #: stream events consumed by the batch
    applied: int  #: updates that produced a report
    skipped: int  #: no-op / failed events recorded as skipped
    recovered: int  #: updates that succeeded on the post-rollback retry
    first_index: int  #: watermark of the batch's first event
    watermark: int  #: watermark after the batch committed
    simulated_seconds: float  #: simulated cost added by the batch
    checkpoints: List[str]  #: checkpoint files written inside the batch


class ServiceCore:
    """Ordered, watermarked batch application over one engine."""

    def __init__(
        self,
        engine,
        *,
        store: Optional[SnapshotStore] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
        checkpoint_keep: Optional[int] = None,
        resume_from=None,
        wal=None,
    ) -> None:
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_keep is not None and checkpoint_keep < 1:
            raise ValueError(
                f"checkpoint_keep must be >= 1, got {checkpoint_keep}"
            )
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.engine = engine
        self.store = store if store is not None else SnapshotStore()
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_keep = checkpoint_keep
        #: the journal (repro.resilience.wal.WriteAheadLog) when the
        #: service runs durable; the core replays its tail on resume
        #: and GCs its segments behind the retained checkpoints
        self.wal = wal
        #: journal records replayed during construction (crash recovery)
        self.wal_replayed = 0
        #: the same accumulator replay() fills — reports, skipped,
        #: recovered, guard/health events, checkpoints, totals
        self.result = ReplayResult(
            reports=[], simulated_seconds=0.0, wall_seconds=0.0
        )
        #: stream events consumed so far (event offset of the next event)
        self.watermark = 0
        self._sim_seconds = 0.0
        self._applied_before = 0
        if resume_from is not None:
            self._resume(resume_from)
        if self.wal is not None:
            self._replay_wal_tail()
        # Version 0 (or the first post-resume version) carries the
        # restored state so reads work before the first batch lands.
        self.publish()

    # ------------------------------------------------------------------
    def _resume(self, path) -> None:
        """Restore engine state and the exact stream watermark from a
        PR-2 checkpoint (see docs/RESILIENCE.md).  *path* may be a
        checkpoint directory; corrupt files fall back to the
        next-newest retained checkpoint with a warning."""
        from repro.resilience.checkpoint import resolve_resume

        ckpt, resolved, _ = resolve_resume(path)
        ckpt.restore_into(self.engine)
        self.watermark = ckpt.event_index
        self._sim_seconds = ckpt.simulated_prefix
        self._applied_before = ckpt.applied_count
        self.result.start_index = self.watermark
        self.result.resumed_from = os.fspath(resolved)

    def _replay_wal_tail(self) -> None:
        """Crash recovery: apply the journal records past the restored
        watermark through the normal batch machinery, then reconcile
        the journal cursor.

        The journal holds every event the service accepted before the
        crash (append happens before enqueue), so after this the engine
        state is bit-identical to a run that never crashed — modulo the
        unacknowledged suffix the torn-tail truncation removed.
        """
        from repro.resilience.errors import WalError

        tail = self.wal.scan.events_from(self.watermark)
        if tail:
            if tail[0][0] != self.watermark:
                raise WalError(
                    self.wal.directory,
                    f"journal gap: restored watermark {self.watermark} but "
                    f"the journal tail starts at seq {tail[0][0]} — the "
                    f"segments covering the gap were lost",
                )
            self.apply_batch([event for _, event in tail])
        self.wal.align(self.watermark)
        self.wal_replayed = len(tail)

    # ------------------------------------------------------------------
    @property
    def applied_total(self) -> int:
        """Updates applied across the whole stream (including any
        pre-resume prefix recorded in the checkpoint)."""
        return self._applied_before + len(self.result.reports)

    def transport_report(self) -> dict:
        """The engine's cumulative result-path accounting (rounds,
        chunks, queue/slab bytes, spills, dispatch/decode/fold seconds)
        across every batch this core has applied — empty when the
        engine runs serial or exposes no report."""
        report = getattr(self.engine, "transport_report", None)
        if report is None:
            return {}
        return report()

    def publish(self) -> Snapshot:
        """Publish the engine's current BC scores at the current
        watermark (double-buffered copy through the engine's
        ``bc_snapshot`` hook)."""
        return self.store.publish_with(
            lambda out: self.engine.bc_snapshot(out=out),
            self.engine.state.num_vertices,
            self.watermark,
        )

    def apply_batch(self, events: Sequence[EdgeEvent]) -> BatchOutcome:
        """Apply one coalesced batch in ingest order.

        Each event goes through the replay machinery with
        retry-after-rollback enabled: a mid-update fault rolls the
        failing update back (the transaction journal), the event is
        retried once, and a deterministic failure is recorded as
        skipped — the batch, and the service, keep going.  Nothing is
        published here; the caller publishes *after* the batch commits
        so readers never observe a half-applied batch.
        """
        first_index = self.watermark
        applied = skipped = recovered = 0
        sim_before = self._sim_seconds
        checkpoints: List[str] = []
        timer = WallTimer()
        with timer:
            for event in events:
                index = self.watermark
                before_skip = len(self.result.skipped)
                before_rec = len(self.result.recovered)
                report = _apply_event(
                    self.engine, event, index, self.result, retry=True
                )
                if report is not None:
                    self.result.reports.append(report)
                    # Left-fold, matching replay(): a resumed or
                    # service-batched run reproduces the same float
                    # total as one uninterrupted pass.
                    self._sim_seconds += report.simulated_seconds
                    applied += 1
                skipped += len(self.result.skipped) - before_skip
                recovered += len(self.result.recovered) - before_rec
                self.watermark += 1
                _fold_health_events(self.engine, index, self.result, None)
                path = self._maybe_checkpoint()
                if path is not None:
                    checkpoints.append(path)
        self.result.simulated_seconds = self._sim_seconds
        self.result.wall_seconds += timer.elapsed
        return BatchOutcome(
            events=len(events),
            applied=applied,
            skipped=skipped,
            recovered=recovered,
            first_index=first_index,
            watermark=self.watermark,
            simulated_seconds=self._sim_seconds - sim_before,
            checkpoints=checkpoints,
        )

    def _maybe_checkpoint(self) -> Optional[str]:
        """Write a checkpoint when the watermark crosses the cadence —
        the same files, names and payloads ``replay(checkpoint_every=
        N)`` produces for the same stream."""
        if self.checkpoint_every is None:
            return None
        if self.watermark % self.checkpoint_every != 0:
            return None
        return self._checkpoint()

    def checkpoint_now(self) -> Optional[str]:
        """Write a checkpoint at the current watermark regardless of
        cadence (graceful shutdown / ``kill -TERM``), so restart
        replays as little of the journal as possible.  ``None`` when
        no checkpoint directory is configured."""
        if self.checkpoint_dir is None:
            return None
        return self._checkpoint()

    def _checkpoint(self) -> str:
        from repro.resilience.checkpoint import save_checkpoint

        path = os.path.join(
            os.fspath(self.checkpoint_dir), f"ckpt-{self.watermark:08d}.npz"
        )
        save_checkpoint(
            self.engine, path,
            event_index=self.watermark,
            simulated_prefix=self._sim_seconds,
            applied_count=self.applied_total,
        )
        if path not in self.result.checkpoints:
            self.result.checkpoints.append(path)
        self._after_checkpoint()
        return path

    def _after_checkpoint(self) -> None:
        """Enforce checkpoint retention, then GC journal segments no
        restore can need: recovery replays from the oldest *retained*
        checkpoint at worst, so its watermark bounds the journal."""
        from repro.resilience.checkpoint import (
            checkpoint_watermark,
            find_checkpoints,
            retain_checkpoints,
        )

        if self.checkpoint_keep is not None:
            retain_checkpoints(self.checkpoint_dir, self.checkpoint_keep)
        if self.wal is not None:
            kept = find_checkpoints(self.checkpoint_dir)
            if kept:
                horizon = checkpoint_watermark(kept[0])
                if horizon is not None:
                    self.wal.gc(horizon)

    def __repr__(self) -> str:
        return (f"ServiceCore(watermark={self.watermark}, "
                f"applied={len(self.result.reports)}, "
                f"skipped={len(self.result.skipped)})")
