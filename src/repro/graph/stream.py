"""Timestamped edge streams for throughput experiments.

The paper's motivation (§I): "The tremendous volume of updates to
social networks and the web demands a high throughput solution that can
process many updates in a given unit time."  :class:`EdgeStream` models
that workload — a time-ordered sequence of insertions/deletions — and
:func:`replay` drives a dynamic engine through it, reporting the
sustained update throughput under the engine's execution model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.utils.prng import SeedLike, default_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bc.engine import DynamicBC, UpdateReport
    from repro.resilience.guards import GuardEvent, GuardPolicy

INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped update."""

    time: float
    u: int
    v: int
    op: str = INSERT

    def __post_init__(self) -> None:
        if self.op not in (INSERT, DELETE):
            raise ValueError(f"op must be '{INSERT}' or '{DELETE}', got {self.op!r}")
        if self.u == self.v:
            raise ValueError(f"self loop ({self.u}, {self.v}) in stream")


@dataclass
class EdgeStream:
    """A time-ordered sequence of edge events."""

    events: List[EdgeEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("events must be ordered by non-decreasing time")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[EdgeEvent]:
        return iter(self.events)

    @property
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].time - self.events[0].time

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def poisson_growth(
        cls,
        graph: CSRGraph,
        count: int,
        rate: float = 1.0,
        seed: SeedLike = None,
    ) -> "EdgeStream":
        """*count* random new-edge insertions with exponential
        inter-arrival times at *rate* events per unit time."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        rng = default_rng(seed)
        pairs = graph.undirected_non_edges(rng, count)
        rng.shuffle(pairs, axis=0)
        times = np.cumsum(rng.exponential(1.0 / rate, size=count))
        return cls([
            EdgeEvent(float(t), int(u), int(v))
            for t, (u, v) in zip(times, pairs.tolist())
        ])

    @classmethod
    def removal_reinsertion(
        cls,
        dyn: DynamicGraph,
        count: int,
        rate: float = 1.0,
        seed: SeedLike = None,
    ) -> "EdgeStream":
        """The paper's §IV protocol as a stream: remove *count* random
        edges from *dyn* (mutating it) and return their re-insertions."""
        rng = default_rng(seed)
        removed = dyn.remove_random_edges(rng, count)
        times = np.cumsum(rng.exponential(1.0 / max(rate, 1e-12), size=count))
        return cls([
            EdgeEvent(float(t), int(u), int(v))
            for t, (u, v) in zip(times, removed.tolist())
        ])

    @classmethod
    def churn(
        cls,
        graph: CSRGraph,
        count: int,
        delete_fraction: float = 0.3,
        rate: float = 1.0,
        seed: SeedLike = None,
    ) -> "EdgeStream":
        """Mixed insert/delete stream that keeps the graph simple.

        Tracks the evolving edge set so deletions always target a live
        edge and insertions a live non-edge.
        """
        if not 0 <= delete_fraction <= 1:
            raise ValueError("delete_fraction must be in [0, 1]")
        rng = default_rng(seed)
        n = graph.num_vertices
        live = {tuple(e) for e in graph.edge_list().tolist()}
        events: List[EdgeEvent] = []
        t = 0.0
        guard = 0
        while len(events) < count:
            guard += 1
            if guard > 100 * count + 1000:
                raise RuntimeError("could not build churn stream")
            t += float(rng.exponential(1.0 / rate))
            do_delete = live and rng.random() < delete_fraction
            if do_delete:
                idx = int(rng.integers(0, len(live)))
                u, v = sorted(live)[idx]
                live.remove((u, v))
                events.append(EdgeEvent(t, u, v, DELETE))
            else:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key in live:
                    continue
                live.add(key)
                events.append(EdgeEvent(t, key[0], key[1], INSERT))
        return cls(events)

    # ------------------------------------------------------------------
    # Persistence (CSV: time,u,v,op — loadable into spreadsheets too)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the stream as ``time,u,v,op`` CSV.

        The write is atomic (temporary file in the same directory, then
        :func:`os.replace`), so a crash mid-save never leaves a
        truncated stream under the target name.
        """
        path = os.fspath(path)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write("time,u,v,op\n")
                for e in self.events:
                    fh.write(f"{e.time!r},{e.u},{e.v},{e.op}\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path) -> "EdgeStream":
        """Read a stream written by :meth:`save` (header required).

        Every malformed row is rejected with a ``path:lineno`` message
        naming the offending field — an invalid op, a negative or
        non-integer vertex id, a bad timestamp, a self loop — never a
        raw parsing traceback.
        """
        events = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "time,u,v,op":
                raise ValueError(
                    f"{path}: expected header 'time,u,v,op', got {header!r}"
                )
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: malformed row {line!r}")
                where = f"{path}:{lineno}"
                try:
                    t = float(parts[0])
                except ValueError:
                    raise ValueError(
                        f"{where}: invalid timestamp {parts[0]!r}"
                    ) from None
                ids = []
                for name, token in (("u", parts[1]), ("v", parts[2])):
                    try:
                        vertex = int(token)
                    except ValueError:
                        raise ValueError(
                            f"{where}: invalid vertex id {name}={token!r}"
                        ) from None
                    if vertex < 0:
                        raise ValueError(
                            f"{where}: negative vertex id {name}={vertex}"
                        )
                    ids.append(vertex)
                op = parts[3]
                if op not in (INSERT, DELETE):
                    raise ValueError(
                        f"{where}: invalid op {op!r} "
                        f"(expected {INSERT!r} or {DELETE!r})"
                    )
                try:
                    events.append(EdgeEvent(t, ids[0], ids[1], op))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
        return cls(events)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def windows(self, width: float) -> Iterator[Tuple[float, List[EdgeEvent]]]:
        """Group events into half-open time windows ``[k*width, (k+1)*width)``.

        Yields ``(window_start, events)`` for non-empty windows.
        """
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        bucket: List[EdgeEvent] = []
        current = None
        for e in self.events:
            k = int(e.time // width)
            if current is None:
                current = k
            if k != current:
                if bucket:
                    yield current * width, bucket
                bucket = []
                current = k
            bucket.append(e)
        if bucket and current is not None:
            yield current * width, bucket


@dataclass(frozen=True)
class SkippedEvent:
    """One stream event that was not applied, and why.

    ``reason`` is ``"duplicate-insert"`` / ``"missing-edge"`` for
    no-op events, or ``"update-error: ..."`` for an update that failed
    and was rolled back (guarded replay only).
    """

    index: int  #: position in the stream
    u: int
    v: int
    op: str
    reason: str


@dataclass
class ReplayResult:
    """Outcome of driving an engine through a stream."""

    reports: List["UpdateReport"]
    simulated_seconds: float
    wall_seconds: float
    #: events not applied (duplicate inserts, missing deletes, rolled-
    #: back failures), mirroring :attr:`BatchResult.skipped`
    skipped: List[SkippedEvent] = field(default_factory=list)
    #: updates that failed once, rolled back, and succeeded on retry
    recovered: List[SkippedEvent] = field(default_factory=list)
    #: guard detections/repairs/escalations (guarded replay only)
    guard_events: List["GuardEvent"] = field(default_factory=list)
    #: checkpoint files written, in order
    checkpoints: List[str] = field(default_factory=list)
    #: first stream index processed by *this* call (> 0 after resume)
    start_index: int = 0
    #: checkpoint path this run resumed from, if any
    resumed_from: Optional[str] = None

    @property
    def updates_per_second(self) -> float:
        """Sustained throughput under the engine's execution model —
        the 'high throughput solution' headline number.  ``0.0`` for an
        empty (or zero-simulated-cost) replay rather than ``inf``."""
        if not self.reports or self.simulated_seconds <= 0:
            return 0.0
        return len(self.reports) / self.simulated_seconds


def replay(
    engine: "DynamicBC",
    stream: EdgeStream,
    guard: Optional["GuardPolicy"] = None,
    *,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    resume_from=None,
) -> ReplayResult:
    """Apply every event of *stream* to *engine* in order.

    No-op events (inserting an edge that exists, deleting one that
    does not, self loops) are recorded in :attr:`ReplayResult.skipped`
    and the replay keeps going — one bad event must not abort an
    unbounded stream.

    ``guard``
        A :class:`~repro.resilience.guards.GuardPolicy`: spot-checks
        run on the policy's cadence, drifted rows are auto-repaired,
        structural corruption escalates to a full recompute, and every
        action lands in :attr:`ReplayResult.guard_events`.  A guarded
        replay also survives mid-update failures: the transactional
        engine rolls the update back, the event is retried once
        (transient faults recover into :attr:`ReplayResult.recovered`)
        and otherwise recorded as skipped.
    ``checkpoint_every`` / ``checkpoint_dir``
        Write an atomic, checksummed checkpoint after every N-th
        stream event into ``checkpoint_dir`` (required when
        ``checkpoint_every`` is set); paths are recorded in
        :attr:`ReplayResult.checkpoints`.
    ``resume_from``
        Path of a checkpoint written by a previous replay of the *same
        stream*: the engine state is restored in place and the replay
        continues from the recorded cursor, reproducing the
        uninterrupted run's remaining reports and totals bit-for-bit
        (see ``tests/test_resilience_checkpoint.py``).

    Parallel engines: a ``DynamicBC(workers=N)`` replays identically —
    the worker pool's results are reduced in fixed source order, so
    reports, counters, BC scores and checkpoints match the serial run
    bit for bit (``tests/test_parallel.py``); guards, checkpointing and
    the retry-once recovery need no changes.  A worker crash mid-update
    surfaces as the same rolled-back
    :class:`~repro.resilience.errors.UpdateError` a mid-kernel fault
    does, so a guarded replay recovers from it the same way.
    """
    from repro.utils.timing import WallTimer

    start_index = 0
    sim_seconds = 0.0
    applied_before = 0
    resumed_path: Optional[str] = None
    if resume_from is not None:
        # resolve_resume accepts a directory (newest valid retained
        # checkpoint) or a file, and falls back past corrupt files
        # instead of aborting the replay.
        from repro.resilience.checkpoint import resolve_resume

        ckpt, resumed_path, _ = resolve_resume(resume_from)
        ckpt.restore_into(engine)
        start_index = ckpt.event_index
        sim_seconds = ckpt.simulated_prefix
        applied_before = ckpt.applied_count
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        os.makedirs(checkpoint_dir, exist_ok=True)

    active_guard = None
    if guard is not None:
        from repro.resilience.guards import Guard

        active_guard = Guard(engine, guard)

    result = ReplayResult(
        reports=[], simulated_seconds=0.0, wall_seconds=0.0,
        start_index=start_index, resumed_from=resumed_path,
    )
    timer = WallTimer()
    with timer:
        for index, event in enumerate(stream.events[start_index:], start_index):
            report = _apply_event(engine, event, index, result,
                                  retry=active_guard is not None)
            if report is not None:
                result.reports.append(report)
                # Left-fold accumulation: bit-identical to summing the
                # uninterrupted run's reports in order, so a resumed
                # run reproduces the same float total.
                sim_seconds += report.simulated_seconds
            if active_guard is not None:
                active_guard.after_event(index)
            _fold_health_events(engine, index, result, active_guard)
            if checkpoint_every is not None and (index + 1) % checkpoint_every == 0:
                from repro.resilience.checkpoint import save_checkpoint

                path = os.path.join(
                    os.fspath(checkpoint_dir), f"ckpt-{index + 1:08d}.npz"
                )
                save_checkpoint(
                    engine, path,
                    event_index=index + 1,
                    simulated_prefix=sim_seconds,
                    applied_count=applied_before + len(result.reports),
                )
                result.checkpoints.append(path)
    result.simulated_seconds = sim_seconds
    result.wall_seconds = timer.elapsed
    if active_guard is not None:
        # Health events were folded into the guard log in place, so
        # supervision activity and guard activity share one timeline.
        result.guard_events = active_guard.events
    return result


def _fold_health_events(engine, index, result, active_guard) -> None:
    """Fold any worker-pool supervision events the engine accumulated
    during this stream event into the guard-event log (or directly
    into the result when the replay is unguarded), stamped with the
    stream index they occurred under."""
    drain = getattr(engine, "drain_health_events", None)
    if drain is None:
        return
    health = drain()
    if not health:
        return
    from repro.resilience.guards import HEALTH, GuardEvent

    sink = active_guard.events if active_guard is not None \
        else result.guard_events
    for ev in health:
        sink.append(
            GuardEvent(index, HEALTH, ev.action, -1,
                       f"[{ev.level}] {ev.detail}")
        )


def _apply_event(
    engine: "DynamicBC", event: EdgeEvent, index: int, result: ReplayResult,
    retry: bool,
) -> Optional["UpdateReport"]:
    """Apply one stream event; returns its report or ``None`` when the
    event was skipped (recorded in *result*)."""
    from repro.resilience.errors import CorruptRowError, UpdateError

    def _once():
        if event.op == INSERT:
            return engine.insert_edge(event.u, event.v)
        return engine.delete_edge(event.u, event.v)

    try:
        return _once()
    except ValueError:
        reason = "duplicate-insert" if event.op == INSERT else "missing-edge"
        result.skipped.append(
            SkippedEvent(index, event.u, event.v, event.op, reason)
        )
        return None
    except UpdateError as exc:
        if not retry:
            raise
        # The engine rolled back, so the event can be retried safely;
        # a transient fault recovers here, a deterministic one is
        # recorded and the stream moves on.  When a corrupt row failed
        # its own update, that row is rebuilt before the retry.
        try:
            if isinstance(exc.cause, CorruptRowError):
                engine.repair_source(exc.source_index)
            report = _once()
        except (ValueError, UpdateError) as retry_exc:
            result.skipped.append(
                SkippedEvent(index, event.u, event.v, event.op,
                             f"update-error: {retry_exc}")
            )
            return None
        result.recovered.append(
            SkippedEvent(index, event.u, event.v, event.op,
                         f"recovered after rollback: {exc}")
        )
        return report
