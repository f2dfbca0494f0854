"""Worker-pool supervision: heartbeats, deadlines, respawn, ladder.

The raw pool (:class:`~repro.parallel.pool.WorkerPool`) only enqueues
rounds and hands back result messages; :class:`SupervisedPool` owns the
one collect loop and wraps it with the machinery a long-running
streaming service needs, because workers die (crash, OOM kill) and —
worse — *hang* (SIGSTOPped, deadlocked, or spinning):

**Detection.**  Every worker stamps a heartbeat into a lock-free shared
array (:mod:`repro.parallel.worker`); the supervisor's collect loop
ages those stamps against its own clock.  A worker whose beat is older
than ``heartbeat_interval * hung_multiplier`` is *hung* (a SIGSTOP
freezes the heartbeat thread too, so it is caught here, within twice
the heartbeat interval); a worker that keeps beating but has been on
one chunk longer than ``chunk_deadline`` has a runaway chunk.  Both
are SIGKILLed — the only signal a stopped process cannot ignore — and
dead workers (crash, OOM kill) are caught by liveness polling.

**Recovery.**  A failed round tears the pool down (stale queued chunks
must never race the retry), respawns after an exponential backoff, and
re-runs the round.  Nothing needs restoring first: an update round's
workers write no state (the engine commits their results), and a
Brandes build, recompute or repair rewrites each of its rows whole, so
re-executing a chunk is bit-identical to the first attempt.

**Quarantine.**  A chunk whose execution has killed
``poison_threshold`` workers is poisoned: it is pulled out of pool
dispatch and retried *serially in the parent* (same handler, same
shared arrays — bit-identical).  If even that fails, the chunk
escalates as :class:`ChunkEscalated`; the engine's transaction rolls
the update back and the guard layer takes over (repair/recompute).

**Degradation ladder.**  ``full-pool -> shrunk-pool -> serial`` (and,
beyond the pool, the guard's recompute).  Exhausting the respawn
budget demotes one rung; a configurable streak of healthy rounds
promotes back up, through a ping probe when leaving serial.  Every
transition and every detection is recorded as a :class:`HealthEvent`
(drained by the engine into the guard-event log and
``DynamicBC.health_report()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.parallel.pool import (
    ParallelExecutionError,
    WorkerPool,
    WorkerTaskError,
    _POLL_SECONDS,
)
from repro.parallel import worker as _worker

#: ladder rungs, healthiest first (the fourth rung — guarded
#: recompute — lives outside the pool, in repro.resilience.guards)
FULL_POOL = "full-pool"
SHRUNK_POOL = "shrunk-pool"
SERIAL = "serial"
LADDER = (FULL_POOL, SHRUNK_POOL, SERIAL)


class ChunkEscalated(ParallelExecutionError):
    """A quarantined chunk failed even its serial in-parent retry; the
    caller must escalate (transaction rollback + guard recovery)."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tuning knobs of the supervision subsystem.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between worker heartbeat stamps.
    hung_multiplier:
        A worker is declared hung when its last beat is older than
        ``heartbeat_interval * hung_multiplier`` seconds (the default
        2.0 gives the "detected within twice the heartbeat interval"
        guarantee for SIGSTOPped workers).
    chunk_deadline:
        Wall-clock budget for one chunk; a worker that keeps beating
        but exceeds it is treated as hung (runaway compute loop).
    max_respawns:
        Pool respawn+retry attempts per :meth:`SupervisedPool.run`
        before demoting one ladder rung.
    backoff_base / backoff_max:
        Exponential respawn backoff: attempt *a* sleeps
        ``min(backoff_base * 2**(a-1), backoff_max)`` seconds.
    poison_threshold:
        Worker deaths attributable to one chunk before it is
        quarantined and retried serially in the parent.
    promote_after:
        Consecutive healthy rounds at a degraded rung before probing /
        promoting one rung up.
    min_workers:
        Floor of the shrunk pool (``max(min_workers, workers // 2)``).
    """

    heartbeat_interval: float = 0.25
    hung_multiplier: float = 2.0
    chunk_deadline: float = 60.0
    max_respawns: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    poison_threshold: int = 2
    promote_after: int = 8
    min_workers: int = 2

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.hung_multiplier < 1.0:
            raise ValueError(
                f"hung_multiplier must be >= 1, got {self.hung_multiplier}"
            )
        if self.chunk_deadline <= 0:
            raise ValueError(
                f"chunk_deadline must be > 0, got {self.chunk_deadline}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_max")
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.promote_after < 1:
            raise ValueError(
                f"promote_after must be >= 1, got {self.promote_after}"
            )
        if self.min_workers < 2:
            raise ValueError(
                f"min_workers must be >= 2, got {self.min_workers}"
            )

    @property
    def hung_deadline(self) -> float:
        """Seconds of heartbeat silence that declare a worker hung."""
        return self.heartbeat_interval * self.hung_multiplier


@dataclass(frozen=True)
class HealthEvent:
    """One supervision observation or state transition.

    ``action`` is one of: ``worker-death``, ``hung-worker``,
    ``chunk-timeout``, ``kill``, ``backoff``, ``respawn``,
    ``quarantine``, ``serial-retry``, ``task-error``, ``escalate``,
    ``demote``, ``promote``, ``probe``.
    """

    seq: int  #: monotonically increasing per pool
    action: str
    level: str  #: ladder rung when the event was emitted
    detail: str = ""
    worker: int = -1  #: worker index involved (-1 when n/a)
    chunk: int = -1  #: global chunk index involved (-1 when n/a)


class _RoundFailure(Exception):
    """Internal: one monitored round failed; carries the culprits as
    ``(worker_index, action, local_chunk_id, detail)`` tuples."""

    def __init__(self, culprits: List[tuple], detail: str = "") -> None:
        super().__init__(detail or f"{len(culprits)} worker failure(s)")
        self.culprits = culprits
        self.detail = detail


class SupervisedPool:
    """A :class:`~repro.parallel.pool.WorkerPool` under heartbeat
    supervision — the engine's only pool.

    :meth:`run` executes one round and returns chunk results in
    payload order, surviving crashes and hangs via monitored rounds,
    bounded respawn, quarantine and the degradation ladder (module
    docstring).  The optional ``serial`` callback executes a chunk in
    the parent process, which the supervisor itself cannot do.
    """

    def __init__(
        self,
        workers: int,
        policy: Optional[SupervisorPolicy] = None,
        join_timeout: float = 2.0,
    ) -> None:
        self.policy = policy or SupervisorPolicy()
        #: the pool size the caller asked for (chunk planning uses
        #: this even while degraded, keeping chunk shapes stable)
        self.requested_workers = int(workers)
        self.level = FULL_POOL
        self.events: List[HealthEvent] = []
        self.counts: Dict[str, int] = {
            "kills": 0, "deaths": 0, "hung": 0, "timeouts": 0,
            "respawns": 0, "quarantined": 0, "escalations": 0,
            "demotions": 0, "promotions": 0, "probes": 0,
            "serial_retries": 0,
        }
        self.healthy_rounds = 0
        self._seq = 0
        self._drained = 0
        self._armed: Dict[str, List[int]] = {}  # key -> [chunks, rounds]
        self._pool = WorkerPool(
            workers,
            join_timeout=join_timeout,
            heartbeat_interval=self.policy.heartbeat_interval,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Requested pool width (stable across ladder levels so chunk
        planning — and therefore results — never depends on health)."""
        return self.requested_workers

    def transport_stats(self) -> Dict[str, Any]:
        """The underlying pool's result-transport accounting."""
        return self._pool.transport_stats()

    def drain_events(self) -> List[HealthEvent]:
        """Events recorded since the previous drain (the engine folds
        these into the guard-event log during replays)."""
        new = self.events[self._drained:]
        self._drained = len(self.events)
        return new

    def health_report(self) -> Dict[str, Any]:
        """Operator-facing snapshot: ladder level, live workers, and
        every supervision counter."""
        report: Dict[str, Any] = {
            "level": self.level,
            "ladder": list(LADDER),
            "requested_workers": self.requested_workers,
            "live_workers": sum(
                p.is_alive() for p in self._pool._procs
            ),
            "healthy_rounds": self.healthy_rounds,
            "events": len(self.events),
        }
        report.update(self.counts)
        return report

    # ------------------------------------------------------------------
    # Fault arming (chaos harness hooks)
    # ------------------------------------------------------------------
    def arm_crash(self, chunks: int = 1, rounds: int = 1) -> None:
        """For the next *rounds* dispatched pool rounds (retries
        included), the first *chunks* pending chunks kill their
        worker mid-task (``os._exit``)."""
        self._arm(_worker.CRASH_KEY, chunks, rounds)

    def arm_stall(self, chunks: int = 1, rounds: int = 1) -> None:
        """Like :meth:`arm_crash`, but the worker SIGSTOPs itself — a
        silent hang only heartbeat staleness can detect."""
        self._arm(_worker.STALL_KEY, chunks, rounds)

    def _arm(self, key: str, chunks: int, rounds: int) -> None:
        if chunks < 1 or rounds < 1:
            raise ValueError("chunks and rounds must be >= 1")
        self._armed[key] = [int(chunks), int(rounds)]

    def pending_faults(self) -> int:
        """Armed fault rounds not yet consumed by a dispatch."""
        return sum(rounds for _, rounds in self._armed.values())

    # ------------------------------------------------------------------
    # The supervised round
    # ------------------------------------------------------------------
    def run(
        self,
        kind: str,
        common: dict,
        payloads: List[dict],
        *,
        serial: Optional[Callable[[str, dict, dict], Any]] = None,
    ) -> List[Any]:
        """Execute one round under supervision; results in payload
        order, bit-identical to a serial run.  Every chunk must be
        safe to re-execute as it stands (module docstring).

        ``serial`` executes one chunk in the parent (quarantine and the
        serial ladder rung).
        """
        if not payloads:
            return []
        self._maybe_promote()
        results: List[Any] = [None] * len(payloads)
        done = [False] * len(payloads)
        strikes: Dict[int, int] = {}
        quarantined: Set[int] = set()
        attempts = 0
        while self.level != SERIAL:
            pending = [
                i for i in range(len(payloads))
                if not done[i] and i not in quarantined
            ]
            if not pending:
                break
            marked = self._mark_faults([payloads[i] for i in pending])
            try:
                outputs = self._round(kind, common, marked)
            except WorkerTaskError:
                # A handler bug is deterministic: retrying cannot help
                # and the pool is not unhealthy.  Respawn (stale chunks
                # may still be queued) and let the caller handle it.
                self._respawn_pool(self._level_size())
                self._emit("task-error", detail=f"kind={kind}")
                raise
            except _RoundFailure as fail:
                self._absorb_failure(fail, kind, pending, strikes,
                                     quarantined)
                attempts += 1
                if attempts > self.policy.max_respawns:
                    self._demote()
                    attempts = 0
                if self.level != SERIAL:
                    self._backoff(attempts)
                    self._respawn_pool(self._level_size())
                continue
            for i, out in zip(pending, outputs):
                results[i] = out
                done[i] = True
            self.healthy_rounds += 1
        # Serial leg: quarantined chunks, plus everything when the
        # ladder sits at its serial rung.
        leftovers = [i for i in range(len(payloads)) if not done[i]]
        for i in leftovers:
            self.counts["serial_retries"] += 1
            self._emit("serial-retry", chunk=i, detail=f"kind={kind}")
            try:
                if serial is None:
                    raise RuntimeError("no serial executor provided")
                results[i] = serial(kind, common, payloads[i])
            except Exception as exc:
                self.counts["escalations"] += 1
                self._emit("escalate", chunk=i,
                           detail=f"serial retry failed: {exc}")
                raise ChunkEscalated(
                    f"chunk {i} (kind={kind!r}) failed its serial retry: "
                    f"{exc}"
                ) from exc
            done[i] = True
        if leftovers and self.level == SERIAL:
            self.healthy_rounds += 1
        return results

    def _round(self, kind: str, common: dict,
               payloads: List[dict]) -> List[Any]:
        """One monitored pool round; raises :class:`_RoundFailure` on
        any death/hang/deadline (hung workers already SIGKILLed) and
        :class:`WorkerTaskError` on a remote exception."""
        pool = self._pool
        try:
            round_id = pool.enqueue_round(kind, common, payloads)
        except Exception as exc:
            raise _RoundFailure([], f"dispatch failed: {exc}")
        outputs: dict = {}
        while len(outputs) < len(payloads):
            try:
                message = pool.poll_result(_POLL_SECONDS)
            except Exception as exc:
                # A worker SIGKILLed mid-put can corrupt the queue
                # stream; attribution is impossible, the round is not.
                raise _RoundFailure([], f"result queue failed: {exc}")
            if message is not None:
                status, rid, chunk_id, result = message
                if rid != round_id:
                    continue  # stale result from an aborted round
                if status == "error":
                    raise WorkerTaskError(
                        f"task {kind!r} chunk {chunk_id} failed in "
                        f"worker:\n{result}"
                    )
                outputs[chunk_id] = result
                continue
            culprits = self._find_culprits(round_id)
            if culprits:
                raise _RoundFailure(culprits)
        return [outputs[chunk_id] for chunk_id in range(len(payloads))]

    def _find_culprits(self, round_id: int) -> List[tuple]:
        """Scan worker health; SIGKILL hung ones.  Returns
        ``(worker, action, local_chunk, detail)`` tuples."""
        pool = self._pool
        policy = self.policy
        culprits: List[tuple] = []
        now = time.monotonic()
        for j in range(len(pool._procs)):
            st = pool.worker_status(j, now)
            chunk = st.chunk_id if st.round_id == round_id else -1
            if not st.alive:
                culprits.append((j, "worker-death", chunk,
                                 f"died (chunk {chunk})"))
                continue
            action = None
            if st.beat_age > policy.hung_deadline:
                action = "hung-worker"
                detail = (f"no heartbeat for {st.beat_age:.3f}s "
                          f"(deadline {policy.hung_deadline:.3f}s)")
            elif st.busy_seconds > policy.chunk_deadline:
                action = "chunk-timeout"
                detail = (f"chunk {chunk} running {st.busy_seconds:.3f}s "
                          f"(deadline {policy.chunk_deadline:.3f}s)")
            if action is not None:
                pool.kill_worker(j)
                self.counts["kills"] += 1
                culprits.append((j, action, chunk, detail))
        return culprits

    def _absorb_failure(
        self, fail: _RoundFailure, kind: str, pending: List[int],
        strikes: Dict[int, int], quarantined: Set[int],
    ) -> None:
        """Record a failed round: events, strike counters, quarantine
        decisions; then tear the pool down so no stale worker races
        the retry that follows."""
        if not fail.culprits:
            self._emit("worker-death", detail=fail.detail)
        for j, action, local_chunk, detail in fail.culprits:
            key = {"worker-death": "deaths", "hung-worker": "hung",
                   "chunk-timeout": "timeouts"}[action]
            self.counts[key] += 1
            chunk = pending[local_chunk] if 0 <= local_chunk < len(pending) \
                else -1
            self._emit(action, worker=j, chunk=chunk, detail=detail)
            if action in ("hung-worker", "chunk-timeout"):
                self._emit("kill", worker=j, chunk=chunk,
                           detail="SIGKILL (hung)")
            if chunk >= 0:
                strikes[chunk] = strikes.get(chunk, 0) + 1
                if (strikes[chunk] >= self.policy.poison_threshold
                        and chunk not in quarantined):
                    quarantined.add(chunk)
                    self.counts["quarantined"] += 1
                    self._emit(
                        "quarantine", chunk=chunk,
                        detail=(f"{strikes[chunk]} worker deaths; "
                                f"retrying serially (kind={kind})"),
                    )
        self._pool._teardown(graceful=False)

    # ------------------------------------------------------------------
    # Ladder transitions
    # ------------------------------------------------------------------
    def _level_size(self) -> int:
        """Pool width for the current ladder rung."""
        if self.level == FULL_POOL:
            return self.requested_workers
        return max(self.policy.min_workers, self.requested_workers // 2)

    def _demote(self) -> None:
        """Step one rung down after exhausting the respawn budget."""
        old = self.level
        self.level = LADDER[min(LADDER.index(old) + 1, len(LADDER) - 1)]
        if self.level == old:
            return
        self.healthy_rounds = 0
        self.counts["demotions"] += 1
        self._emit(
            "demote",
            detail=(f"{old} -> {self.level} after "
                    f"{self.policy.max_respawns} failed respawns"),
        )

    def _maybe_promote(self) -> None:
        """Climb one rung after a healthy streak; leaving serial runs
        a ping probe first (a dead platform must not flap)."""
        if self.level == FULL_POOL:
            return
        if self.healthy_rounds < self.policy.promote_after:
            return
        target = LADDER[LADDER.index(self.level) - 1]
        if self.level == SERIAL:
            self.counts["probes"] += 1
            self._emit("probe", detail="ping probe before leaving serial")
            old_level, self.level = self.level, target
            self._respawn_pool(self._level_size())
            try:
                self._round("ping", {}, [{"items": [0]}])
            except (_RoundFailure, WorkerTaskError) as exc:
                self.level = old_level
                self.healthy_rounds = 0
                self._pool._teardown(graceful=False)
                self._emit("probe",
                           detail=f"probe failed, staying serial: {exc}")
                return
        else:
            old_level, self.level = self.level, target
            self._respawn_pool(self._level_size())
        self.healthy_rounds = 0
        self.counts["promotions"] += 1
        self._emit("promote", detail=f"{old_level} -> {self.level}")

    def _backoff(self, attempt: int) -> None:
        """Exponential backoff before a respawn."""
        delay = min(self.policy.backoff_base * (2 ** max(0, attempt - 1)),
                    self.policy.backoff_max)
        if delay > 0:
            self._emit("backoff", detail=f"{delay:.3f}s before respawn "
                                         f"(attempt {attempt})")
            time.sleep(delay)

    def _respawn_pool(self, size: int) -> None:
        self.counts["respawns"] += 1
        self._pool.respawn(size)
        self._emit("respawn", detail=f"{size} workers ({self.level})")

    def _mark_faults(self, payloads: List[dict]) -> List[dict]:
        """Apply armed crash/stall marks to copies of the first
        chunk(s) and consume one armed round per key."""
        if not self._armed:
            return payloads
        out = list(payloads)
        for key in list(self._armed):
            chunks, rounds = self._armed[key]
            for idx in range(min(chunks, len(out))):
                out[idx] = dict(out[idx], **{key: True})
            if rounds <= 1:
                del self._armed[key]
            else:
                self._armed[key][1] = rounds - 1
        return out

    def _emit(self, action: str, level: Optional[str] = None,
              detail: str = "", worker: int = -1, chunk: int = -1) -> None:
        self.events.append(HealthEvent(
            seq=self._seq, action=action,
            level=level if level is not None else self.level,
            detail=detail, worker=int(worker), chunk=int(chunk),
        ))
        self._seq += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the underlying pool (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SupervisedPool(workers={self.requested_workers}, "
            f"level={self.level!r}, kills={self.counts['kills']}, "
            f"respawns={self.counts['respawns']})"
        )
