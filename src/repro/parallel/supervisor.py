"""Worker-pool supervision: heartbeats, deadlines, respawn, ladder.

The raw pool (:class:`~repro.parallel.pool.WorkerPool`) only dispatches
chunks and hands back replies; :class:`SupervisedPool` owns the one
collect loop and wraps it with the machinery a long-running streaming
service needs, because workers die (crash, OOM kill) and — worse —
*hang* (SIGSTOPped, deadlocked, or spinning):

**The parent's share.**  A pool of ``workers=N`` forks ``N - 1``
processes.  Of a round's (at most ``N``) chunks the parent sends
chunks ``1..N-1``, one per forked worker, computes chunk 0 itself with
the caller's in-parent executor, and then collects — the host taking
its share, as in the paper's heterogeneous CPU+GPU split
(``repro.bc.hybrid``).  An exception in the parent's chunk is the
caller's own failure, not the pool's: the round is torn down and the
exception propagates as it is, with no quarantine, escalation or
ladder step counted.

**Detection.**  Every worker stamps a heartbeat into a lock-free shared
array (:mod:`repro.parallel.worker`); the supervisor's collect loop
ages those stamps against its own clock.  A worker whose beat is older
than ``heartbeat_interval * hung_multiplier`` is *hung* (a SIGSTOP
freezes the heartbeat thread too, so it is caught here, within twice
the heartbeat interval, even partway through sending its result); a
worker that keeps beating but has held one chunk longer than
``chunk_deadline`` has a runaway chunk.  Both are SIGKILLed — the only
signal a stopped process cannot ignore.  A dead worker (crash, OOM
kill) closes its channel, which the pool reads as EOF, and is caught
by liveness polling besides.  The collect loop starts once the parent
has computed its own chunk, so a failure is noticed only after that.
The pool's chunk table names the chunk each culprit held.

**Recovery.**  A failed round SIGKILLs every worker at once (a worker
may still hold a chunk of it, no reply of that round may reach the
retry, and no worker holds state worth a gentler signal), respawns
after an exponential backoff, and re-sends the forked chunks that did
not finish.  Nothing needs restoring first: an update round's
workers write no state (the engine commits their results), and a
Brandes build, recompute or repair rewrites each of its rows whole, so
re-executing a chunk is bit-identical to the first attempt.

**Quarantine.**  A chunk whose execution has killed
``poison_threshold`` workers is poisoned: it is pulled out of pool
dispatch and retried *serially in the parent* (same handler, same
shared arrays — bit-identical).  If even that fails, the chunk
escalates as :class:`ChunkEscalated`; the engine's transaction rolls
the update back and the guard layer takes over (repair/recompute).

**Degradation ladder.**  ``pool -> serial`` (and, beyond the pool, the
guard's recompute).  Exhausting the respawn budget demotes to serial,
where the parent computes every chunk; a configurable streak of
healthy rounds promotes back, through a ping probe of every forked
worker.  Every transition and every detection is recorded as a
:class:`HealthEvent` (drained by the engine into the guard-event log
and ``DynamicBC.health_report()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.parallel.pool import (
    ParallelExecutionError,
    WorkerPool,
    WorkerTaskError,
    _POLL_SECONDS,
)
from repro.parallel import worker as _worker

#: ladder rungs, healthiest first (the third rung — guarded
#: recompute — lives outside the pool, in repro.resilience.guards)
POOL = "pool"
SERIAL = "serial"
LADDER = (POOL, SERIAL)


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
        Like every detection, it is checked only once the parent has
        computed its own chunk of the round.
    max_respawns:
        Pool respawn+retry attempts per :meth:`SupervisedPool.run`
        before demoting to the serial rung.
    backoff_base / backoff_max:
        Exponential respawn backoff: attempt *a* sleeps
        ``min(backoff_base * 2**(a-1), backoff_max)`` seconds.
    poison_threshold:
        Worker deaths attributable to one chunk before it is
        quarantined and retried serially in the parent.
    promote_after:
        Consecutive healthy rounds at the serial rung before probing
        the pool and promoting back.
    """

    heartbeat_interval: float = 0.25
    hung_multiplier: float = 2.0
    chunk_deadline: float = 60.0
    max_respawns: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    poison_threshold: int = 2
    promote_after: int = 8

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
    """A :class:`~repro.parallel.pool.WorkerPool` of ``workers - 1``
    processes under heartbeat supervision, with the parent as worker 0
    — the engine's only pool.

    :meth:`run` executes one round and returns chunk results in
    payload order, surviving crashes and hangs via monitored rounds,
    bounded respawn, quarantine and the degradation ladder (module
    docstring).
    """

    def __init__(self, workers: int,
                 policy: Optional[SupervisorPolicy] = None) -> None:
        self.policy = policy or SupervisorPolicy()
        #: chunks per round: the parent's and one per forked worker
        self.workers = int(workers)
        self.level = POOL
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
            self.workers - 1,
            heartbeat_interval=self.policy.heartbeat_interval,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
        """Operator-facing snapshot: ladder level, live forked workers,
        and every supervision counter."""
        report: Dict[str, Any] = {
            "level": self.level,
            "ladder": list(LADDER),
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
        """For the next *rounds* pool rounds that send chunks to the
        forked workers (retries included), the first *chunks* forked
        chunks kill their worker mid-task (``os._exit``).  The
        parent's own chunk is never marked, and a round of one chunk,
        which the parent computes alone, consumes no round."""
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
        local: Callable[[str, dict, dict], Any],
    ) -> List[Any]:
        """Execute one round of at most :attr:`workers` chunks under
        supervision; results in payload order, bit-identical to a
        serial run.  Every chunk must be safe to re-execute as it
        stands (module docstring).

        ``local(kind, common, payload)`` executes one chunk in the
        parent: chunk 0, the parent's own share, which it computes
        while the forked workers compute chunks ``1..``; quarantined
        chunks; and, at the serial rung, every chunk.  An exception in
        the parent's share propagates as it is, once the round is torn
        down.
        """
        if not payloads:
            return []
        if len(payloads) > self.workers:
            raise ValueError(f"{len(payloads)} chunks for a pool of "
                             f"{self.workers} workers")
        self._maybe_promote()
        results: List[Any] = [None] * len(payloads)
        done = [False] * len(payloads)

        def own() -> None:
            results[0] = local(kind, common, payloads[0])
            done[0] = True

        strikes: Dict[int, int] = {}
        quarantined: Set[int] = set()
        attempts = 0
        while self.level != SERIAL:
            forked = [
                i for i in range(1, len(payloads))
                if not done[i] and i not in quarantined
            ]
            if done[0] and not forked:
                break
            marked = self._mark_faults([payloads[i] for i in forked])
            replies: Dict[int, Any] = {}
            failure = None
            try:
                self._round(kind, common, marked, None if done[0] else own,
                            replies)
            except WorkerTaskError:
                # A handler bug is deterministic: retrying cannot help
                # and the pool is not unhealthy.  Respawn (the round
                # tore the pool down) and let the caller handle it.
                self._respawn_pool()
                self._emit("task-error", detail=f"kind={kind}")
                raise
            except _RoundFailure as fail:
                failure = fail
            # worker j returned forked chunk j; a failed round keeps the
            # results it got, so only unfinished chunks are re-sent
            for j, out in replies.items():
                results[forked[j]] = out
                done[forked[j]] = True
            if failure is None:
                self.healthy_rounds += 1
                continue
            self._absorb_failure(failure, kind, forked, strikes, quarantined)
            attempts += 1
            if attempts > self.policy.max_respawns:
                self._demote()
                attempts = 0
            if self.level != SERIAL:
                self._backoff(attempts)
                self._respawn_pool()
        # Serial leg: the parent's share if no pool round ran it, then
        # quarantined chunks, plus every chunk at the serial rung.
        if not done[0]:
            own()
        for i in range(1, len(payloads)):
            if done[i]:
                continue
            self.counts["serial_retries"] += 1
            self._emit("serial-retry", chunk=i, detail=f"kind={kind}")
            try:
                results[i] = local(kind, common, payloads[i])
            except Exception as exc:
                self.counts["escalations"] += 1
                self._emit("escalate", chunk=i,
                           detail=f"serial retry failed: {exc}")
                raise ChunkEscalated(
                    f"chunk {i} (kind={kind!r}) failed its serial retry: "
                    f"{exc}"
                ) from exc
        if self.level == SERIAL:
            self.healthy_rounds += 1
        return results

    def _round(self, kind: str, common: dict, payloads: List[dict],
               own: Optional[Callable[[], None]],
               replies: Dict[int, Any]) -> None:
        """One monitored pool round: send chunk *j* to worker *j*, run
        *own* (the parent's share, if any) once every chunk is sent,
        then collect worker *j*'s result into ``replies[j]``.  Raises
        :class:`_RoundFailure` on any death/hang/deadline (hung workers
        already SIGKILLed), with the results collected so far left in
        *replies*, and :class:`WorkerTaskError` on a remote exception.
        A round that does not finish — *own* raising included — tears
        the pool down: its workers may still hold chunks, and no reply
        of theirs may reach a later round."""
        pool = self._pool
        try:
            try:
                pool.start_round(kind, common, payloads)
            except OSError as exc:  # the pool could not be started
                raise _RoundFailure([], f"dispatch failed: {exc}") from exc
            while own is not None or len(replies) < len(payloads):
                if own is not None and not pool.sending:
                    own()
                    own = None
                    continue
                got = pool.poll(_POLL_SECONDS)
                for j, status, result in got:
                    if status == "error":
                        raise WorkerTaskError(
                            f"task {kind!r} failed in worker {j}:\n"
                            f"{result}"
                        )
                    replies[j] = result
                if not got:
                    culprits = self._find_culprits()
                    if culprits:
                        raise _RoundFailure(culprits)
        except BaseException:
            pool._teardown(graceful=False)
            raise

    def _find_culprits(self) -> List[tuple]:
        """Scan worker health; SIGKILL hung ones.  Returns
        ``(worker, action, local_chunk, detail)`` tuples, each chunk
        taken from the pool's chunk table."""
        pool = self._pool
        policy = self.policy
        culprits: List[tuple] = []
        now = time.monotonic()
        for j in range(len(pool._procs)):
            st = pool.worker_status(j, now)
            chunk = st.chunk_id
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
        self, fail: _RoundFailure, kind: str, forked: List[int],
        strikes: Dict[int, int], quarantined: Set[int],
    ) -> None:
        """Record a failed round (whose pool :meth:`_round` has torn
        down): events, strike counters, quarantine decisions.  Worker
        *j* held chunk ``forked[j]``."""
        if not fail.culprits:
            self._emit("worker-death", detail=fail.detail)
        for j, action, local_chunk, detail in fail.culprits:
            key = {"worker-death": "deaths", "hung-worker": "hung",
                   "chunk-timeout": "timeouts"}[action]
            self.counts[key] += 1
            chunk = forked[local_chunk] if 0 <= local_chunk < len(forked) \
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

    # ------------------------------------------------------------------
    # Ladder transitions
    # ------------------------------------------------------------------
    def _demote(self) -> None:
        """Drop to the serial rung after exhausting the respawn
        budget."""
        self.level = SERIAL
        self.healthy_rounds = 0
        self.counts["demotions"] += 1
        self._emit(
            "demote",
            detail=(f"{POOL} -> {SERIAL} after "
                    f"{self.policy.max_respawns} failed respawns"),
        )

    def _maybe_promote(self) -> None:
        """Leave the serial rung after a healthy streak, once a ping
        probe of every forked worker succeeds (a dead platform must
        not flap)."""
        if self.level == POOL:
            return
        if self.healthy_rounds < self.policy.promote_after:
            return
        self.counts["probes"] += 1
        self._emit("probe", detail="ping probe before leaving serial")
        self._respawn_pool()
        try:
            self._round("ping", {}, [{"items": [j]} for j in
                                     range(self._pool.processes)], None, {})
        except (_RoundFailure, WorkerTaskError) as exc:
            self.healthy_rounds = 0
            self._emit("probe", detail=f"probe failed, staying serial: {exc}")
            return
        self.level = POOL
        self.healthy_rounds = 0
        self.counts["promotions"] += 1
        self._emit("promote", detail=f"{SERIAL} -> {POOL}")

    def _backoff(self, attempt: int) -> None:
        """Exponential backoff before a respawn."""
        delay = min(self.policy.backoff_base * (2 ** max(0, attempt - 1)),
                    self.policy.backoff_max)
        if delay > 0:
            self._emit("backoff", detail=f"{delay:.3f}s before respawn "
                                         f"(attempt {attempt})")
            time.sleep(delay)

    def _respawn_pool(self) -> None:
        self.counts["respawns"] += 1
        self._pool.respawn()
        self._emit("respawn", detail=f"{self._pool.processes} forked "
                                     f"workers ({self.level})")

    def _mark_faults(self, payloads: List[dict]) -> List[dict]:
        """Apply armed crash/stall marks to copies of the first forked
        chunk(s) and consume one armed round per key; a round that
        forks nothing consumes none."""
        if not self._armed or not payloads:
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

    def _emit(self, action: str, detail: str = "", worker: int = -1,
              chunk: int = -1) -> None:
        self.events.append(HealthEvent(
            seq=self._seq, action=action, level=self.level,
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
            f"SupervisedPool(workers={self.workers}, "
            f"level={self.level!r}, kills={self.counts['kills']}, "
            f"respawns={self.counts['respawns']})"
        )
