"""Supervision subsystem: the parent's own share, heartbeats,
hung-worker kills, respawn, quarantine, and the degradation ladder.

The pool-level tests drive :class:`SupervisedPool` directly with cheap
``ping``/``sleep`` rounds (the parent computes chunk 0 with
:func:`serial_ping`); the engine-level tests prove the headline claim — a supervised engine hit by crashes *and* SIGSTOP hangs stays
bit-identical to its serial twin with no permanent serial demotion.
"""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from repro.bc.engine import DynamicBC
from repro.graph import generators as gen
from repro.graph.dynamic import DynamicGraph
from repro.graph.stream import EdgeStream, replay
from repro.parallel.shm import shm_available
from repro.parallel.pool import JOIN_TIMEOUT
from repro.parallel.supervisor import (
    POOL,
    SERIAL,
    SupervisedPool,
    SupervisorPolicy,
)
from repro.resilience import FaultInjector
from repro.resilience.chaos import reports_identical
from repro.resilience.guards import HEALTH, GuardPolicy

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shm unavailable"
)

#: fast-reacting policy so detection latency, not safety margins,
#: dominates test wall-clock
FAST = SupervisorPolicy(heartbeat_interval=0.05, backoff_base=0.01,
                        backoff_max=0.05, chunk_deadline=30.0)

K = 12
SEED = 3


def serial_ping(kind, common, payload):
    """In-parent executor for ping-style chunks (the parent's share,
    quarantine and the serial rung)."""
    assert kind in ("ping", "sleep")
    return list(payload["items"])


def build_pair(graph, workers, **kwargs):
    serial = DynamicBC.from_graph(DynamicGraph.from_csr(graph),
                                  num_sources=K, seed=SEED)
    par = DynamicBC.from_graph(DynamicGraph.from_csr(graph), num_sources=K,
                               seed=SEED, workers=workers,
                               supervisor_policy=FAST, **kwargs)
    return serial, par


def assert_states_equal(a, b):
    for name in ("sources", "d", "sigma", "delta", "bc"):
        assert np.array_equal(getattr(a.state, name),
                              getattr(b.state, name)), name
    assert a.counters == b.counters


# ----------------------------------------------------------------------
# Detection + recovery at the pool level
# ----------------------------------------------------------------------
class TestDetection:
    def test_hung_deadline_is_twice_the_heartbeat_by_default(self):
        policy = SupervisorPolicy()
        assert policy.hung_deadline == 2 * policy.heartbeat_interval

    def test_self_stalled_worker_is_killed_and_chunk_reassigned(
            self, monkeypatch):
        # The worker SIGSTOPs itself mid-chunk (a live-but-frozen
        # process): the heartbeat goes silent, the supervisor SIGKILLs
        # it, respawns, and the round still returns every chunk.  The
        # retry re-sends only the forked chunks whose results had not
        # come back (the sibling's may or may not have); the parent's
        # share is not redone.
        calls, rounds = [], []

        def local(kind, common, payload):
            calls.append(payload)
            return serial_ping(kind, common, payload)

        with SupervisedPool(3, policy=FAST) as pool:
            raw = pool._pool
            start_round, poll = raw.start_round, raw.poll

            def spy_start(kind, common, payloads):
                rounds.append(([p["items"] for p in payloads], []))
                return start_round(kind, common, payloads)

            def spy_poll(timeout):
                replies = poll(timeout)
                rounds[-1][1].extend(result for _, _, result in replies)
                return replies

            monkeypatch.setattr(raw, "start_round", spy_start)
            monkeypatch.setattr(raw, "poll", spy_poll)
            pool.arm_stall()
            payloads = [{"items": [i]} for i in range(3)]
            start = time.monotonic()
            outs = pool.run("ping", {}, payloads, local)
            elapsed = time.monotonic() - start
            assert outs == [[i] for i in range(3)]
            assert calls == [payloads[0]]
            (sent, got), (resent, _) = rounds
            assert sent == [[1], [2]] and [1] not in got
            assert resent == [items for items in sent if items not in got]
            assert pool.counts["hung"] == 1
            assert pool.counts["kills"] == 1
            assert pool.counts["respawns"] >= 1
            assert pool.level == POOL
            # Detection is bounded by the hung deadline (2x heartbeat)
            # plus polling slack — nowhere near a blocking hang.
            assert elapsed < FAST.hung_deadline + 5.0
            actions = [e.action for e in pool.drain_events()]
            assert "hung-worker" in actions
            assert "kill" in actions
            assert "respawn" in actions

    def test_externally_sigstopped_worker_mid_chunk(self):
        # Freeze a live worker from the outside while it busy-sleeps
        # on a chunk — the closest harness analogue of a production
        # hang that no cooperative check can see.  The trigger waits
        # for the parent's chunk table to show a worker holding a
        # chunk; a chunk sent to a worker stays with it, so the frozen
        # worker's chunk cannot finish elsewhere and the hang is always
        # detected.
        from tests.conftest import wait_until

        with SupervisedPool(2, policy=FAST) as pool:
            raw = pool._pool

            def busy_worker():
                for j, sent in enumerate(raw._sent):
                    if sent is not None:
                        return j + 1  # 1-based so 0 stays falsy
                return 0

            def freeze_first_busy():
                j = wait_until(busy_worker, timeout=10.0,
                               message="a worker to hold a chunk") - 1
                os.kill(raw._procs[j].pid, signal.SIGSTOP)

            trigger = threading.Thread(target=freeze_first_busy, daemon=True)
            trigger.start()
            try:
                payloads = [{"items": [i], "seconds": 1.5} for i in range(2)]
                outs = pool.run("sleep", {}, payloads, serial_ping)
            finally:
                trigger.join(timeout=30.0)
            assert not trigger.is_alive()
            assert outs == [[0], [1]]
            assert pool.counts["hung"] >= 1
            assert pool.counts["kills"] >= 1

    def test_worker_stopped_mid_frame_is_detected(self, monkeypatch):
        # A worker that writes half of a result frame several channel
        # buffers long and then freezes must not leave the parent
        # waiting on the rest: the heartbeat check kills it.  Every
        # attempt freezes the same way (respawned workers fork with the
        # patch), so quarantine's serial retry finishes the round; the
        # parent computes chunk 0 itself.
        from repro.parallel import worker as _worker

        size = 4 << 20

        def stop_midway(channel, status, result):
            frame = _worker.encode((status, result))
            channel.sock.sendall(frame[:len(frame) // 2])
            os.kill(os.getpid(), signal.SIGSTOP)

        def blob(kind, common, payload):
            return bytes(range(256)) * (payload["size"] // 256)

        monkeypatch.setattr(_worker, "post_result", stop_midway)
        monkeypatch.setitem(_worker._HANDLERS, "blob",
                            lambda attachment, common, payload:
                            blob("blob", common, payload))
        payloads = [{"size": size}, {"size": size}]
        outs = []
        with SupervisedPool(2, policy=FAST) as pool:
            runner = threading.Thread(
                target=lambda: outs.extend(
                    pool.run("blob", {}, payloads, blob)),
                daemon=True)
            runner.start()
            runner.join(timeout=60.0)
            blocked = runner.is_alive()
            if blocked:
                # free the parent so the test fails instead of hanging:
                # workers forked from now on reply at once
                monkeypatch.undo()
                for proc in pool._pool._procs:
                    proc.kill()
                runner.join(timeout=60.0)
            assert not blocked, "parent blocked on a partial frame"
            assert outs == [blob("blob", {}, p) for p in payloads]
            assert pool.counts["hung"] >= 1
            assert pool.counts["quarantined"] == 1

    def test_frozen_worker_of_a_failed_round_is_killed_at_once(self):
        # One forked worker crashes while its sibling sits frozen, its
        # heartbeat still younger than the hung deadline: the crash
        # fails the round first.  Tearing the round down SIGKILLs the
        # frozen worker at once (a stopped process heeds nothing else,
        # and workers hold no state a gentler signal could save), so
        # the retry is done well within JOIN_TIMEOUT.
        policy = SupervisorPolicy(heartbeat_interval=0.5, backoff_base=0.01,
                                  backoff_max=0.05)
        with SupervisedPool(3, policy=policy) as pool:
            frozen = pool._pool._procs[1].pid
            os.kill(frozen, signal.SIGSTOP)
            pool.arm_crash()
            start = time.monotonic()
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            serial_ping)
            elapsed = time.monotonic() - start
            assert outs == [[0], [1], [2]]
            assert pool.counts["deaths"] == 1
            assert pool.counts["hung"] == 0
            assert frozen not in [p.pid for p in pool._pool._procs]
        assert elapsed < JOIN_TIMEOUT / 2

    def test_crashed_worker_round_is_retried(self):
        with SupervisedPool(3, policy=FAST) as pool:
            pool.arm_crash()
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            serial_ping)
            assert outs == [[i] for i in range(3)]
            assert pool.counts["deaths"] == 1
            assert pool.counts["quarantined"] == 0
            assert pool.level == POOL


class TestQuarantine:
    def test_poisoned_chunk_retried_serially_in_parent(self):
        # The same chunk kills two workers -> quarantined, executed by
        # the parent; the other chunks still go through the pool and
        # the pool stays at its rung.
        with SupervisedPool(3, policy=FAST) as pool:
            pool.arm_crash(chunks=1, rounds=2)
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            serial_ping)
            assert outs == [[i] for i in range(3)]
            assert pool.counts["quarantined"] == 1
            assert pool.counts["serial_retries"] == 1
            assert pool.level == POOL
            assert pool.pending_faults() == 0


class TestParentShare:
    def test_pool_forks_one_process_fewer_than_its_width(self):
        with SupervisedPool(3, policy=FAST) as pool:
            assert pool.workers == 3
            assert pool._pool.processes == 2
            assert pool.health_report()["live_workers"] == 2
            with pytest.raises(ValueError, match="4 chunks"):
                pool.run("ping", {}, [{"items": [i]} for i in range(4)],
                         serial_ping)

    def test_marks_land_only_on_forked_chunks(self):
        seen = []

        def local(kind, common, payload):
            seen.append(payload)
            return serial_ping(kind, common, payload)

        with SupervisedPool(3, policy=FAST) as pool:
            pool.arm_crash(chunks=3)
            pool.arm_stall(chunks=3)
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            local)
            assert outs == [[0], [1], [2]]
            # the forked chunks crash their workers (a crash mark fires
            # before a stall mark); the parent's chunk carries no mark
            assert seen == [{"items": [0]}]
            assert pool.counts["deaths"] >= 1
            assert pool.counts["hung"] == 0
            assert pool.pending_faults() == 0

    def test_round_of_one_chunk_runs_in_parent_and_keeps_marks(self):
        with SupervisedPool(2, policy=FAST) as pool:
            pool.arm_crash()
            assert pool.run("ping", {}, [{"items": [7]}], serial_ping) == [[7]]
            stats = pool.transport_stats()
            assert (stats["rounds"], stats["chunks"]) == (1, 0)
            assert pool.pending_faults() == 1
            assert pool.counts["deaths"] == 0
            # the next round that forks work takes the mark
            outs = pool.run("ping", {}, [{"items": [0]}, {"items": [1]}],
                            serial_ping)
            assert outs == [[0], [1]]
            assert pool.pending_faults() == 0
            assert pool.counts["deaths"] == 1


class TestLadder:
    def test_demote_to_serial_and_promote_back(self):
        policy = SupervisorPolicy(heartbeat_interval=0.05, backoff_base=0.01,
                                  backoff_max=0.02, max_respawns=1,
                                  promote_after=2, poison_threshold=99)
        with SupervisedPool(3, policy=policy) as pool:
            # 2 failing rounds exhaust the respawn budget and demote to
            # serial (poison_threshold=99 keeps quarantine out of the
            # way so it is the *ladder* that degrades); the parent then
            # computes every chunk.
            pool.arm_crash(chunks=1, rounds=2)
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            serial_ping)
            assert outs == [[i] for i in range(3)]
            assert pool.level == SERIAL
            assert pool.counts["demotions"] == 1
            # the crashing chunk, and its sibling unless it came back
            # before a failure was noticed
            assert pool.counts["serial_retries"] in (1, 2)
            assert pool.pending_faults() == 0
            assert pool.health_report()["live_workers"] == 0

            # Healthy (serial) runs build the promotion streak; the
            # climb back goes through a ping of every forked worker.
            sent = pool.transport_stats()["chunks"]
            for _ in range(policy.promote_after):
                pool.run("ping", {}, [{"items": [0]}], serial_ping)
            assert pool.level == POOL
            assert pool.counts["probes"] == 1
            assert pool.counts["promotions"] == 1
            assert pool.transport_stats()["chunks"] == sent + 2
            walk = [(e.action, e.detail) for e in pool.events
                    if e.action in ("demote", "probe", "promote")]
            assert [action for action, _ in walk] == [
                "demote", "probe", "promote"]
            assert f"{POOL} -> {SERIAL}" in walk[0][1]
            assert f"{SERIAL} -> {POOL}" in walk[2][1]
            outs = pool.run("ping", {}, [{"items": [i]} for i in range(3)],
                            serial_ping)
            assert outs == [[i] for i in range(3)]
            assert pool.transport_stats()["chunks"] == sent + 4


# ----------------------------------------------------------------------
# Engine-level bit-identity under supervision
# ----------------------------------------------------------------------
@pytest.fixture
def er_graph():
    return gen.erdos_renyi(40, 90, seed=7)


class TestEngineSupervised:
    def test_crash_stall_quarantine_update_stays_bit_identical(self, er_graph):
        serial, par = build_pair(er_graph, 2)
        try:
            pool = par._ensure_pool()
            assert isinstance(pool, SupervisedPool)
            # Crash on round 1, SIGSTOP on the retry: two strikes
            # quarantine the chunk, so one update exercises death
            # detection, hung detection, respawn AND the in-parent
            # serial retry — and must still match serial exactly.
            pool.arm_crash()
            pool.arm_stall(rounds=2)
            u, v = _active_edge(par)
            rs = serial.insert_edge(u, v)
            rp = par.insert_edge(u, v)
            assert reports_identical(rs, rp)
            assert_states_equal(serial, par)
            assert pool.counts["deaths"] == 1
            assert pool.counts["hung"] == 1
            assert pool.counts["quarantined"] == 1
            assert pool.level == POOL
            hr = par.health_report()
            assert hr["level"] == POOL
            assert not hr["parallel_disabled"]
        finally:
            par.close()

    def test_injector_stall_guarded_replay_matches_serial(self, er_graph):
        serial, par = build_pair(er_graph, 2)
        try:
            injector = FaultInjector(0)
            injector.arm_update_stall(par)
            assert any("pool mode" in line for line in injector.log)
            stream = EdgeStream.churn(er_graph, 12, seed=5)
            policy = GuardPolicy(check_every=50, seed=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rp = replay(par, stream, guard=policy)
            rs = replay(serial, stream, guard=policy)
            # Supervision recovers *inside* the update: nothing rolls
            # back, nothing is skipped, every report matches.
            assert not rp.skipped and not rp.recovered
            assert len(rs.reports) == len(rp.reports)
            for x, y in zip(rs.reports, rp.reports):
                assert reports_identical(x, y)
            assert_states_equal(serial, par)
            # ...and the supervision activity is folded into the guard
            # log as health events.
            health = [e for e in rp.guard_events if e.action == HEALTH]
            assert any(e.kind == "hung-worker" for e in health)
            assert any(e.kind == "respawn" for e in health)
        finally:
            par.close()


def _active_edge(engine):
    from repro.bc.cases import Case, classify_insertions_batch

    n = engine.graph.snapshot().num_vertices
    for u in range(n):
        for v in range(u + 1, n):
            if engine.graph.has_edge(u, v):
                continue
            cases, _, _ = classify_insertions_batch(engine.state.d, u, v)
            # two active rows: one share for the parent, one forked
            if np.count_nonzero(cases != int(Case.SAME_LEVEL)) >= 2:
                return u, v
    raise AssertionError("no active insertion found")
