"""Unit tests for the parallel substrate: the round split, the
shared-memory arena, the worker pool (its rounds driven through
:class:`SupervisedPool`, the one collect loop), and the deterministic
reducer.

The end-to-end bit-identity claims live in tests/test_parallel.py;
this module pins the contracts of each layer in isolation.
"""

import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bc.engine import split_round
from repro.parallel import (
    ResultSlabs,
    ShmArena,
    ShmAttachment,
    SlabWriter,
    SupervisedPool,
    WorkerPool,
    WorkerTaskError,
    merge_indexed,
    rebuild_trace,
    shm_available,
)
from repro.parallel import worker as _worker
from repro.gpu.counters import Step


# ----------------------------------------------------------------------
# split_round
# ----------------------------------------------------------------------
class TestPlanChunks:
    def test_concat_preserves_items_and_order(self):
        items = list(range(23))
        for workers in range(1, 30):
            chunks = split_round(items, workers)
            assert [x for c in chunks for x in c] == items
            # at most one non-empty chunk per worker, sizes within one
            assert len(chunks) == min(workers, len(items))
            assert all(c for c in chunks)
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_chunks(self):
        chunks = split_round([7, 8], 4)
        assert chunks == [[7], [8]]

    def test_empty_items(self):
        assert split_round([], 4) == []


# ----------------------------------------------------------------------
# ShmArena / ShmAttachment
# ----------------------------------------------------------------------
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestArena:
    def test_allocate_roundtrip_and_generation(self):
        arena = ShmArena()
        try:
            gen0 = arena.generation
            d = arena.allocate("d", (3, 5), np.int64)
            assert arena.generation == gen0 + 1
            d[...] = np.arange(15).reshape(3, 5)
            assert np.array_equal(arena.get("d"), d)
            assert arena.owns("d", d)
            assert not arena.owns("d", d.copy())
            assert "d" in arena

            # Attach through the spec and verify both directions.
            att = ShmAttachment(arena.spec())
            assert att.generation == arena.generation
            assert np.array_equal(att.arrays["d"], d)
            att.arrays["d"][0, 0] = 99
            assert d[0, 0] == 99
            att.close()
        finally:
            arena.close()

    def test_reallocate_bumps_generation_and_replaces(self):
        arena = ShmArena()
        try:
            arena.allocate("col", (4,), np.int32)
            g1 = arena.generation
            bigger = arena.allocate("col", (16,), np.int32)
            assert arena.generation > g1
            assert bigger.shape == (16,)
            assert arena.spec()["fields"]["col"][1] == (16,)
        finally:
            arena.close()

    def test_close_is_idempotent(self):
        arena = ShmArena()
        arena.allocate("x", (2,), np.float64)
        arena.close()
        arena.close()
        assert "x" not in arena


# ----------------------------------------------------------------------
# Leak guard: abnormal parent exit must reclaim /dev/shm segments
# ----------------------------------------------------------------------
_LEAK_CHILD = """
import os, sys, signal
import numpy as np
from repro.parallel.shm import ShmArena

arena = ShmArena()
arena.allocate("d", (64, 64), np.int64)
arena.allocate("sigma", (64, 64), np.float64)
print("\\n".join(arena.block_names()), flush=True)
mode = sys.argv[1]
if mode == "exception":
    raise RuntimeError("simulated parent crash")
elif mode == "sigterm":
    os.kill(os.getpid(), signal.SIGTERM)
    signal.pause()
"""


@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestLeakGuard:
    @pytest.mark.parametrize("mode", ["exception", "sigterm"])
    def test_segments_reclaimed_after_abnormal_exit(self, mode):
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _LEAK_CHILD, mode],
            capture_output=True, text=True, timeout=60, env=env,
        )
        names = [n for n in proc.stdout.splitlines() if n.strip()]
        assert len(names) == 2, (proc.stdout, proc.stderr)
        assert proc.returncode != 0  # it really died abnormally
        for name in names:
            path = os.path.join("/dev/shm", name.lstrip("/"))
            assert not os.path.exists(path), (
                f"leaked shared-memory segment {path} ({mode})"
            )

    def test_fork_child_does_not_unlink_parents_segments(self):
        # A forked child inherits the guard's module state; its exit
        # must not tear the parent's live segments down (pid check).
        arena = ShmArena()
        try:
            arena.allocate("d", (8,), np.int64)
            pid = os.fork()
            if pid == 0:  # child: run atexit-equivalent path and leave
                try:
                    from repro.parallel import shm as shm_mod

                    shm_mod._unlink_live_arenas()
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            name = arena.block_names()[0]
            path = os.path.join("/dev/shm", name.lstrip("/"))
            assert os.path.exists(path)
            assert np.array_equal(arena.get("d"), arena.get("d"))
        finally:
            arena.close()


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestWorkerPool:
    def test_ping_returns_chunks_in_payload_order(self):
        with SupervisedPool(2) as pool:
            payloads = [{"items": [i, i + 1]} for i in range(0, 10, 2)]
            outs = pool.run("ping", {}, payloads)
            assert outs == [[i, i + 1] for i in range(0, 10, 2)]

    def test_task_error_carries_remote_traceback(self):
        with SupervisedPool(2) as pool:
            with pytest.raises(WorkerTaskError) as info:
                pool.run("no-such-kind", {}, [{"items": []}])
            assert "KeyError" in str(info.value)
            # The pool respawned: the next round must still work.
            assert pool.run("ping", {}, [{"items": [1]}]) == [[1]]

    def test_unencodable_result_raises_task_error(self, monkeypatch):
        # A result pickle cannot carry raises in post_result before
        # anything is queued or staged...
        posted = []
        with ResultSlabs(1) as result_slabs:
            writer = SlabWriter(result_slabs.spec(), worker_id=0)
            try:
                with pytest.raises(TypeError, match="pickle"):
                    _worker.post_result(SimpleNamespace(put=posted.append),
                                        writer, 1, 0, threading.Lock())
                assert writer.write(1, b"x") == (0, 1)
            finally:
                writer.close()
        assert posted == []
        # ...and in a worker it is the task's error (the forked workers
        # inherit the patched handler table).
        monkeypatch.setitem(_worker._HANDLERS, "lock",
                            lambda attachment, common, payload:
                            threading.Lock())
        with SupervisedPool(2) as pool:
            with pytest.raises(WorkerTaskError, match="cannot pickle"):
                pool.run("lock", {}, [{"items": []}])
            assert pool.run("ping", {}, [{"items": [1]}]) == [[1]]

    def test_close_idempotent_and_rejects_tiny_pool(self):
        pool = WorkerPool(2)
        pool.close()
        pool.close()
        with pytest.raises(ValueError):
            WorkerPool(1)

    def test_empty_round_short_circuits(self):
        with SupervisedPool(2) as pool:
            assert pool.run("ping", {}, []) == []
            assert pool.transport_stats()["rounds"] == 0


# ----------------------------------------------------------------------
# Teardown escalation (join -> terminate -> kill), no zombies
# ----------------------------------------------------------------------
def _assert_reaped(pid):
    """The process must be gone or at least not a zombie (a zombie
    means close() skipped the final join)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return
    assert state != "Z", f"pid {pid} left as a zombie"


@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestTeardown:
    def test_join_timeout_is_configurable_and_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(2, join_timeout=0.0)
        with pytest.raises(ValueError):
            WorkerPool(2, join_timeout=-1.0)
        pool = WorkerPool(2, join_timeout=0.5)
        assert pool.join_timeout == 0.5
        pool.close()

    def test_close_escalates_to_sigkill_for_stopped_workers(self):
        import os
        import signal
        import time

        # SIGSTOPped workers ignore the sentinel and SIGTERM alike;
        # close() must walk the whole escalation and still reap them.
        pool = WorkerPool(2, join_timeout=0.3)
        pids = [p.pid for p in pool._procs]
        for pid in pids:
            os.kill(pid, signal.SIGSTOP)
        start = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - start
        for pid in pids:
            _assert_reaped(pid)
        # Bounded: one graceful deadline + one terminate deadline,
        # plus slack — never the historical infinite join.
        assert elapsed < 10.0

    def test_kill_worker_reaps_and_respawn_restores_service(self):
        with SupervisedPool(2, join_timeout=0.5) as pool:
            raw = pool._pool
            victim = raw._procs[0].pid
            raw.kill_worker(0)
            _assert_reaped(victim)
            raw.respawn()
            assert pool.run("ping", {}, [{"items": [5]}]) == [[5]]

    def test_sigkilled_run_leaves_no_zombies(self):
        import os
        import signal

        with SupervisedPool(2, join_timeout=0.5) as pool:
            pids = [p.pid for p in pool._pool._procs]
            os.kill(pids[0], signal.SIGKILL)
            # The survivor may drain every chunk before the death is
            # noticed, or the supervisor may fail the round, respawn
            # and retry it — either way the round completes and
            # close() must reap everything.
            outs = pool.run("ping", {}, [{"items": [0]}, {"items": [1]}])
            assert outs == [[0], [1]]
            pids += [p.pid for p in pool._pool._procs]
        for pid in pids:
            _assert_reaped(pid)


# ----------------------------------------------------------------------
# Reducer
# ----------------------------------------------------------------------
class TestReducer:
    def test_merge_indexed_flattens_by_index(self):
        """Chunk column tuples concatenate column by column, in chunk
        (= ascending index) order."""
        outs = [
            (np.array([0, 1]), np.array([0.5, 1.5]), np.array([7])),
            (np.array([4]), np.array([4.5]), np.array([8, 9])),
        ]
        rows, values, extra = merge_indexed(outs, [0, 1, 4])
        assert rows.tolist() == [0, 1, 4]
        assert values.tolist() == [0.5, 1.5, 4.5]
        assert extra.tolist() == [7, 8, 9]

    def test_merge_indexed_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            merge_indexed([(np.array([0]),), (np.array([0]),)], [0])

    def test_merge_indexed_rejects_gaps(self):
        with pytest.raises(ValueError):
            merge_indexed([(np.array([0]),)], [0, 1])
        with pytest.raises(ValueError):  # out of order is a gap too
            merge_indexed([(np.array([1]),), (np.array([0]),)], [0, 1])

    def test_rebuild_trace_round_trips_steps(self):
        steps = [Step(4, 2.0, 64.0, 1, 2, "sp"), Step(2, 1.0, 16.0)]
        trace = rebuild_trace("insert:3", steps)
        assert trace.label == "insert:3"
        assert trace.steps == steps
