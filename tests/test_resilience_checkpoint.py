"""Checkpoint/restore: versioned checksummed NPZ round-trips on every
backend, atomic writes, corruption/version-mismatch rejection, and the
headline guarantee — a resumed replay is bit-identical to an
uninterrupted one."""

import os

import numpy as np
import pytest

from repro.bc.engine import BACKENDS, DynamicBC
from repro.graph.stream import EdgeStream, replay
from repro.resilience import (
    CHECKPOINT_VERSION,
    CheckpointError,
    FaultInjector,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.chaos import reports_identical
from repro.resilience.checkpoint import _digest, _payload


def make_engine(graph, backend="cpu"):
    eng = DynamicBC.from_graph(graph, num_sources=6, seed=2, backend=backend)
    eng.insert_edge(0, 9)  # give the counters something to remember
    return eng


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_trip_all_backends(self, karate, tmp_path, backend):
        eng = make_engine(karate, backend)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=4, simulated_prefix=1.25,
                        applied_count=3)
        ckpt = load_checkpoint(path)
        assert ckpt.version == CHECKPOINT_VERSION
        assert ckpt.backend == backend
        assert ckpt.event_index == 4
        assert ckpt.simulated_prefix == 1.25
        assert ckpt.applied_count == 3
        restored = ckpt.restore_engine()
        assert restored.backend == backend
        assert np.array_equal(restored.bc_scores, eng.bc_scores)
        assert np.array_equal(restored.state.d, eng.state.d)
        assert np.array_equal(restored.state.sigma, eng.state.sigma)
        assert np.array_equal(restored.state.delta, eng.state.delta)
        assert np.array_equal(restored.state.sources, eng.state.sources)
        assert restored.counters == eng.counters
        assert np.array_equal(
            restored.graph.snapshot().edge_list(),
            eng.graph.snapshot().edge_list(),
        )
        restored.verify()

    def test_restore_into_existing_engine(self, karate, tmp_path):
        eng = make_engine(karate)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=0, simulated_prefix=0.0,
                        applied_count=0)
        other = DynamicBC.from_graph(karate, num_sources=6, seed=2)
        other.insert_edge(2, 19)  # diverge, then restore back
        load_checkpoint(path).restore_into(other)
        assert np.array_equal(other.bc_scores, eng.bc_scores)
        assert other.counters == eng.counters
        other.verify()

    def test_restored_engine_continues_identically(self, karate, tmp_path):
        eng = make_engine(karate)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=0, simulated_prefix=0.0,
                        applied_count=0)
        twin = load_checkpoint(path).restore_engine()
        assert reports_identical(eng.insert_edge(3, 20), twin.insert_edge(3, 20))
        assert np.array_equal(eng.bc_scores, twin.bc_scores)


class TestAtomicityAndValidation:
    def test_no_tmp_file_left_behind(self, karate, tmp_path):
        eng = make_engine(karate)
        save_checkpoint(eng, str(tmp_path / "ckpt.npz"), event_index=0,
                        simulated_prefix=0.0, applied_count=0)
        leftovers = [f for f in os.listdir(tmp_path) if f != "ckpt.npz"]
        assert leftovers == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(str(tmp_path / "nope.npz"))

    def test_corrupted_file_rejected(self, karate, tmp_path):
        eng = make_engine(karate)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=0, simulated_prefix=0.0,
                        applied_count=0)
        FaultInjector(0).corrupt_file(path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, karate, tmp_path):
        eng = make_engine(karate)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=0, simulated_prefix=0.0,
                        applied_count=0)
        # Rewrite with a bumped version and a *valid* checksum so the
        # version check itself (not the checksum) is what trips.
        data = dict(np.load(path, allow_pickle=False))
        data["version"] = np.asarray(CHECKPOINT_VERSION + 1, dtype=np.int64)
        data["checksum"] = np.array(_digest(data))  # as save_checkpoint does
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_checksum_covers_every_array(self, karate, tmp_path):
        eng = make_engine(karate)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=0, simulated_prefix=0.0,
                        applied_count=0)
        data = dict(np.load(path, allow_pickle=False))
        data["bc"] = data["bc"] + 1.0  # tamper without touching checksum
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_unsorted_graph_rows_rejected_on_restore(self, karate,
                                                     tmp_path):
        """A checkpoint whose graph rows are out of order, under a valid
        checksum, loads but cannot be restored."""
        eng = make_engine(karate)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(eng, path, event_index=0, simulated_prefix=0.0,
                        applied_count=0)
        data = dict(np.load(path, allow_pickle=False))
        data["col_indices"][[0, 1]] = data["col_indices"][[1, 0]]
        data["checksum"] = np.array(_digest(data))
        np.savez(path, **data)
        ckpt = load_checkpoint(path)
        with pytest.raises(ValueError, match="row 0"):
            ckpt.restore_engine()
        with pytest.raises(ValueError, match="row 0"):
            ckpt.restore_into(make_engine(karate))

    def test_digest_is_deterministic(self, karate):
        eng = make_engine(karate)
        p1 = _payload(eng, 1, 0.5, 1)
        p2 = _payload(eng, 1, 0.5, 1)
        assert _digest(p1) == _digest(p2)


class TestResumeEquivalence:
    @pytest.mark.parametrize("backend", ["cpu", "gpu-edge"])
    def test_resume_bit_identical(self, karate, tmp_path, backend):
        stream = EdgeStream.churn(karate, 12, delete_fraction=0.3, seed=7)

        def fresh():
            return DynamicBC.from_graph(karate, num_sources=6, seed=2,
                                        backend=backend)

        full_eng = fresh()
        full = replay(full_eng, stream)

        ckpt_eng = fresh()
        res = replay(ckpt_eng, stream, checkpoint_every=4,
                     checkpoint_dir=str(tmp_path))
        assert len(res.checkpoints) == 3

        resumed_eng = fresh()
        resumed = replay(resumed_eng, stream, resume_from=res.checkpoints[0])
        assert resumed.resumed_from == res.checkpoints[0]
        assert resumed.start_index == 4

        tail = full.reports[len(full.reports) - len(resumed.reports):]
        assert len(tail) == len(resumed.reports)
        for a, b in zip(tail, resumed.reports):
            assert reports_identical(a, b)
        assert np.array_equal(full_eng.bc_scores, resumed_eng.bc_scores)
        assert full_eng.counters == resumed_eng.counters
        assert full.simulated_seconds == resumed.simulated_seconds
        resumed_eng.verify()

    def test_checkpoint_replay_matches_plain_replay(self, karate, tmp_path):
        stream = EdgeStream.poisson_growth(karate, 8, seed=5)
        a = DynamicBC.from_graph(karate, num_sources=6, seed=2)
        b = DynamicBC.from_graph(karate, num_sources=6, seed=2)
        plain = replay(a, stream)
        ckpt = replay(b, stream, checkpoint_every=3,
                      checkpoint_dir=str(tmp_path))
        assert len(plain.reports) == len(ckpt.reports)
        for x, y in zip(plain.reports, ckpt.reports):
            assert reports_identical(x, y)
        assert np.array_equal(a.bc_scores, b.bc_scores)

    def test_replay_argument_validation(self, karate, tmp_path):
        eng = DynamicBC.from_graph(karate, num_sources=6, seed=2)
        stream = EdgeStream.poisson_growth(karate, 3, seed=5)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            replay(eng, stream, checkpoint_every=2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            replay(eng, stream, checkpoint_every=0,
                   checkpoint_dir=str(tmp_path))
