"""Result-slab transport: framing round-trips, spill/overflow, and
the parent/worker slab lifecycle (PR-8 tentpole)."""

import numpy as np
import pytest

from repro.gpu.counters import Step
from repro.parallel.shm import shm_available
from repro.parallel.slabs import (
    MAGIC,
    ResultSlabs,
    SlabEncodeError,
    SlabWriter,
    decode,
    encode,
    encode_into,
)


def roundtrip(obj):
    """Encode to private bytes and decode back (the spill path)."""
    return decode(encode(obj))


# ----------------------------------------------------------------------
# Framing round-trips
# ----------------------------------------------------------------------
class TestFraming:
    @pytest.mark.parametrize("obj", [
        None, True, False, 0, 1, -1, 2**62, -(2**62), 0.0, -3.25,
        float("inf"), "", "ascii", "unicode: κόμβος ↔ ακμή",
        b"", b"raw\x00bytes", [], (), [1, 2.5, "x", None],
        (1, (2, [3, b"4"]), "5"),
    ])
    def test_scalars_and_containers(self, obj):
        assert roundtrip(obj) == obj

    def test_nan_roundtrip(self):
        out = roundtrip(float("nan"))
        assert out != out  # NaN propagates bit-level through the frame

    def test_step_roundtrip(self):
        step = Step(work_items=7, cycles_per_item=1.5, bytes_moved=96.0,
                    atomic_ops=3, max_conflict=2, stage="sp_level")
        assert roundtrip(step) == step

    @pytest.mark.parametrize("arr", [
        np.arange(17, dtype=np.int64),
        np.arange(6, dtype=np.float64).reshape(2, 3),
        np.array([], dtype=np.int32),
        np.array([[True, False]], dtype=bool),
    ])
    def test_ndarray_roundtrip(self, arr):
        out = roundtrip(arr)
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_mixed_result_payload(self):
        # The shape an update chunk posts: a tuple of flat columns
        # (row ids, per-row seconds, a stage matrix, counters, a stats
        # matrix, CSR-packed bc adjustments), one frame per array.
        payload = (
            np.array([3, 5], dtype=np.int64),
            np.array([1.5e-6, 2.5e-6]),
            np.arange(18, dtype=np.float64).reshape(2, 9) * 1e-7,
            np.array([7, 9], dtype=np.int64),
            np.array([[4, 2, 3, 5], [1, 0, 2, 1]], dtype=np.int64),
            np.array([2, 0], dtype=np.int64),
            np.array([0, 5], dtype=np.int64),
            np.array([0.5, -0.5]),
        )
        out = roundtrip(payload)
        assert isinstance(out, tuple) and len(out) == len(payload)
        for got, want in zip(out, payload):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_zero_copy_views_track_buffer(self):
        buf = bytearray(encode(np.arange(8, dtype=np.int64)))
        view = decode(buf, copy=False)
        copied = decode(buf, copy=True)
        # Flip one payload byte: the view sees it, the copy does not.
        arr_byte = len(buf) - 1
        buf[arr_byte] ^= 0xFF
        assert view[-1] != 7
        assert copied[-1] == 7

    def test_encode_into_matches_encode(self):
        # Spill bytes and slab bytes must be byte-identical so one
        # decoder serves both paths (array padding is computed from
        # the buffer start in both).
        obj = ("trace", np.arange(5, dtype=np.float64), [1, None])
        private = encode(obj)
        buf = bytearray(4096)
        end = encode_into(obj, buf, 0, len(buf))
        assert bytes(buf[:end]) == private

    def test_encode_into_returns_none_when_full(self):
        buf = bytearray(32)
        assert encode_into(np.arange(64, dtype=np.int64), buf, 0, 32) is None

    def test_unencodable_types_raise(self):
        with pytest.raises(SlabEncodeError):
            encode({"dict": "unsupported"})
        with pytest.raises(SlabEncodeError):
            encode(np.array([object()], dtype=object))

    def test_bad_magic_rejected(self):
        blob = bytearray(encode(42))
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode(blob)

    def test_length_mismatch_rejected(self):
        blob = encode([1, 2, 3])
        with pytest.raises(ValueError, match="length mismatch"):
            decode(blob, length=len(blob) + 8)
        assert decode(blob, length=len(blob)) == [1, 2, 3]

    def test_magic_constant(self):
        assert MAGIC == 0x534C4142  # "SLAB"


# ----------------------------------------------------------------------
# ResultSlabs / SlabWriter lifecycle
# ----------------------------------------------------------------------
@pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
class TestResultSlabs:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResultSlabs(0)
        with pytest.raises(ValueError):
            ResultSlabs(2, slab_bytes=16)

    def test_write_read_roundtrip(self):
        with ResultSlabs(2, slab_bytes=65536) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=1)
            try:
                obj = (np.arange(32, dtype=np.float64), "chunk", 7)
                ref = writer.write(0, obj)
                assert ref is not None
                offset, length = ref
                out = slabs.read(1, offset, length)
                assert np.array_equal(out[0], obj[0])
                assert out[1:] == obj[1:]
            finally:
                writer.close()

    def test_cursor_advances_within_round_resets_on_new_round(self):
        with ResultSlabs(1, slab_bytes=65536) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=0)
            try:
                off_a, _ = writer.write(5, [1])
                off_b, _ = writer.write(5, [2])
                assert off_b > off_a  # bump within the round
                off_c, len_c = writer.write(6, [3])
                assert off_c == off_a  # new round resets the cursor
                assert slabs.read(0, off_c, len_c) == [3]
            finally:
                writer.close()

    def test_overflow_returns_none_for_spill(self):
        with ResultSlabs(1, slab_bytes=4096) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=0)
            try:
                big = np.zeros(4096, dtype=np.float64)  # 32 KiB > slab
                assert writer.write(0, big) is None
                # The slab remains usable for fitting results.
                assert writer.write(0, "small") is not None
            finally:
                writer.close()

    def test_unencodable_returns_none_for_raw_fallback(self):
        with ResultSlabs(1, slab_bytes=4096) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=0)
            try:
                assert writer.write(0, {"not": "framable"}) is None
            finally:
                writer.close()

    def test_read_bounds_checked(self):
        with ResultSlabs(1, slab_bytes=4096) as slabs:
            with pytest.raises(ValueError):
                slabs.read(1, 0, 8)  # worker out of range
            with pytest.raises(ValueError):
                slabs.read(0, 4090, 64)  # ref past the row end

    def test_rows_are_private_per_worker(self):
        with ResultSlabs(2, slab_bytes=4096) as slabs:
            w0 = SlabWriter(slabs.spec(), worker_id=0)
            w1 = SlabWriter(slabs.spec(), worker_id=1)
            try:
                r0 = w0.write(0, "worker-zero")
                r1 = w1.write(0, "worker-one")
                assert slabs.read(0, *r0) == "worker-zero"
                assert slabs.read(1, *r1) == "worker-one"
            finally:
                w0.close()
                w1.close()
