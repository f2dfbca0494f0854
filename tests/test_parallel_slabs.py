"""Result-slab transport: frame round-trips and prefix checks,
spill/overflow, and the parent/worker slab lifecycle."""

import threading

import numpy as np
import pytest

from repro.gpu.counters import Step
from repro.parallel.shm import shm_available
from repro.parallel.slabs import (
    MAGIC,
    ResultSlabs,
    SlabWriter,
    decode,
    encode,
)


def roundtrip(obj):
    """Frame to private bytes and decode back (the spill path)."""
    return decode(encode(obj))


# ----------------------------------------------------------------------
# Frame round-trips: every result shape a task returns
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
        assert out != out  # NaN crosses the frame

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
        # The shape an update chunk posts: one tuple of flat columns
        # (row ids, per-row seconds, a stage matrix, counters, a stats
        # matrix, CSR-packed write-sets).
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

    def test_decoded_arrays_own_their_memory(self):
        # The parent owns what it decodes: zeroing the frame's bytes
        # afterwards (a worker reusing its slab row) changes nothing.
        buf = bytearray(encode(np.arange(8, dtype=np.int64)))
        out = decode(buf)
        assert not np.shares_memory(out, np.frombuffer(buf, np.uint8))
        buf[12:] = bytes(len(buf) - 12)
        assert np.array_equal(out, np.arange(8))

    def test_encode_into_matches_encode(self):
        # Spill bytes and slab bytes are one frame, so one decoder
        # serves both paths: the private bytes staged mid-buffer (a
        # slab row at the writer's cursor, which is not padded to any
        # alignment) decode exactly as they do on their own.
        obj = ("trace", np.arange(5, dtype=np.float64), [1, None])
        private = encode(obj)
        assert encode(obj) == private
        buf = bytearray(4096)
        start = 13
        buf[start:start + len(private)] = private
        for got in (decode(buf, start, len(private)), decode(private)):
            assert got[0] == obj[0]
            assert got[1].dtype == obj[1].dtype
            assert np.array_equal(got[1], obj[1])
            assert got[2] == obj[2]

    @pytest.mark.skipif(not shm_available(), reason="POSIX shm unavailable")
    def test_encode_into_returns_none_when_full(self):
        # A frame the rest of the row cannot hold is refused whole:
        # write returns None (the caller spills) and not one byte of
        # it lands past the frames already staged.
        with ResultSlabs(1, slab_bytes=4096) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=0)
            try:
                small = encode("staged")
                assert writer.write(0, small) == (0, len(small))
                big = encode(np.arange(1024, dtype=np.int64))  # 8 KiB
                assert writer.write(0, big) is None
                row = slabs._arena.get("result_slab")[0]
                assert row[:len(small)].tobytes() == small
                assert not row[len(small):].any()
            finally:
                writer.close()

    def test_unencodable_types_raise(self):
        # pickle decides what a result may hold; what it cannot carry
        # raises before a frame exists
        with pytest.raises(TypeError, match="pickle"):
            encode(threading.Lock())

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
        with pytest.raises(ValueError, match="truncated"):
            decode(blob[:-1])

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
                frame = encode(obj)
                ref = writer.write(0, frame)
                assert ref is not None
                offset, length = ref
                # one frame for both paths: the slab holds exactly the
                # bytes a spill would carry
                row = slabs._arena.get("result_slab")[1]
                assert row[offset:offset + length].tobytes() == frame
                out = slabs.read(1, offset, length)
                assert np.array_equal(out[0], obj[0])
                assert out[1:] == obj[1:]
                # the parent owns its results: the next round's write
                # over the same bytes leaves them intact
                assert writer.write(1, encode(np.zeros(32)))[0] == offset
                assert np.array_equal(out[0], obj[0])
            finally:
                writer.close()

    def test_cursor_advances_within_round_resets_on_new_round(self):
        with ResultSlabs(1, slab_bytes=65536) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=0)
            try:
                off_a, _ = writer.write(5, encode([1]))
                off_b, _ = writer.write(5, encode([2]))
                assert off_b > off_a  # bump within the round
                off_c, len_c = writer.write(6, encode([3]))
                assert off_c == off_a  # new round resets the cursor
                assert slabs.read(0, off_c, len_c) == [3]
            finally:
                writer.close()

    def test_overflow_returns_none_for_spill(self):
        with ResultSlabs(1, slab_bytes=4096) as slabs:
            writer = SlabWriter(slabs.spec(), worker_id=0)
            try:
                big = np.zeros(4096, dtype=np.float64)  # 32 KiB > slab
                assert writer.write(0, encode(big)) is None
                # The slab remains usable for fitting results, up to
                # its last byte and not one past it.
                small = encode("small")
                assert writer.write(0, small) == (0, len(small))
                rest = 4096 - len(small)
                assert writer.write(0, bytes(rest + 1)) is None
                assert writer.write(0, bytes(rest)) == (len(small), rest)
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
                r0 = w0.write(0, encode("worker-zero"))
                r1 = w1.write(0, encode("worker-one"))
                assert slabs.read(0, *r0) == "worker-zero"
                assert slabs.read(1, *r1) == "worker-one"
            finally:
                w0.close()
                w1.close()
