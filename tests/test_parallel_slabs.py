"""The channels' wire format: frame round-trips over a socket pair,
the prefix checks, and non-blocking ends that move a frame in pieces."""

import socket
import threading

import numpy as np
import pytest

from repro.gpu.counters import Step
from repro.parallel.worker import MAGIC, Channel, decode, encode


def roundtrip(obj):
    """Send *obj* as one frame over a socket pair and read it back."""
    a, b = socket.socketpair()
    with a, b:
        Channel(a).write(encode(obj))
        return decode(Channel(b).read())


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
        # The shape an update chunk returns: one tuple of flat columns
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
        # The parent owns what it decodes: zeroing the payload buffer
        # afterwards changes nothing.
        a, b = socket.socketpair()
        with a, b:
            Channel(a).write(encode(np.arange(8, dtype=np.int64)))
            payload = Channel(b).read()
        out = decode(payload)
        assert not np.shares_memory(out, np.frombuffer(payload, np.uint8))
        payload[:] = bytes(len(payload))
        assert np.array_equal(out, np.arange(8))

    def test_nonblocking_ends_move_a_frame_in_pieces(self):
        # A frame several socket buffers long, between two
        # non-blocking ends: the writer sends what the socket takes,
        # the reader returns None on every partial frame, and the
        # frame arrives whole.
        want = np.arange(1 << 17, dtype=np.int64)  # 1 MiB
        a, b = socket.socketpair()
        with a, b:
            a.setblocking(False)
            b.setblocking(False)
            writer, reader = Channel(a), Channel(b)
            writer.write(encode(want))
            assert writer.sending
            partial = 0
            payload = reader.read()
            while payload is None:
                partial += 1
                writer.flush()
                payload = reader.read()
            assert partial > 0 and not writer.sending
            assert np.array_equal(decode(payload), want)
            assert reader.read() is None  # nothing past the frame

    def test_unencodable_types_raise(self):
        # pickle decides what a result may hold; what it cannot carry
        # raises before a frame exists
        with pytest.raises(TypeError, match="pickle"):
            encode(threading.Lock())

    def test_bad_magic_rejected(self):
        blob = bytearray(encode(42))
        blob[0] ^= 0xFF
        a, b = socket.socketpair()
        with a, b:
            a.sendall(blob)
            with pytest.raises(ValueError, match="magic"):
                Channel(b).read()

    def test_length_mismatch_rejected(self):
        # A frame is read at exactly its announced length, so frames
        # sent back to back come apart; a peer that closes mid-frame
        # leaves a truncated frame, never a short result.
        a, b = socket.socketpair()
        with a, b:
            a.sendall(encode([1, 2, 3]) + encode("next")[:-1])
            a.shutdown(socket.SHUT_WR)
            reader = Channel(b)
            assert decode(reader.read()) == [1, 2, 3]
            with pytest.raises(EOFError, match="truncated"):
                reader.read()
        a, b = socket.socketpair()
        with a, b:
            a.sendall(encode(None)[:5])
            a.shutdown(socket.SHUT_WR)
            with pytest.raises(EOFError, match="truncated"):
                Channel(b).read()

    def test_magic_constant(self):
        assert MAGIC == 0x534C4142  # "SLAB"
