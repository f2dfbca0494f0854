"""Zero-copy result transport: shared-memory result slabs.

The original result path shipped every worker result — step lists,
sparse bc probes, stats — through the multiprocessing result queue,
which pickles the whole payload, copies it through a pipe, and
unpickles it in the parent.  At k=256 sources that is megabytes per
round, and `BENCH_parallel.json` showed the dispatch economics flat
because of it.

This module replaces the payload channel with preallocated per-worker
**result slabs**: one shared-memory block of ``workers`` rows, each
``slab_bytes`` long, owned by the parent (:class:`ResultSlabs`).  A
worker serializes its chunk result *directly into its own slab row*
with a compact binary framing (:func:`encode_into`) and posts only a
``(worker, offset, length)`` header on the queue; the parent decodes
by reading the shared bytes in place (:func:`decode`), mapping numpy
payloads as zero-copy views.

Framing
-------
Little-endian, tag-prefixed, recursive::

    'N'                         None
    'T' / 'F'                   True / False
    'i' <q>                     int (signed 64-bit)
    'f' <d>                     float
    'u' <I len> utf8            str
    'b' <I len> raw             bytes
    'l' <I count> items...      list
    't' <I count> items...      tuple
    'S' <q d d q q> str         gpu.counters.Step
    'U' <q q q q>               bc.update_core.UpdateStats
    'C' <d q q d q> <I count> (str <d>)*
                                gpu.counters.CostSummary
    'a' <B dlen> dtype <B ndim> <q dims...> pad8 raw
                                numpy ndarray (C-contiguous payload,
                                8-byte aligned for zero-copy views)

Every frame is prefixed with ``MAGIC`` (u32) + payload length (u64) so
a torn or stale header can never be silently misread.

Slab write protocol
-------------------
Workers bump-allocate within a *round*: the first task of a new round
resets the worker's write offset to zero.  That is safe because the
round protocol is strictly phased — the parent decodes every message
as it arrives and never dispatches round N+1 before round N's results
are folded, so all round-N bytes are dead by the time any round-N+1
task can reset the cursor.  A result that does not fit in the
remaining slab space **spills**: the worker encodes to private bytes
and ships them through the queue (``ok-enc``) — same framing, no
pickle of numpy payloads, just the legacy copy cost for that one
oversized chunk.  Spills are counted so the benchmarks can see them.

Lifecycle: :class:`ResultSlabs` owns its block through a private
:class:`~repro.parallel.shm.ShmArena` and must be released with
:meth:`ResultSlabs.close` (linter rule R003 enforces the pairing
lexically, exactly as for bare arenas).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.bc.update_core import UpdateStats
from repro.gpu.counters import CostSummary, Step
from repro.parallel.shm import ShmArena, ShmAttachment

#: frame prefix: magic + u64 payload length
MAGIC = 0x534C4142  # "SLAB"
_PREFIX = struct.Struct("<IQ")

#: default per-worker slab capacity; large enough that the kron-scale
#: bench rounds never spill, small enough that even an 8-worker pool
#: keeps /dev/shm usage in the tens of megabytes
DEFAULT_SLAB_BYTES = 8 * 1024 * 1024

#: approximate pickled size of a header-only queue message — used for
#: the bytes-moved accounting of slab messages (the header tuple is
#: ~70 bytes on the wire; the exact figure does not matter, only that
#: it is orders of magnitude below the payloads it replaces)
HEADER_BYTES = 72

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_STEP = struct.Struct("<qddqq")
_STATS = struct.Struct("<qqqq")
_COST = struct.Struct("<dqqdq")


class SlabEncodeError(TypeError):
    """The object graph contains a type the framing cannot carry; the
    caller falls back to the raw-object queue path."""


class _NoFit(Exception):
    """Internal: the encoding ran out of slab space (triggers spill)."""


def _pad8(offset: int) -> int:
    return (offset + 7) & ~7


class _Encoder:
    """Encode into a bounded writable buffer (memoryview or bytearray
    slice); raises :class:`_NoFit` on exhaustion so slab writers can
    fall back to the spill path without partial-frame hazards."""

    def __init__(self, buf, start: int, limit: int) -> None:
        self.buf = buf
        self.pos = start
        self.limit = limit

    def _need(self, nbytes: int) -> int:
        pos = self.pos
        if pos + nbytes > self.limit:
            raise _NoFit()
        self.pos = pos + nbytes
        return pos

    def _pack(self, st: struct.Struct, *values) -> None:
        st.pack_into(self.buf, self._need(st.size), *values)

    def _tag(self, tag: bytes) -> None:
        self.buf[self._need(1)] = tag[0]

    def encode(self, obj) -> None:
        if obj is None:
            self._tag(b"N")
        elif obj is True:
            self._tag(b"T")
        elif obj is False:
            self._tag(b"F")
        elif isinstance(obj, Step):
            self._tag(b"S")
            self._pack(_STEP, obj.work_items, obj.cycles_per_item,
                       obj.bytes_moved, obj.atomic_ops, obj.max_conflict)
            self._str(obj.stage)
        elif isinstance(obj, UpdateStats):
            self._tag(b"U")
            self._pack(_STATS, obj.touched, obj.moved, obj.sp_levels,
                       obj.dep_levels)
        elif isinstance(obj, CostSummary):
            self._tag(b"C")
            self._pack(_COST, obj.seconds, obj.steps, obj.work_items,
                       obj.bytes_moved, obj.atomic_ops)
            self._pack(_U32, len(obj.stages))
            for stage, seconds in obj.stages.items():
                self._str(stage)
                self._pack(_F64, seconds)
        elif isinstance(obj, (int, np.integer)):
            self._tag(b"i")
            try:
                self._pack(_I64, int(obj))
            except struct.error:
                raise SlabEncodeError(f"int out of 64-bit range: {obj!r}")
        elif isinstance(obj, (float, np.floating)):
            self._tag(b"f")
            self._pack(_F64, float(obj))
        elif isinstance(obj, str):
            self._tag(b"u")
            self._str(obj)
        elif isinstance(obj, bytes):
            self._tag(b"b")
            raw = obj
            self._pack(_U32, len(raw))
            self.buf[self._need(len(raw)):self.pos] = raw
        elif isinstance(obj, np.ndarray):
            self._array(obj)
        elif isinstance(obj, (list, tuple)):
            self._tag(b"l" if isinstance(obj, list) else b"t")
            self._pack(_U32, len(obj))
            for item in obj:
                self.encode(item)
        else:
            raise SlabEncodeError(
                f"type {type(obj).__name__} not supported by slab framing"
            )

    def _str(self, text: str) -> None:
        raw = text.encode("utf-8")
        self._pack(_U32, len(raw))
        self.buf[self._need(len(raw)):self.pos] = raw

    def _array(self, arr: np.ndarray) -> None:
        if arr.dtype == object:
            raise SlabEncodeError("object arrays not supported")
        arr = np.ascontiguousarray(arr)
        self._tag(b"a")
        dstr = arr.dtype.str.encode("ascii")
        if len(dstr) > 255 or arr.ndim > 255:
            raise SlabEncodeError("dtype/ndim out of framing range")
        self.buf[self._need(1)] = len(dstr)
        self.buf[self._need(len(dstr)):self.pos] = dstr
        self.buf[self._need(1)] = arr.ndim
        for dim in arr.shape:
            self._pack(_I64, dim)
        # Pad so the raw payload is 8-byte aligned relative to the
        # buffer start: decode() can then map it as a zero-copy view.
        pad = _pad8(self.pos) - self.pos
        if pad:
            self._need(pad)
        # memoryview, not the ndarray itself: bytearray slice
        # assignment accepts buffers only through a memoryview.
        raw = memoryview(arr.reshape(-1).view(np.uint8))
        dst = self._need(raw.nbytes)
        self.buf[dst:self.pos] = raw


class _Decoder:
    """Decode a frame from a readable buffer; ``copy=False`` maps numpy
    payloads as views over the underlying (shared) memory."""

    def __init__(self, buf, pos: int, end: int, copy: bool) -> None:
        self.buf = buf
        self.pos = pos
        self.end = end
        self.copy = copy

    def _take(self, nbytes: int) -> int:
        pos = self.pos
        if pos + nbytes > self.end:
            raise ValueError("truncated slab frame")
        self.pos = pos + nbytes
        return pos

    def _unpack(self, st: struct.Struct):
        return st.unpack_from(self.buf, self._take(st.size))

    def decode(self):
        tag = self.buf[self._take(1)]
        if tag == ord("N"):
            return None
        if tag == ord("T"):
            return True
        if tag == ord("F"):
            return False
        if tag == ord("i"):
            return self._unpack(_I64)[0]
        if tag == ord("f"):
            return self._unpack(_F64)[0]
        if tag == ord("u"):
            return bytes(self._bytes()).decode("utf-8")
        if tag == ord("b"):
            return bytes(self._bytes())
        if tag == ord("S"):
            fields = self._unpack(_STEP)
            stage = bytes(self._bytes()).decode("utf-8")
            return Step(fields[0], fields[1], fields[2], fields[3],
                        fields[4], stage)
        if tag == ord("U"):
            return UpdateStats(*self._unpack(_STATS))
        if tag == ord("C"):
            seconds, steps, items, moved, atomics = self._unpack(_COST)
            stages = {}
            for _ in range(self._unpack(_U32)[0]):
                stage = bytes(self._bytes()).decode("utf-8")
                stages[stage] = self._unpack(_F64)[0]
            return CostSummary(seconds, stages, steps, items, moved, atomics)
        if tag in (ord("l"), ord("t")):
            count = self._unpack(_U32)[0]
            items = [self.decode() for _ in range(count)]
            return items if tag == ord("l") else tuple(items)
        if tag == ord("a"):
            return self._array()
        raise ValueError(f"unknown slab frame tag {tag!r}")

    def _bytes(self):
        (length,) = self._unpack(_U32)
        start = self._take(length)
        return self.buf[start:self.pos]

    def _array(self) -> np.ndarray:
        dlen = self.buf[self._take(1)]
        dstart = self._take(dlen)
        dtype = np.dtype(bytes(self.buf[dstart:self.pos]).decode("ascii"))
        ndim = self.buf[self._take(1)]
        shape = tuple(self._unpack(_I64)[0] for _ in range(ndim))
        self.pos = _pad8(self.pos)
        count = int(np.prod(shape)) if shape else 1
        start = self._take(count * dtype.itemsize)
        view = np.frombuffer(self.buf, dtype=dtype, count=count,
                             offset=start).reshape(shape)
        return view.copy() if self.copy else view


def encode(obj) -> bytes:
    """Encode *obj* to a framed private byte string (the spill path —
    and the ``result_transport="queue"`` baseline, where the same
    framing rides the queue so byte accounting is apples-to-apples)."""
    # Worst-case growth is bounded: start at 64 KiB and double until
    # it fits.  Encoding goes through encode_into so the byte layout
    # (array padding is relative to the buffer start) is identical to
    # the slab path.
    size = 64 * 1024
    while True:
        buf = bytearray(size)
        end = encode_into(obj, buf, 0, size)
        if end is None:
            size *= 2
            continue
        return bytes(buf[:end])


def encode_into(obj, buf, start: int, limit: int) -> Optional[int]:
    """Encode *obj* framed into ``buf[start:limit]``; returns the end
    offset, or ``None`` when it does not fit (caller spills)."""
    enc = _Encoder(buf, start + _PREFIX.size, limit)
    try:
        enc.encode(obj)
    except _NoFit:
        return None
    _PREFIX.pack_into(buf, start, MAGIC, enc.pos - start - _PREFIX.size)
    return enc.pos


def decode(buf, offset: int = 0, length: Optional[int] = None,
           copy: bool = False):
    """Decode one framed object from *buf* at *offset*.

    ``copy=False`` returns numpy payloads as zero-copy views over
    *buf* — valid until the producing worker's next round resets its
    slab cursor, so fold them before dispatching more work (the engine
    does).  ``copy=True`` detaches them.
    """
    magic, payload = _PREFIX.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ValueError(f"bad slab frame magic {magic:#x} at {offset}")
    if length is not None and payload + _PREFIX.size != length:
        raise ValueError(
            f"slab frame length mismatch: header {payload}, told {length}"
        )
    dec = _Decoder(buf, offset + _PREFIX.size,
                   offset + _PREFIX.size + payload, copy)
    return dec.decode()


class ResultSlabs:
    """Parent-side owner of the per-worker result slab block.

    One shared block of shape ``(workers, slab_bytes)``; row *j* is
    worker *j*'s private bump-allocated scratch.  Pass :meth:`spec` to
    workers at spawn; read results back with :meth:`read`.  Must be
    paired with :meth:`close` (R003).
    """

    def __init__(self, workers: int, slab_bytes: int = DEFAULT_SLAB_BYTES):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if slab_bytes < 4096:
            raise ValueError(f"slab_bytes must be >= 4096, got {slab_bytes}")
        self.workers = int(workers)
        self.slab_bytes = int(slab_bytes)
        self._arena = ShmArena()
        self._arena.allocate("result_slab", (self.workers, self.slab_bytes),
                             np.uint8)

    def spec(self) -> dict:
        """Picklable attach recipe handed to each worker at spawn."""
        return {
            "slab": self._arena.spec(),
            "workers": self.workers,
            "slab_bytes": self.slab_bytes,
        }

    def read(self, worker: int, offset: int, length: int,
             copy: bool = False):
        """Decode the framed result worker *worker* staged at
        ``[offset, offset+length)`` — zero-copy by default."""
        if not 0 <= worker < self.workers:
            raise ValueError(f"worker {worker} out of range")
        if offset < 0 or offset + length > self.slab_bytes:
            raise ValueError(
                f"slab ref [{offset}, {offset + length}) exceeds "
                f"slab_bytes={self.slab_bytes}"
            )
        row = self._arena.get("result_slab")[worker]
        return decode(row.data, offset, length, copy=copy)

    def close(self) -> None:
        """Unlink the slab block (idempotent)."""
        self._arena.close()

    def __enter__(self) -> "ResultSlabs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SlabWriter:
    """Worker-side bump allocator over this worker's slab row.

    ``write(round_id, obj)`` stages the framed result and returns its
    ``(offset, length)``, or ``None`` when the remaining space cannot
    hold it (the caller spills through the queue).  A task from a new
    round resets the cursor — see the module docstring for why that is
    race-free under the phased round protocol.
    """

    def __init__(self, spec: dict, worker_id: int) -> None:
        self.worker_id = int(worker_id)
        self.slab_bytes = int(spec["slab_bytes"])
        self._attachment = ShmAttachment(spec["slab"])
        self._row = self._attachment.arrays["result_slab"][self.worker_id]
        self._round = -1
        self._cursor = 0

    def write(self, round_id: int, obj) -> Optional[Tuple[int, int]]:
        """Stage *obj* framed in this worker's row; ``(offset, length)``
        on success, ``None`` when it does not fit or is unencodable
        (the caller spills or falls back to the raw queue path)."""
        if round_id != self._round:
            self._round = round_id
            self._cursor = 0
        start = _pad8(self._cursor)
        try:
            end = encode_into(obj, self._row.data, start, self.slab_bytes)
        except SlabEncodeError:
            return None
        if end is None:
            return None
        self._cursor = end
        return start, end - start

    def close(self) -> None:
        """Unmap the slab row (never unlinks — the parent owns it)."""
        self._row = None
        self._attachment.close()
