"""Result transport: shared-memory result slabs.

A worker's chunk result (an update chunk's thirteen flat arrays, a
build's row list, a repair's step lists) reaches the parent as one
*frame*: ``MAGIC`` (u32) + payload length (u64), then the result's
``pickle`` (protocol 5).  A torn or stale header can never be
silently misread: :func:`decode` checks both fields before unpickling.

The frame does not ride the result queue.  The parent preallocates one
shared-memory block of ``workers`` rows, each ``slab_bytes`` long
(:class:`ResultSlabs`); a worker copies its frame into its own row and
posts only a ``(worker, offset, length)`` header on the queue.  The
workers share one result pipe, and only a message below ``PIPE_BUF``
is written to it in one piece: a worker SIGKILLed or SIGSTOPped partway
through sending a ~95 KB pickle would leave the parent blocked in
``recv_bytes`` on half a message, where the supervisor cannot see it.
A header is far below ``PIPE_BUF``.  The parent reads the row, checks
the prefix and unpickles, so every result it gets back owns its
memory; nothing it holds points into a slab row.

Slab write protocol
-------------------
Workers bump-allocate within a *round*: the first task of a new round
resets the worker's write offset to zero.  The parent decodes every
message of a round before it dispatches the next, so all round-N bytes
are dead by the time any round-N+1 task can reset the cursor.  A frame
that does not fit in the remaining row space **spills**: the worker
ships the same bytes through the queue (``ok-enc``), and the spill is
counted so the benchmarks can see it.  A result ``pickle`` cannot
carry raises in the worker before anything is queued, and is the
task's error.

Lifecycle: :class:`ResultSlabs` owns its block through a private
:class:`~repro.parallel.shm.ShmArena` and must be released with
:meth:`ResultSlabs.close` (linter rule R003 enforces the pairing
lexically, exactly as for bare arenas).
"""

from __future__ import annotations

import pickle
import struct
from typing import Optional, Tuple

import numpy as np

from repro.parallel.shm import ShmArena, ShmAttachment

#: frame prefix: magic + u64 payload length
MAGIC = 0x534C4142  # "SLAB"
_PREFIX = struct.Struct("<IQ")

#: per-worker slab capacity; large enough that the kron-scale bench
#: rounds never spill, small enough that even an 8-worker pool keeps
#: /dev/shm usage in the tens of megabytes
DEFAULT_SLAB_BYTES = 8 * 1024 * 1024

#: approximate pickled size of a header-only queue message — used for
#: the bytes-moved accounting of slab messages (the header tuple is
#: ~70 bytes on the wire; the exact figure does not matter, only that
#: it is orders of magnitude below the payloads it replaces)
HEADER_BYTES = 72


def encode(obj) -> bytes:
    """Frame *obj*: the prefix, then its protocol-5 pickle.  Raises
    whatever ``pickle`` raises for an object it cannot carry."""
    payload = pickle.dumps(obj, protocol=5)
    return _PREFIX.pack(MAGIC, len(payload)) + payload


def decode(buf, offset: int = 0, length: Optional[int] = None):
    """Unpickle the frame at *offset* of *buf* after checking its
    prefix (and, given *length*, that the frame spans exactly that
    many bytes).  Frames come only from this pool's own workers;
    unpickling anything else could run foreign code."""
    magic, payload = _PREFIX.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ValueError(f"bad slab frame magic {magic:#x} at {offset}")
    if length is not None and payload + _PREFIX.size != length:
        raise ValueError(
            f"slab frame length mismatch: header {payload}, told {length}"
        )
    start = offset + _PREFIX.size
    view = memoryview(buf)[start:start + payload]
    if view.nbytes != payload:
        raise ValueError("truncated slab frame")
    return pickle.loads(view)


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

    def read(self, worker: int, offset: int, length: int):
        """Decode the frame worker *worker* staged at
        ``[offset, offset+length)``."""
        if not 0 <= worker < self.workers:
            raise ValueError(f"worker {worker} out of range")
        if offset < 0 or offset + length > self.slab_bytes:
            raise ValueError(
                f"slab ref [{offset}, {offset + length}) exceeds "
                f"slab_bytes={self.slab_bytes}"
            )
        row = self._arena.get("result_slab")[worker]
        return decode(row.data, offset, length)

    def close(self) -> None:
        """Unlink the slab block (idempotent)."""
        self._arena.close()

    def __enter__(self) -> "ResultSlabs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SlabWriter:
    """Worker-side bump allocator over this worker's slab row.

    ``write(round_id, frame)`` copies one :func:`encode` frame into the
    row and returns its ``(offset, length)``, or ``None`` when the
    remaining space cannot hold it (the caller spills through the
    queue).  A task from a new round resets the cursor — see the
    module docstring for why that is race-free under the phased round
    protocol.
    """

    def __init__(self, spec: dict, worker_id: int) -> None:
        self.worker_id = int(worker_id)
        self.slab_bytes = int(spec["slab_bytes"])
        self._attachment = ShmAttachment(spec["slab"])
        self._row = self._attachment.arrays["result_slab"][self.worker_id]
        self._round = -1
        self._cursor = 0

    def write(self, round_id: int, frame: bytes) -> Optional[Tuple[int, int]]:
        """Stage *frame* in this worker's row; ``(offset, length)`` on
        success, ``None`` when it does not fit."""
        if round_id != self._round:
            self._round = round_id
            self._cursor = 0
        start = self._cursor
        end = start + len(frame)
        if end > self.slab_bytes:
            return None
        self._row.data[start:end] = frame
        self._cursor = end
        return start, end - start

    def close(self) -> None:
        """Unmap the slab row (never unlinks — the parent owns it)."""
        self._row = None
        self._attachment.close()
