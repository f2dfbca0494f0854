"""Deterministic reduction of worker results.

Workers finish their shares in whatever order the host schedules
them, so nothing about completion order may leak into the results.
The reduction protocol:

1. chunk outputs are returned by :meth:`SupervisedPool.run` in *chunk*
   order (which is ascending source order — each chunk is one
   worker's contiguous share, :func:`repro.bc.engine.split_round`);
2. an update chunk's output is a tuple of flat columns whose first is
   the chunk's source indices; :func:`merge_indexed` concatenates the
   chunks column by column and refuses duplicated or missing indices;
3. the caller then commits the merged write-sets one row at a time
   and replays every order-sensitive float accumulation (bc
   adjustments, stage folds, counter absorption) over the merged
   columns in ascending index order — the same commit and left-fold
   order as the serial loop and as checkpoint resume, which is what
   makes the parallel engine bit-identical instead of merely close.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.gpu.counters import Trace


def merge_indexed(
    chunk_outputs: Iterable[Sequence[np.ndarray]],
    expected: Sequence[int],
) -> Tuple[np.ndarray, ...]:
    """Concatenate per-chunk column tuples ``(indices, *columns)``
    column by column, validating that the indices are exactly
    *expected*, in order.

    A missing or duplicated index means a scheduling bug that would
    silently corrupt the deterministic replay, so both are errors.
    """
    merged = tuple(np.concatenate(col) for col in zip(*chunk_outputs))
    index = merged[0] if merged else np.empty(0, dtype=np.int64)
    expected = np.asarray(expected, dtype=np.int64)
    ordered = np.sort(index)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(
            f"duplicate result for source index {int(repeated[0])}"
        )
    if not np.array_equal(index, expected):
        raise ValueError(
            f"worker results cover {index.tolist()} but the round "
            f"dispatched {expected.tolist()}"
        )
    return merged


def rebuild_trace(label: str, steps: Sequence) -> Trace:
    """Reassemble a :class:`Trace` from a worker's pickled step list
    (steps are frozen dataclasses; the label never crosses the wire)."""
    return Trace.from_steps(label, steps)
