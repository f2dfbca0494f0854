"""Deterministic reduction of worker results.

Workers finish in whatever order the dynamic chunk queue hands them
work, so nothing about completion order may leak into the results.
The reduction protocol:

1. chunk outputs are returned by :meth:`SupervisedPool.run` in *chunk*
   order (which is ascending source order — chunks are contiguous);
2. :func:`merge_indexed` flattens them into an index-keyed map,
   refusing duplicates or gaps;
3. the caller then replays every order-sensitive float accumulation
   (bc scatter-adds, stage folds, counter absorption) by walking its
   own ascending index list — the same left-fold order as the serial
   loop and as checkpoint resume, which is what makes the parallel
   engine bit-identical instead of merely close.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.gpu.counters import Trace


def merge_indexed(
    chunk_outputs: Iterable[Sequence[Sequence[Any]]],
    expected: Sequence[int],
) -> Dict[int, tuple]:
    """Flatten per-chunk ``[(index, *payload), ...]`` lists into
    ``{index: payload}``, validating exact coverage of *expected*.

    A missing or duplicated index means a scheduling bug that would
    silently corrupt the deterministic replay, so both are errors.
    """
    merged: Dict[int, tuple] = {}
    for output in chunk_outputs:
        for record in output:
            index = int(record[0])
            if index in merged:
                raise ValueError(f"duplicate result for source index {index}")
            merged[index] = tuple(record[1:])
    missing = [i for i in expected if int(i) not in merged]
    if missing or len(merged) != len(expected):
        raise ValueError(
            f"worker results cover {sorted(merged)} but the round "
            f"dispatched {list(expected)}"
        )
    return merged


def rebuild_trace(label: str, steps: Sequence) -> Trace:
    """Reassemble a :class:`Trace` from a worker's pickled step list
    (steps are frozen dataclasses; the label never crosses the wire)."""
    return Trace.from_steps(label, steps)
