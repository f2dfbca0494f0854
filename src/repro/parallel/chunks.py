"""Contiguous chunk planning for the dynamic source queue.

The paper's scheduler hands one source to each SM and lets fast blocks
pull the next one — coarse-grained dynamic load balancing.  The CPU
pool reproduces that with a shared task queue: the work list is split
into contiguous chunks smaller than a worker's equal share, so a
worker that drew cheap Case-2 sources simply pulls another chunk while
a neighbour is still grinding through a Case-3 recompute (the
"work-stealing-ish" schedule — stealing from the shared queue rather
than from each other).

Chunks stay *contiguous and ordered* on purpose: results are reduced
in chunk order, so ``concat(chunks) == items`` guarantees the parent's
deterministic ascending-source replay regardless of which worker
finished first.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TypeVar

from repro.gpu.costmodel import left_fold

T = TypeVar("T")

#: divisor of the remaining weight per scheduling step: each chunk
#: takes ``remaining / (GSS_FACTOR * workers)`` of the outstanding
#: weight, giving the classic guided-self-scheduling taper (big chunks
#: first, shrinking tail that absorbs per-source cost skew)
GSS_FACTOR = 2.0

#: cap on chunk-count explosion: the effective minimum chunk size is
#: ``ceil(len(items) / (MAX_CHUNKS_PER_WORKER * workers))``, bounding
#: a round at ~MAX_CHUNKS_PER_WORKER chunks per worker even when the
#: guided taper would keep shrinking
MAX_CHUNKS_PER_WORKER = 8


def plan_chunks_guided(
    items: Sequence[T],
    num_workers: int,
    weights: Optional[Sequence[float]] = None,
    factor: float = GSS_FACTOR,
    min_chunk: int = 1,
) -> List[List[T]]:
    """Guided self-scheduling split: large chunks first, shrinking tail.

    Each step peels ``remaining_weight / (factor * num_workers)`` worth
    of items off the front, so early chunks are coarse (amortizing the
    queue round trip) and the tail is fine (absorbing per-source cost
    skew near the barrier).  *weights* — one non-negative cost estimate
    per item, e.g. the engine's observed per-source simulated seconds —
    steers the split; omitted, every item weighs 1 and the split
    depends only on ``len(items)``.

    Chunks stay contiguous and ordered (``concat(chunks) == items``),
    so the parent's ascending-source fold — and therefore bit-identity
    — is untouched by the schedule.  With deterministic weights the
    plan itself is deterministic too.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if factor <= 0:
        raise ValueError(f"factor must be > 0, got {factor}")
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be >= 1, got {min_chunk}")
    items = list(items)
    n = len(items)
    if not n:
        return []
    if weights is None:
        costs = [1.0] * n
    else:
        costs = [max(0.0, float(w)) for w in weights]
        if len(costs) != n:
            raise ValueError(
                f"weights length {len(costs)} != items length {n}"
            )
    # A zero-weight tail must still be scheduled: floor every weight at
    # a fraction of the mean so progress is always positive.
    mean = left_fold(costs) / n
    floor = mean / 16.0 if mean > 0 else 1.0
    costs = [max(c, floor) for c in costs]
    min_size = max(min_chunk, -(-n // (MAX_CHUNKS_PER_WORKER * num_workers)))
    remaining = left_fold(costs)
    chunks: List[List[T]] = []
    start = 0
    while start < n:
        target = remaining / (factor * num_workers)
        end = start
        taken = 0.0
        while end < n and (taken < target or end - start < min_size):
            taken += costs[end]
            end += 1
        chunks.append(items[start:end])
        remaining -= taken
        start = end
    return chunks
