"""Block-level parallel primitives with cost accounting.

The node-parallel kernels remove duplicates from the ``Q2`` frontier
buffer with the three-phase procedure of §III-A (after Merrill et al.):

1. bitonic sort of the buffer,
2. adjacent-compare to flag unique entries,
3. prefix sum to compact the unique entries into ``Q``.

The *result* is computed with :func:`unique` (a sort, adjacent compare
and compaction: the arrays :func:`numpy.unique` returns, bit-identical
to a real bitonic-sort pipeline on integers); the *cost* charged to the
trace is that of the parallel pipeline: ``O(log^2 p)`` sort steps over
the next power of two ``p``, one compare step, ``O(log p)`` scan steps,
and one scatter.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.gpu.counters import Trace
from repro.sanitize import tracer as _san

# ----------------------------------------------------------------------
# Declared atomics and benign races
# ----------------------------------------------------------------------
#: Races the kernels run *on purpose*, keyed ``(array, intent)`` →
#: rationale.  The race sanitizer whitelists these by construction:
#: a conflicting access is benign only when every contributing call
#: site tags itself with a registered intent, so the whitelist lives
#: here — next to the atomic semantics — not in suppression comments
#: at the observation sites.
BENIGN_RACES: Dict[Tuple[str, str], str] = {}


def declare_benign_race(array: str, intent: str, why: str) -> None:
    """Register an intentionally-benign race class.

    Call at import time, next to the primitive that makes the race
    safe; the sanitizer treats any *other* conflicting access to the
    same array as a real S101/S102 finding.
    """
    BENIGN_RACES[(array, intent)] = why


# The paper's kernels rely on two benign race shapes:
#
# 1. Same-value stamps: many lanes store the *identical* value to one
#    address (BFS level discovery, touched flags).  Any interleaving
#    yields the same memory image.
declare_benign_race(
    "d", "discover",
    "level-synchronous BFS discovery: every lane stores depth+1, so "
    "duplicate stores commute (Alg. 1/3 distance stamp)",
)
declare_benign_race(
    "d_new", "relabel",
    "Case-3 pull relabel: every lane stores level+1 for the vertices "
    "it pulls closer — duplicate stores carry the same value",
)
declare_benign_race(
    "t", "mark",
    "touched-flag stamp (untouched/down/up): lanes marking one vertex "
    "in one interval all store the same state",
)
declare_benign_race(
    "moved", "mark",
    "moved-flag stamp: duplicate True stores commute",
)
# 2. Atomic accumulation: the edge-parallel Case-2 σ update (and every
#    δ/BC accumulation) lets many lanes atomicAdd one address.  The
#    *order* of the adds is nondeterministic on hardware; the
#    simulation fixes arc order, so results stay bit-identical while
#    the contention itself is declared here (§III-B of the paper: the
#    edge-parallel kernels "require atomic operations" on σ and δ).
for _array in ("sigma", "sigma_hat", "delta", "delta_hat", "pull_buf", "bc"):
    declare_benign_race(
        _array, "accumulate",
        "atomicAdd accumulation: conflicting adds commute up to "
        "floating-point ordering, which the fixed arc order pins",
    )
del _array


def atomic_scatter_add(
    target: np.ndarray, idx, values, *, array: str, intent: str = "accumulate"
) -> None:
    """The declared atomicAdd: scatter-add *values* into *target* at
    *idx*, bit-identical to ``np.add.at``.

    This is the **only** sanctioned route for conflicting accumulation
    in the kernels — the race sanitizer flags any scatter with
    duplicate targets that did not come through here (finding S101).
    ``(array, intent)`` must name a :data:`BENIGN_RACES` entry for the
    contention to be whitelisted; subtraction is accumulation of
    negated values (IEEE-754 ``x - y == x + (-y)``).
    """
    np.add.at(target, idx, values)
    _san.atomic(array, idx, intent)


def unique(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of *x*, as ``np.unique`` returns them:
    the sort, adjacent-compare and compaction of the dedup pipeline
    (sorting is several times faster than ``np.unique``'s hashing on
    the few-thousand-element arrays a level produces)."""
    x = np.sort(x)
    if x.size > 1:
        keep = np.empty(x.size, dtype=bool)
        keep[0] = True
        np.not_equal(x[1:], x[:-1], out=keep[1:])
        x = x[keep]
    return x


def _next_pow2(x: int) -> int:
    return 1 if x <= 1 else 1 << (x - 1).bit_length()


def bitonic_sort_steps(length: int) -> int:
    """Number of barrier-delimited comparator phases a bitonic sort of
    *length* elements executes: k(k+1)/2 for p = 2**k."""
    if length <= 1:
        return 0
    k = _next_pow2(length).bit_length() - 1
    return k * (k + 1) // 2


def prefix_sum_steps(length: int) -> int:
    """Phases of a work-efficient (Blelloch) scan: 2 * ceil(log2 p)."""
    if length <= 1:
        return 0
    return 2 * math.ceil(math.log2(length))


def remove_duplicates(buffer: np.ndarray, trace: Trace) -> np.ndarray:
    """Deduplicate a frontier buffer, charging the parallel pipeline.

    Returns the unique entries in sorted order (exactly what the GPU
    pipeline produces) and appends the pipeline's steps to *trace*.
    """
    length = int(buffer.size)
    if length == 0:
        return buffer[:0]
    p = _next_pow2(length)
    # Phase 1: bitonic sort — each phase touches all p slots.
    for _ in range(bitonic_sort_steps(length)):
        trace.add(work_items=p, cycles_per_item=3.0, bytes_moved=8.0 * p)
    # Phase 2: adjacent compare producing the uniqueness flags.
    trace.add(work_items=length, cycles_per_item=2.0, bytes_moved=9.0 * length)
    # Phase 3: prefix sum over the flags.
    for _ in range(prefix_sum_steps(length)):
        trace.add(work_items=length, cycles_per_item=2.0, bytes_moved=8.0 * length)
    # Phase 4: compacting scatter of the unique entries.
    out = unique(buffer)
    trace.add(work_items=length, cycles_per_item=2.0,
              bytes_moved=4.0 * length + 4.0 * out.size)
    return out
