"""Cost ledger: every step of many sources' traces as columns.

The executor (:mod:`repro.bc.batched`) advances all rows of a batch
level by level and holds each level's step quantities as arrays over
rows.  Each executor run charges those arrays to one ledger, through the same strategy
formulas the per-source accountants charge (:mod:`repro.bc.
accountants`), instead of keeping one accountant and one
:class:`~repro.gpu.counters.Step` per row and level.
:meth:`CostLedger.close` costs every step with one vectorized roofline
(:meth:`~repro.gpu.costmodel.CostModel.steps_seconds`) and folds each
row's seconds, total and per stage, left to right in trace order with
``np.add.accumulate``.  Each row's results equal, bit for bit, what
:meth:`~repro.gpu.costmodel.CostModel.trace_seconds`,
:meth:`~repro.gpu.costmodel.CostModel.stage_breakdown` and
:meth:`~repro.gpu.counters.KernelCounters.absorb` derive from its
per-source trace (docs/MODEL.md §6):

* a step with zero work and zero atomics is dropped and
  ``max_conflict`` is clamped to >= 1, as :meth:`Trace.add` does;
* a :class:`Dedup` pipeline expands into the steps the scalar charge
  records, with exact integer step counts;
* a row's steps keep the order they were charged in.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import List, NamedTuple, Sequence

import numpy as np

from repro.gpu.costmodel import CostModel
from repro.gpu.counters import Step

#: stage tags, in the order they first appear within any one source's
#: trace; ``"other"`` is :meth:`CostModel.stage_breakdown`'s key for
#: untagged steps (the static trace of a rebuilt row)
STAGES = ("classify", "init", "sp", "pull", "dedup", "prepass", "dep",
          "commit", "other")
_CODE = {name: code for code, name in enumerate(STAGES)}
_CODE[""] = _CODE["other"]


class Dedup(NamedTuple):
    """The §III-A duplicate-removal pipeline over *raw* enqueued
    entries leaving *unique* ones.  Its step count depends on *raw*, so
    a formula names the pipeline and the charger expands it."""

    raw: object
    unique: object


class LedgerTotals(NamedTuple):
    """Per-row results of :meth:`CostLedger.close`."""

    #: simulated seconds (``trace_seconds``)
    seconds: np.ndarray
    #: simulated seconds per stage, columns in :data:`STAGES` order
    #: (``stage_breakdown``; 0.0 where a row has no such step)
    stages: np.ndarray
    #: counter totals (``KernelCounters.absorb``)
    steps: np.ndarray
    items: np.ndarray
    bytes_moved: np.ndarray
    atomics: np.ndarray


class CostLedger:
    """The charged steps of *rows* rows (module docstring).

    Charges append parts, in charge order: a step part ``(rows, stage
    code, items, cycles, bytes, atomics, conflict)`` — stage code and
    cycles one scalar per part, every other field a scalar or an array
    aligned with the part's rows — or a :class:`Dedup` part ``(rows,
    raw, unique)``, whose steps :meth:`close` expands for all parts at
    once.
    """

    def __init__(self, rows: int) -> None:
        self.rows = int(rows)
        #: parts, each led by its charge sequence number
        self._steps: List[tuple] = []
        self._dedups: List[tuple] = []

    def charge(self, live: np.ndarray, steps) -> None:
        """Charge a strategy formula's *steps* (quantities over the
        ledger rows *live*, or scalars) to those rows."""
        for step in steps:
            if isinstance(step, Dedup):
                self._dedups.append((self._seq(), live, *step))
            else:
                self._add(live, *step)

    def _seq(self) -> int:
        return len(self._steps) + len(self._dedups)

    def _add(self, rows, stage, items, cycles, bytes_moved, atomics=0,
             conflict=1) -> None:
        self._steps.append((self._seq(), rows, _CODE[stage], items, cycles,
                            bytes_moved, atomics, conflict))

    def add_trace(self, row: int, steps: Sequence[Step]) -> None:
        """Charge already-recorded *steps* (a :class:`Trace`'s, which
        dropped its empty steps already) to ledger row *row*, one part
        per run of steps with the same stage and cycles."""
        for (stage, cycles), run in groupby(
                steps, key=lambda s: (s.stage, s.cycles_per_item)):
            run = list(run)
            self._add(np.full(len(run), row, dtype=np.int64), stage,
                      np.array([s.work_items for s in run], dtype=np.int64),
                      cycles,
                      np.array([s.bytes_moved for s in run], dtype=np.float64),
                      np.array([s.atomic_ops for s in run], dtype=np.int64),
                      np.array([s.max_conflict for s in run], dtype=np.int64))

    def close(self, model: CostModel) -> LedgerTotals:
        """Cost and fold every charged step; the ledger's parts are
        released."""
        parts = self._seq()
        cols = _columns(self._steps, _STEP_DTYPES, scalar=(0, 2, 4))
        if self._dedups:
            expanded = _expand_dedups(*_columns(
                self._dedups, (np.int64,) * 4, scalar=(0,)))
            cols = [np.concatenate(pair) for pair in zip(cols, expanded)]
        self._steps, self._dedups = [], []
        seq, rows, code, items, cycles, bytes_moved, atomics, conflict = cols
        if rows.size and min(items.min(), atomics.min(), bytes_moved.min()) < 0:
            raise ValueError("trace quantities must be non-negative")
        # drop empty steps, then put each row's steps in charge order:
        # by part, and within a part as generated
        kept = np.flatnonzero((items | atomics) != 0)
        order = kept[np.argsort((rows * parts + seq)[kept], kind="stable")]
        rows, code, items, atomics = (rows[order], code[order], items[order],
                                      atomics[order])
        bytes_moved = bytes_moved[order]
        seconds = model.steps_seconds(items, cycles[order], bytes_moved,
                                      atomics, np.maximum(conflict[order], 1))
        m, width = self.rows, len(STAGES)
        per_row = np.zeros(m, dtype=np.float64)
        at, folds = _left_folds(rows, seconds)
        per_row[at] = folds
        # each (row, stage) run of steps, still in trace order
        group = rows * width + code
        by_group = np.argsort(group, kind="stable")
        stages = np.zeros(m * width, dtype=np.float64)
        at, folds = _left_folds(group[by_group], seconds[by_group])
        stages[at] = folds
        return LedgerTotals(
            seconds=per_row,
            stages=stages.reshape(m, width),
            steps=np.bincount(rows, minlength=m).astype(np.int64),
            # exact: integer sums, and byte quantities are multiples of
            # 0.5 (see KernelCounters.absorb_step_repeated)
            items=np.bincount(rows, weights=items, minlength=m).astype(np.int64),
            bytes_moved=np.bincount(rows, weights=bytes_moved, minlength=m),
            atomics=np.bincount(rows, weights=atomics,
                                minlength=m).astype(np.int64),
        )


#: column types of a step part (sequence number first)
_STEP_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.float64,
                np.float64, np.int64, np.int64)


def _columns(parts: List[tuple], dtypes, scalar) -> List[np.ndarray]:
    """The parts' fields as columns.  A part's rows (field 1) set its
    length; the fields in *scalar* hold one value per part, the others
    a scalar or an array aligned with the rows."""
    sizes = [part[1].size for part in parts]
    spans = list(zip(accumulate(sizes, initial=0), accumulate(sizes)))
    out = []
    for j, dtype in enumerate(dtypes):
        if j in scalar:
            out.append(np.repeat(np.array([part[j] for part in parts],
                                          dtype=dtype), sizes))
            continue
        col = np.empty(spans[-1][1] if spans else 0, dtype=dtype)
        for part, (lo, hi) in zip(parts, spans):
            col[lo:hi] = part[j]  # broadcasts a scalar field
        out.append(col)
    return out


def _expand_dedups(seq, rows, raw, unique) -> List[np.ndarray]:
    """Step columns of every dedup entry with more than one raw entry,
    each entry's steps in ``UpdateAccountant._charge_dedup`` order:
    the bitonic sort's phases over its power-of-two width, the adjacent
    compare, the scan's phases, the compacting scatter."""
    sel = raw > 1
    seq, rows, r, u = seq[sel], rows[sel], raw[sel], unique[sel]
    sort_n, scan_n, p = dedup_step_counts(r)
    count = sort_n + scan_n + 2
    j = (np.arange(int(count.sum()))
         - np.repeat(np.cumsum(count) - count, count))
    sort_n, p, r, u, last = (np.repeat(x, count)
                             for x in (sort_n, p, r, u, count - 1))
    sorting = j < sort_n
    bytes_moved = np.where(sorting, 8.0 * p, np.where(
        j == sort_n, 9.0 * r, np.where(j == last, 4.0 * r + 4.0 * u,
                                       8.0 * r)))
    zeros = np.zeros(j.size, dtype=np.int64)
    return [np.repeat(seq, count), np.repeat(rows, count),
            zeros + _CODE["dedup"], np.where(sorting, p, r),
            np.where(sorting, 3.0, 2.0), bytes_moved, zeros, zeros + 1]


def dedup_step_counts(raw: np.ndarray):
    """``(bitonic_sort_steps, prefix_sum_steps, p)`` of each raw
    length > 1, with *p* the sort's power-of-two width, in exact
    integer arithmetic: ``b = (raw - 1).bit_length()`` is the exponent
    ``np.frexp`` returns for an integer below 2**53."""
    b = np.frexp((raw - 1).astype(np.float64))[1].astype(np.int64)
    return b * (b + 1) // 2, 2 * b, np.left_shift(1, b)


def _left_folds(keys: np.ndarray, values: np.ndarray):
    """``((0.0 + v0) + v1) + ...`` over each run of equal *keys*
    (ascending, each run's *values* in order); returns the runs' keys
    and folds.  One ``np.add.accumulate`` runs down a ``(longest run,
    runs)`` matrix, zero-padded: adding 0.0 leaves every partial sum
    unchanged."""
    if not keys.size:
        return keys, values
    new = np.empty(keys.size, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = keys.size - starts[-1]
    pad = np.zeros((int(counts.max()), starts.size), dtype=np.float64)
    pad[np.arange(keys.size) - np.repeat(starts, counts),
        np.repeat(np.arange(starts.size), counts)] = values
    return keys[starts], np.add.accumulate(pad, axis=0)[-1]


def stage_order(stages: np.ndarray) -> List[str]:
    """Names of the stages present in a rows-by-:data:`STAGES` seconds
    matrix, in the order a walk of the rows' traces (rows ascending)
    first meets them: by first row, then in :data:`STAGES` order, the
    order they take within every trace."""
    present = stages > 0.0
    codes = np.flatnonzero(present.any(axis=0))
    first = present.argmax(axis=0)[codes]
    return [STAGES[c] for c in codes[np.argsort(first, kind="stable")]]
