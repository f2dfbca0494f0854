"""Work traces and hardware counters.

A kernel execution is recorded as a sequence of :class:`Step` records —
one per barrier-delimited parallel phase (e.g. one BFS level).  Each
step says how many work items ran, what each cost in cycles and bytes,
and how many atomic operations it issued.  The cost model converts
steps to seconds; :class:`KernelCounters` aggregates raw totals for the
analysis sections (memory traffic, wasted work, atomic pressure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Step:
    """One barrier-delimited parallel phase inside a block.

    Attributes
    ----------
    work_items:
        Number of independent work units (threads iterate when this
        exceeds the block's thread count).
    cycles_per_item:
        Arithmetic/branch cost per work item.
    bytes_moved:
        Global-memory traffic of the whole step (reads + writes).
    atomic_ops:
        Atomic RMW operations issued in the step.
    max_conflict:
        Worst-case number of atomics targeting one address (serialized
        by the memory system); 1 means conflict-free.
    """

    work_items: int
    cycles_per_item: float
    bytes_moved: float
    atomic_ops: int = 0
    max_conflict: int = 1
    #: which kernel stage issued the step ("init", "sp", "dep",
    #: "commit", "classify", "pull", "prepass", "dedup", ...)
    stage: str = ""


@dataclass
class Trace:
    """Steps of one logical task (e.g. one source's update in one
    kernel), plus a label for reporting."""

    label: str = ""
    steps: List[Step] = field(default_factory=list)

    def add(
        self,
        work_items: int,
        cycles_per_item: float,
        bytes_moved: float,
        atomic_ops: int = 0,
        max_conflict: int = 1,
        stage: str = "",
    ) -> None:
        """Record one step; zero-work steps are dropped silently."""
        if work_items < 0 or bytes_moved < 0 or atomic_ops < 0:
            raise ValueError("trace quantities must be non-negative")
        if work_items == 0 and atomic_ops == 0:
            return  # empty phases cost nothing and are not recorded
        self.steps.append(
            Step(int(work_items), float(cycles_per_item), float(bytes_moved),
                 int(atomic_ops), max(1, int(max_conflict)), stage)
        )

    def add_stage(self, stage: str, *args, **kwargs) -> None:
        """:meth:`add` with the stage tag leading (reads naturally at
        call sites that pass the work quantities positionally)."""
        self.add(*args, stage=stage, **kwargs)

    @classmethod
    def from_steps(cls, label: str, steps: Iterable[Step]) -> "Trace":
        """Reassemble a trace from already-validated :class:`Step`
        records — e.g. a step list that crossed a process boundary
        (steps are frozen dataclasses, hence picklable; see
        :func:`repro.parallel.reducer.rebuild_trace`).  Unlike
        :meth:`add`, no re-validation or zero-work filtering happens:
        the steps were produced by a :class:`Trace` already."""
        return cls(label=label, steps=list(steps))

    def extend(self, other: "Trace") -> None:
        """Append all of *other*'s steps to this trace."""
        self.steps.extend(other.steps)

    @property
    def total_items(self) -> int:
        return sum(s.work_items for s in self.steps)

    @property
    def total_bytes(self) -> float:
        return sum(s.bytes_moved for s in self.steps)

    @property
    def total_atomics(self) -> int:
        return sum(s.atomic_ops for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class CostSummary:
    """Everything the engine's fold reads from one source's trace.

    Built by :meth:`repro.gpu.costmodel.CostModel.summarize`; the
    fields equal, bit for bit, what ``trace_seconds``,
    ``stage_breakdown`` and :meth:`KernelCounters.absorb` derive from
    the same steps, so a trace can be reduced where it is produced (a
    pool worker ships this instead of its step list).
    """

    #: total simulated seconds (``CostModel.trace_seconds``)
    seconds: float
    #: simulated seconds per stage tag, in first-appearance order
    #: (``CostModel.stage_breakdown``)
    stages: Dict[str, float]
    steps: int
    work_items: int
    bytes_moved: float
    atomic_ops: int


@dataclass
class KernelCounters:
    """Aggregate counters across many traces (per engine run).

    These feed the analysis sections: §V argues node-parallelism wins
    because its total memory traffic is a tiny fraction of the
    edge-parallel traffic — ``bytes_moved`` exposes exactly that.
    """

    steps: int = 0
    work_items: int = 0
    bytes_moved: float = 0.0
    atomic_ops: int = 0
    barriers: int = 0
    kernel_launches: int = 0
    by_kernel: Dict[str, int] = field(default_factory=dict)

    def absorb(self, trace: Trace, kernel: Optional[str] = None) -> None:
        """Accumulate one trace's totals (tagged by *kernel* if given)."""
        self.steps += len(trace.steps)
        self.barriers += len(trace.steps)
        self.work_items += trace.total_items
        self.bytes_moved += trace.total_bytes
        self.atomic_ops += trace.total_atomics
        if kernel is not None:
            self.by_kernel[kernel] = self.by_kernel.get(kernel, 0) + trace.total_items

    def absorb_summary(self, summary: CostSummary,
                       kernel: Optional[str] = None) -> None:
        """Accumulate a summarized trace; equal to :meth:`absorb` on the
        trace the summary was built from."""
        self.steps += summary.steps
        self.barriers += summary.steps
        self.work_items += summary.work_items
        self.bytes_moved += summary.bytes_moved
        self.atomic_ops += summary.atomic_ops
        if kernel is not None:
            self.by_kernel[kernel] = (
                self.by_kernel.get(kernel, 0) + summary.work_items
            )

    def absorb_all(self, traces: Iterable[Trace], kernel: Optional[str] = None) -> None:
        """Accumulate many traces."""
        for t in traces:
            self.absorb(t, kernel)

    def absorb_step_repeated(
        self, step: Step, count: int, kernel: Optional[str] = None
    ) -> None:
        """Accumulate one step as if *count* single-step traces had been
        absorbed one at a time.

        The integer totals scale exactly; ``bytes_moved`` does too
        because every byte quantity the kernels charge is a multiple of
        0.5 far below 2**52, so ``count * bytes`` equals the repeated
        float addition bit-for-bit.  This is the bulk-charge entry point
        for the engine's vectorized Case-1 fast path.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        self.steps += count
        self.barriers += count
        self.work_items += count * step.work_items
        self.bytes_moved += count * step.bytes_moved
        self.atomic_ops += count * step.atomic_ops
        if kernel is not None:
            self.by_kernel[kernel] = (
                self.by_kernel.get(kernel, 0) + count * step.work_items
            )

    def merged(self, other: "KernelCounters") -> "KernelCounters":
        """A new counter set equal to self + other (inputs untouched)."""
        out = KernelCounters(
            steps=self.steps + other.steps,
            work_items=self.work_items + other.work_items,
            bytes_moved=self.bytes_moved + other.bytes_moved,
            atomic_ops=self.atomic_ops + other.atomic_ops,
            barriers=self.barriers + other.barriers,
            kernel_launches=self.kernel_launches + other.kernel_launches,
            by_kernel=dict(self.by_kernel),
        )
        for k, v in other.by_kernel.items():
            out.by_kernel[k] = out.by_kernel.get(k, 0) + v
        return out
