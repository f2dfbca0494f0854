"""Self-healing guards for long-running streams.

A streaming BC service (the ROADMAP north-star; cf. Kourtellis et al.,
*Scalable Online Betweenness Centrality in Evolving Graphs*) cannot
afford either of the naive failure policies: crashing on the first
corrupted row throws away hours of incremental work, while ignoring
corruption silently poisons every future score.  The guard implements
the middle path:

1. **Detect** — on a configurable cadence during replay, recompute a
   random sample of source rows from scratch (the engine's
   ``spot_check`` machinery) and look for structural damage in the
   state arrays.
2. **Classify** — *row drift* (one source's ``d/sigma/delta`` rows
   disagree with a fresh Brandes pass; the graph itself is fine) vs.
   *structural corruption* (non-finite values, negative path counts,
   shape mismatches — the state as a whole can no longer be trusted).
3. **Repair** — drifted rows are rebuilt in place via
   :meth:`DynamicBC.repair_source` (cost: one static source, exactly
   the paper's per-source recompute baseline).
4. **Escalate** — structural corruption, or drift repairs beyond the
   configured budget, trigger a full :meth:`DynamicBC.recompute` (the
   paper's Table-III static baseline — the most expensive but always
   correct fallback).

Every detection/repair/escalation is recorded as a :class:`GuardEvent`
in the :class:`~repro.graph.stream.ReplayResult` so operators can see
what the guard did and when.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.graph.csr import DIST_INF
from repro.utils.prng import SeedLike, default_rng

#: failure classes a guard can assign
ROW_DRIFT = "row-drift"
BC_DRIFT = "bc-drift"
STRUCTURAL = "structural"

#: guard actions recorded in replay results
DETECT = "detect"
REPAIR = "repair"
ESCALATE = "escalate"
#: worker-pool supervision events folded into the same log (replay
#: drains :meth:`DynamicBC.drain_health_events` after each event; the
#: GuardEvent's ``kind`` carries the supervisor action, e.g.
#: ``worker-death`` / ``hung-worker`` / ``demote``)
HEALTH = "health"


@dataclass(frozen=True)
class GuardPolicy:
    """Configuration of the self-healing guard.

    Attributes
    ----------
    check_every:
        Run a check after every N-th stream event (``0`` disables
        cadence checks; the guard can still be invoked manually).
    num_check_sources:
        Source rows re-derived from scratch per check (the sampled
        ``spot_check`` width; full verification is O(km)).
    repair_budget:
        Row repairs allowed per replay before drift escalates to a
        full recompute.  Persistent drift means the incremental
        machinery itself is suspect, so patching rows one at a time
        stops being trustworthy.
    atol:
        Absolute tolerance when comparing float rows.
    seed:
        Seed for the row-sampling RNG (checks are deterministic).
    """

    check_every: int = 10
    num_check_sources: int = 2
    repair_budget: int = 8
    atol: float = 1e-6
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.check_every < 0:
            raise ValueError(f"check_every must be >= 0, got {self.check_every}")
        if self.num_check_sources < 1:
            raise ValueError(
                f"num_check_sources must be >= 1, got {self.num_check_sources}"
            )
        if self.repair_budget < 0:
            raise ValueError(f"repair_budget must be >= 0, got {self.repair_budget}")


@dataclass(frozen=True)
class GuardEvent:
    """One guard observation/action during a replay."""

    event_index: int  #: stream position after which the check ran
    action: str  #: detect | repair | escalate
    kind: str  #: row-drift | structural
    source_index: int = -1  #: state row involved (-1 for whole-state)
    detail: str = ""


def structural_issues(engine) -> List[str]:
    """Cheap O(kn) sanity scan of the state arrays.

    Returns human-readable descriptions of every structural problem
    found: wrong shapes vs. the graph, non-finite σ/δ/BC values,
    negative path counts, or distances outside ``[0, DIST_INF]``.
    These can never be produced by a healthy engine, so any hit means
    the state as a whole is untrustworthy.
    """
    st = engine.state
    n = engine.graph.num_vertices
    issues: List[str] = []
    if st.num_vertices != n:
        issues.append(f"state tracks {st.num_vertices} vertices, graph has {n}")
        return issues  # shape mismatch makes the scans below unsafe
    if not np.all(np.isfinite(st.sigma)):
        issues.append("non-finite sigma entries")
    if np.any(st.sigma < 0):
        issues.append("negative sigma entries")
    if not np.all(np.isfinite(st.delta)):
        issues.append("non-finite delta entries")
    if not np.all(np.isfinite(st.bc)):
        issues.append("non-finite bc entries")
    if np.any(st.d < 0) or np.any(st.d > DIST_INF):
        issues.append("distances outside [0, DIST_INF]")
    return issues


@dataclass
class Guard:
    """Stateful guard driving a :class:`GuardPolicy` through a replay."""

    engine: object
    policy: GuardPolicy = field(default_factory=GuardPolicy)

    def __post_init__(self) -> None:
        self._rng = default_rng(self.policy.seed)
        self.repairs_used = 0
        self.events: List[GuardEvent] = []

    # ------------------------------------------------------------------
    def after_event(self, event_index: int) -> None:
        """Cadence hook: run a check when *event_index* hits the policy
        cadence (called by :func:`repro.graph.stream.replay` after each
        processed stream event)."""
        every = self.policy.check_every
        if every and (event_index + 1) % every == 0:
            self.check(event_index)

    def check(self, event_index: int = -1) -> List[GuardEvent]:
        """Run one detection/repair/escalation round; returns the
        events it recorded."""
        before = len(self.events)
        issues = structural_issues(self.engine)
        if issues:
            for issue in issues:
                self._record(event_index, DETECT, STRUCTURAL, detail=issue)
            self._escalate(event_index, STRUCTURAL, "; ".join(issues))
            return self.events[before:]
        drifted = self._sample_drift()
        for i in drifted:
            s = int(self.engine.state.sources[i])
            self._record(event_index, DETECT, ROW_DRIFT, i, f"source {s}")
            if self.repairs_used < self.policy.repair_budget:
                self.engine.repair_source(i)
                self.repairs_used += 1
                self._record(
                    event_index, REPAIR, ROW_DRIFT, i,
                    f"source {s} rebuilt "
                    f"({self.repairs_used}/{self.policy.repair_budget})",
                )
            else:
                self._escalate(
                    event_index, ROW_DRIFT,
                    f"repair budget {self.policy.repair_budget} exhausted",
                )
                return self.events[before:]
        # The bc vector must equal the left-fold of the stored δ rows
        # (the invariant BCState.compute establishes).  An update that
        # ran over a not-yet-repaired row can launder corruption into
        # bc while leaving every row individually clean; the fold check
        # catches that, and re-folding the (now clean) rows repairs it.
        st = self.engine.state
        fold = np.zeros_like(st.bc)
        for j in range(st.num_sources):
            fold += st.delta[j]
        if not np.allclose(st.bc, fold, atol=self.policy.atol, rtol=1e-9):
            self._record(event_index, DETECT, BC_DRIFT,
                         detail="bc != sum of delta rows")
            st.rebuild_bc()
            self._record(event_index, REPAIR, BC_DRIFT,
                         detail="bc re-folded from delta rows")
        return self.events[before:]

    # ------------------------------------------------------------------
    def _sample_drift(self) -> List[int]:
        """Sampled spot-check: which of the sampled rows drifted?"""
        k = self.engine.state.num_sources
        picks = self._rng.choice(
            k, size=min(self.policy.num_check_sources, k), replace=False
        )
        return self.engine.check_rows(sorted(picks), atol=self.policy.atol)

    def _escalate(self, event_index: int, kind: str, detail: str) -> None:
        self.engine.recompute()
        self._record(event_index, ESCALATE, kind, detail=f"full recompute: {detail}")

    def _record(
        self, event_index: int, action: str, kind: str,
        source_index: int = -1, detail: str = "",
    ) -> None:
        self.events.append(
            GuardEvent(int(event_index), action, kind, int(source_index), detail)
        )


def row_drift_component(
    graph, source: int, d_row: np.ndarray, sigma_row: np.ndarray,
    delta_row: np.ndarray, atol: float = 1e-6,
):
    """Name the first drifted component of one stored row against a
    fresh single-source recomputation, or ``None`` when the row is
    clean (``"distance"``/``"sigma"``/``"delta"``, checked in that
    order).

    This is the detection primitive of the ``check`` task
    (:mod:`repro.parallel.worker`) that every
    :meth:`DynamicBC.check_rows` and :meth:`DynamicBC.spot_check`
    round runs, in the parent or in a worker alike, so a guard run
    under ``DynamicBC(workers=N)`` reports exactly what the serial
    guard would.
    """
    from repro.bc.brandes import single_source_state

    source = int(source)
    d, sigma, delta, _ = single_source_state(graph, source)
    delta[source] = 0.0
    if not np.array_equal(d_row, d):
        return "distance"
    if not np.allclose(sigma_row, sigma, atol=atol):
        return "sigma"
    if not np.allclose(delta_row, delta, atol=atol):
        return "delta"
    return None
