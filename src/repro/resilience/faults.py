"""Deterministic fault injection (the chaos harness).

Guards and transactions are only trustworthy if they are exercised
against the failures they claim to survive.  :class:`FaultInjector` is
a seeded source of exactly the fault classes the resilience subsystem
handles:

* **state-row corruption** — deterministic bit-rot in one source's
  ``d``/``sigma``/``delta`` row (what the guard classifies as
  *row drift* and repairs in place);
* **structural corruption** — non-finite/negative values that make the
  whole state untrustworthy (what the guard escalates on);
* **mid-kernel faults** — a one-shot trap that raises
  :class:`~repro.resilience.errors.FaultInjected` partway through an
  update, after some source rows are already written (what the
  engine's update transaction rolls back), or on a pooled engine a
  worker crash (what the pool's supervisor retries);
* **journal disk faults** — a seeded ``ENOSPC``/``EIO`` at the
  journal's append, write, or fsync stage (what the durable service
  must answer with a refused ack and read-only degradation, never a
  torn acked record);
* **malformed stream input** — bad CSV rows for
  :meth:`EdgeStream.load`'s validation;
* **file corruption** — a flipped byte to trip the checkpoint
  checksum.

Everything is driven by one seeded generator, so a failing chaos run
is reproducible from its seed alone (the CI job prints it).
"""

from __future__ import annotations

import errno
import os
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import DIST_INF
from repro.resilience.errors import FaultInjected
from repro.utils.prng import SeedLike, default_rng

#: row-corruption flavours
ROW_KINDS = ("d", "sigma", "delta")


class FaultInjector:
    """Seeded chaos harness; every injection is logged."""

    def __init__(self, seed: SeedLike = 0) -> None:
        self.rng = default_rng(seed)
        self.log: List[str] = []

    # ------------------------------------------------------------------
    # State corruption
    # ------------------------------------------------------------------
    def corrupt_row(self, engine, kind: Optional[str] = None) -> Tuple[int, str]:
        """Corrupt one random source row of *engine*'s state.

        The damage stays *structurally valid* (finite, non-negative) so
        a guard must classify it as row drift, not structural
        corruption.  Returns ``(source_index, kind)``.
        """
        st = engine.state
        i = int(self.rng.integers(0, st.num_sources))
        kind = kind if kind is not None else str(self.rng.choice(ROW_KINDS))
        s = int(st.sources[i])
        # Target a vertex reachable from the source but not the source
        # itself, so every flavour is a real, detectable drift.
        reachable = np.flatnonzero(
            (st.d[i] != DIST_INF) & (np.arange(st.num_vertices) != s)
        )
        v = s if reachable.size == 0 else int(self.rng.choice(reachable))
        if kind == "d":
            st.d[i, v] += 1
        elif kind == "sigma":
            st.sigma[i, v] = st.sigma[i, v] * 2.0 + 1.0
        elif kind == "delta":
            st.delta[i, v] += 0.5
        else:
            raise ValueError(f"unknown row-corruption kind {kind!r}")
        self.log.append(f"corrupt_row source_index={i} kind={kind} vertex={v}")
        return i, kind

    def corrupt_structural(self, engine) -> str:
        """Inject structurally-invalid damage (NaN σ or negative σ)."""
        st = engine.state
        i = int(self.rng.integers(0, st.num_sources))
        v = int(self.rng.integers(0, st.num_vertices))
        if bool(self.rng.integers(0, 2)):
            st.sigma[i, v] = np.nan
            detail = f"sigma[{i},{v}]=nan"
        else:
            st.sigma[i, v] = -1.0
            detail = f"sigma[{i},{v}]=-1"
        self.log.append(f"corrupt_structural {detail}")
        return detail

    # ------------------------------------------------------------------
    # Mid-update faults
    # ------------------------------------------------------------------
    def arm_update_fault(self, engine, after_sources: int = 1) -> None:
        """One-shot trap: the engine's next update raises
        :class:`FaultInjected` once *after_sources* source rows have
        been written, mid-way through the update.  The trap sits on
        the engine's ``_before_commit`` seam, which the engine's commit
        calls before writing each active row (and the per-source loop
        before each source's kernel), so the rows written before it
        fires must be rolled back.  The trap disarms itself (and
        restores the engine) when it fires.

        On an engine with a live worker pool (``workers > 1``) the trap
        instead kills the forked worker that gets the next pool round's
        first forked chunk (the parent computes the round's first share
        itself) — the pool-era equivalent of dying mid-batch.  The two
        flavours end differently: the serial trap surfaces as a
        rolled-back :class:`~repro.resilience.errors.UpdateError`,
        while the pool's supervisor respawns the worker and retries
        the round — workers write no state rows, so there is nothing
        to restore first — and the update lands bit-identical to a
        clean run (one ``deaths`` and one ``respawns`` in
        :meth:`DynamicBC.health_report`).
        """
        if after_sources < 0:
            raise ValueError(f"after_sources must be >= 0, got {after_sources}")
        pool = engine._ensure_pool()
        if pool is not None:
            pool.arm_crash()
            self.log.append("arm_update_fault armed worker crash (pool mode)")
            return
        original = engine._before_commit
        calls = {"n": 0}
        log = self.log

        def tripwire(i):
            if calls["n"] >= after_sources:
                engine._before_commit = original
                original(i)
                log.append(f"update fault fired after {calls['n']} sources")
                raise FaultInjected(
                    f"injected mid-update fault after {calls['n']} sources"
                )
            calls["n"] += 1
            return original(i)

        engine._before_commit = tripwire
        self.log.append(f"arm_update_fault after_sources={after_sources}")

    def arm_update_stall(self, engine, chunks: int = 1, rounds: int = 1) -> None:
        """One-shot trap: the forked worker(s) getting the next pool
        round's first forked chunk(s) freeze (``SIGSTOP``) instead of
        crashing — the hang the supervisor's heartbeat deadline must
        catch and SIGKILL.

        On a pooled engine this arms the pool's stall marks directly.
        On a serial engine it degrades to the mid-kernel
        :class:`FaultInjected` trap (a serial engine cannot hang
        part-way and keep serving).
        """
        pool = engine._ensure_pool()
        if pool is not None:
            pool.arm_stall(chunks=chunks, rounds=rounds)
            self.log.append("arm_update_stall armed worker stall (pool mode)")
            return
        original = engine._before_commit
        log = self.log

        def tripwire(i):
            engine._before_commit = original
            original(i)
            log.append("update stall fired (serial tripwire)")
            raise FaultInjected("injected stall-equivalent serial fault")

        engine._before_commit = tripwire
        self.log.append("arm_update_stall degraded to serial tripwire")

    # ------------------------------------------------------------------
    # Journal disk faults
    # ------------------------------------------------------------------
    def arm_wal_fault(self, wal, stage: str = "fsync",
                      errno_code: int = errno.ENOSPC,
                      count: int = 1) -> None:
        """Trap: the journal's next *count* visits to *stage* raise
        ``OSError(errno_code)`` — a full disk (ENOSPC) or a dying one
        (EIO) at exactly the byte the durability contract hinges on.

        Stages map to :class:`~repro.resilience.wal.WriteAheadLog`'s
        write path: ``"append"`` fails before the record is even
        buffered (the submitter sees a clean rejection), ``"write"``
        fails mid-commit after some records of the group may already
        be on disk (the torn-tail shape), and ``"fsync"`` fails at the
        durability barrier itself — records written but never made
        durable, the most dangerous moment to lie about an ack.  In
        every case the journal must refuse the ack and latch failed
        (``tests/test_service_replication.py``).  The trap disarms
        itself after *count* firings.
        """
        if stage not in ("append", "write", "fsync"):
            raise ValueError(f"unknown wal fault stage {stage!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        remaining = {"n": int(count)}
        log = self.log

        def trap(point: str) -> None:
            if point != stage or remaining["n"] <= 0:
                return
            remaining["n"] -= 1
            if remaining["n"] == 0:
                wal.fault_hook = None
            log.append(f"wal fault fired at {point} "
                       f"(errno {errno_code})")
            raise OSError(errno_code, os.strerror(errno_code),
                          wal.directory)

        wal.fault_hook = trap
        self.log.append(f"arm_wal_fault stage={stage} "
                        f"errno={errno_code} count={count}")

    # ------------------------------------------------------------------
    # Malformed input / file corruption
    # ------------------------------------------------------------------
    def malformed_stream_rows(self, count: int = 4) -> List[str]:
        """CSV rows that :meth:`EdgeStream.load` must reject with a
        ``path:lineno`` diagnostic (never a raw ``int()`` traceback)."""
        candidates = [
            "1.0,3,4,upsert",  # invalid op
            "1.0,-2,4,insert",  # negative vertex id
            "1.0,a,4,insert",  # non-integer vertex id
            "oops,3,4,delete",  # non-numeric timestamp
            "1.0,3,insert",  # wrong column count
            "1.0,5,5,insert",  # self loop
        ]
        picks = self.rng.choice(len(candidates), size=min(count, len(candidates)),
                                replace=False)
        return [candidates[int(j)] for j in picks]

    def corrupt_file(self, path) -> int:
        """Flip one byte near the middle of *path*; returns the offset."""
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        if not blob:
            raise ValueError(f"{path} is empty")
        offset = len(blob) // 2
        blob[offset] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        self.log.append(f"corrupt_file {path} offset={offset}")
        return offset
