"""Resilience subsystem: transactional updates, self-healing guards,
checkpoint/restore, and deterministic fault injection.

The dynamic-BC engine's O(kn) auxiliary state is its performance
advantage *and* its biggest operational liability (one corrupted row
silently poisons every future score).  This package makes long-running
streams survivable:

* :mod:`repro.resilience.errors` — structured failure types;
* :mod:`repro.resilience.transactions` — per-update undo journal
  backing the engine's atomic ``_apply``;
* :mod:`repro.resilience.guards` — cadence spot-checks, drift
  classification, in-place row repair, escalation to full recompute;
* :mod:`repro.resilience.checkpoint` — versioned, checksummed NPZ
  checkpoints with atomic writes and bit-identical resume;
* :mod:`repro.resilience.wal` — segmented, CRC-checked write-ahead
  event journal (group-commit fsync, torn-tail truncation, segment GC
  tied to checkpoint watermarks) backing the service's ``ack_durable``
  RPO-zero contract, plus the replication primitives on top of it:
  ``WalTailer`` incremental shipping, epoch fencing tokens, and
  replica retention positions;
* :mod:`repro.resilience.faults` — seeded chaos harness;
* :mod:`repro.resilience.chaos` — end-to-end seeded chaos scenario
  (the CI chaos job and ``python -m repro.cli chaos``);
* :mod:`repro.resilience.drill` — kill -9 crash drills: a live
  ``serve`` subprocess is SIGKILLed mid-stream, recovered from
  checkpoint + journal, and differentially checked against the
  no-crash oracle (the CI crash-drill job and
  ``python -m repro.cli drill``).

See ``docs/RESILIENCE.md`` for the fault model and recovery matrix.
"""

from repro.resilience.chaos import ChaosReport, run_chaos
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    find_checkpoints,
    load_checkpoint,
    load_newest_valid,
    resolve_resume,
    retain_checkpoints,
    save_checkpoint,
)
from repro.resilience.errors import (
    CheckpointError,
    CorruptRowError,
    FaultInjected,
    ResilienceError,
    UpdateError,
    WalError,
    WalFencedError,
)
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import Guard, GuardEvent, GuardPolicy
from repro.resilience.transactions import UpdateTransaction
from repro.resilience.wal import (
    WAL_VERSION,
    WalScan,
    WalTailer,
    WriteAheadLog,
    clear_replica_position,
    read_fence,
    record_replica_position,
    replica_positions,
    scan_wal,
    write_fence,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "ChaosReport",
    "Checkpoint",
    "CheckpointError",
    "CorruptRowError",
    "FaultInjected",
    "FaultInjector",
    "Guard",
    "GuardEvent",
    "GuardPolicy",
    "ResilienceError",
    "UpdateError",
    "UpdateTransaction",
    "WAL_VERSION",
    "WalError",
    "WalFencedError",
    "WalScan",
    "WalTailer",
    "WriteAheadLog",
    "clear_replica_position",
    "find_checkpoints",
    "load_checkpoint",
    "load_newest_valid",
    "read_fence",
    "record_replica_position",
    "replica_positions",
    "resolve_resume",
    "retain_checkpoints",
    "run_chaos",
    "save_checkpoint",
    "scan_wal",
    "write_fence",
]
