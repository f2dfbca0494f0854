"""Structured exceptions for the resilience subsystem.

The dynamic algorithm's Achilles heel (paper §II-D) is its O(kn)
auxiliary state: one half-applied update or one corrupted row silently
poisons every future BC score.  These exception types make failures
*structured* — a caller always learns which update failed, at which
phase, and whether the engine rolled back to a consistent state —
instead of receiving a bare traceback over half-mutated arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ResilienceError(Exception):
    """Base class for all resilience-subsystem failures."""


class UpdateError(ResilienceError):
    """A streaming update failed mid-flight.

    When :attr:`rolled_back` is ``True`` (the transactional engine
    default) the engine's graph, per-source state rows, BC scores and
    counters have been restored to their exact pre-update values: the
    failed update simply never happened and the engine remains safe to
    use.

    Attributes
    ----------
    edge:
        The ``(u, v)`` pair whose update failed.
    operation:
        ``"insert"`` or ``"delete"``.
    source_index:
        Index of the source row being processed when the failure
        surfaced, or ``-1`` when the failure was not source-specific.
    rolled_back:
        Whether the engine state was restored to the pre-update
        snapshot.
    """

    def __init__(
        self,
        edge: Tuple[int, int],
        operation: str,
        cause: BaseException,
        source_index: int = -1,
        rolled_back: bool = True,
    ) -> None:
        self.edge = (int(edge[0]), int(edge[1]))
        self.operation = str(operation)
        self.cause = cause
        self.source_index = int(source_index)
        self.rolled_back = bool(rolled_back)
        state = "rolled back" if rolled_back else "NOT rolled back"
        where = (
            f" at source index {self.source_index}" if self.source_index >= 0 else ""
        )
        super().__init__(
            f"{self.operation} {self.edge} failed{where} "
            f"({type(cause).__name__}: {cause}); engine state {state}"
        )


class CorruptRowError(ResilienceError):
    """A stored source row is inconsistent with the graph: an update's
    kernel precondition failed on it, or the update produced a zero or
    non-finite σ̂ or a non-finite δ̂ for it.  Raised before the row is
    written.  :attr:`source_index` names the row, which
    :meth:`~repro.bc.engine.DynamicBC.repair_source` rebuilds."""

    def __init__(self, source_index: int, message: str) -> None:
        super().__init__(message)
        self.source_index = int(source_index)


class CheckpointError(ResilienceError):
    """A checkpoint file is unreadable, corrupt, or incompatible."""

    def __init__(self, path, reason: str, cause: Optional[BaseException] = None):
        self.path = str(path)
        self.reason = reason
        self.cause = cause
        super().__init__(f"{self.path}: {reason}")


class WalError(ResilienceError):
    """The write-ahead journal is corrupt, inconsistent, or misused.

    Raised for damage recovery cannot silently absorb: a corrupt
    record *before* the journal tail (a torn tail — the partial write
    of a crash — is truncated instead), a missing segment, a sequence
    gap between the journal and a checkpoint watermark, or an append
    against a closed/misaligned journal.  The message always names the
    offending path so an operator can act on it.
    """

    def __init__(self, path, reason: str, cause: Optional[BaseException] = None):
        self.path = str(path)
        self.reason = reason
        self.cause = cause
        super().__init__(f"{self.path}: {reason}")


class WalFencedError(WalError):
    """A journal write was refused because the writer's fencing epoch
    is stale.

    Raised when a :class:`~repro.resilience.wal.WriteAheadLog` holder
    tries to commit records after a replica was promoted (the fence
    file now carries a higher epoch): the holder has been *deposed*
    and must stop serving writes.  Nothing reaches disk — the check
    runs before any byte of the commit is written — so a deposed
    primary can never diverge the journal or acknowledge a write the
    new primary will not serve.
    """

    def __init__(self, path, held_epoch: int, current_epoch: int):
        self.held_epoch = int(held_epoch)
        self.current_epoch = int(current_epoch)
        super().__init__(
            path,
            f"writer fenced off: holds epoch {held_epoch} but the "
            f"journal is at epoch {current_epoch} (a replica was "
            f"promoted); refusing to append",
        )


class FaultInjected(RuntimeError):
    """Marker exception raised by an armed :class:`FaultInjector` trap.

    Deliberately *not* a :class:`ResilienceError`: injected faults model
    arbitrary foreign failures (device loss, OOM, a bug in a kernel),
    so recovery paths must not be able to special-case them.
    """
