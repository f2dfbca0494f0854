"""Atomic, durable file writes — the one way the repo produces
durable artifacts.

Every on-disk artifact a crash must not be able to corrupt (graph
files, edge streams, workloads, checkpoints) goes through
:func:`atomic_write`: the bytes land in a temporary file in the target
directory, are fsynced, and only then renamed over the destination, so
a reader can observe either the complete old file or the complete new
one — never a truncated hybrid.  The static analyzer's rule R006 bans
plain ``open(path, "w")`` writes to durable paths in ``resilience/``
and ``service/`` precisely so this helper (or the equivalent inline
tmp + fsync + ``os.replace`` pattern) is the only route.
"""

from __future__ import annotations

import contextlib
import os

__all__ = ["atomic_write", "fsync_dir"]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Context manager yielding a file handle whose contents replace
    *path* atomically on success.

    The handle writes to ``<path>.tmp`` in the same directory; on a
    clean exit the data is flushed, fsynced, and renamed over *path*
    with :func:`os.replace`.  On an exception the temporary file is
    removed and *path* is left untouched.
    """
    if "r" in mode or "+" in mode:
        raise ValueError(f"atomic_write requires a write-only mode, got {mode!r}")
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def fsync_dir(path) -> None:
    """fsync a directory so a rename/creation inside it is durable.

    Best-effort: platforms (or filesystems) that refuse to fsync a
    directory fd are silently tolerated — the data-file fsync has
    already happened and the rename is atomic either way.
    """
    with contextlib.suppress(OSError):
        fd = os.open(os.fspath(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
