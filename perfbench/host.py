"""Host fingerprint and process memory, recorded with every result.

Two results are comparable only when their fingerprints match
(:func:`comparable`): same core count, CPU model, interpreter, NumPy and
GIL switch interval.  The fsync median in the journal's directory is
recorded, not compared: on one disk it moves several-fold between runs
minutes apart.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import sys
import time

#: fsync probes per fingerprint (one 4 KiB write + fsync each)
FSYNC_PROBES = 21
#: fingerprint fields that must be equal for results to be compared
IDENTITY = ("nproc", "cpu_model", "python", "numpy", "switch_interval_s")


def fsync_p50_ms(directory) -> float:
    """Median wall time of a 4 KiB append plus fsync in *directory*."""
    path = os.path.join(directory, "fsync-probe")
    times = []
    with open(path, "wb") as fh:
        for _ in range(FSYNC_PROBES):
            start = time.perf_counter()
            fh.write(b"\0" * 4096)
            fh.flush()
            os.fsync(fh.fileno())
            times.append(time.perf_counter() - start)
    os.unlink(path)
    return statistics.median(times) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(directory) -> dict:
    """The host facts a result depends on; *directory* is where the
    journal lives, so the fsync probe measures that disk."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "switch_interval_s": sys.getswitchinterval(),
        "fsync_p50_ms": fsync_p50_ms(directory),
    }


def comparable(a: dict, b: dict) -> list:
    """Reasons the two fingerprints differ (empty when comparable)."""
    return [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
            for key in IDENTITY if a.get(key) != b.get(key)]


#: the reference computation: breadth-first searches over a fixed random
#: graph (REF_N vertices, REF_DEGREE out-edges each) from REF_SOURCES
#: sources, gathering each frontier vertex's neighbours in Python and
#: merging them with NumPy, like the program's per-level update loops
#: but with none of its code
REF_N = 2000
REF_DEGREE = 10
REF_SOURCES = 3
#: one slice's median time on the reference host (2-vCPU Intel Xeon VM,
#: Python 3.11.7, NumPy 2.4.6)
REFERENCE_SLICE_S = 0.010


def _reference_graph():
    import numpy as np

    rng = np.random.default_rng(REF_N)
    src = rng.integers(0, REF_N, REF_N * REF_DEGREE)
    dst = rng.integers(0, REF_N, REF_N * REF_DEGREE)
    order = np.argsort(src, kind="stable")
    return (np.searchsorted(src[order], np.arange(REF_N + 1)).tolist(),
            dst[order])


def reference_slice(graph) -> float:
    """Wall seconds of one slice of the reference computation."""
    import numpy as np

    indptr, indices = graph
    start = time.perf_counter()
    for source in range(REF_SOURCES):
        dist = np.full(REF_N, -1)
        dist[source] = 0
        frontier = [source]
        level = 0
        while len(frontier):
            level += 1
            reached = np.unique(np.concatenate(
                [indices[indptr[v]:indptr[v + 1]] for v in frontier]))
            frontier = reached[dist[reached] < 0]
            dist[frontier] = level
    return time.perf_counter() - start


class HostSpeed:
    """The shared host's speed during a run, from slices of a fixed
    reference computation run at the run's idle points.

    The host's speed drifts by tens of percent over minutes, and the
    program's throughput with it.  :meth:`normalize` scales a rate to
    the reference host's speed, so runs minutes apart measure the
    program rather than its neighbours; the raw figure is reported
    beside it.
    """

    def __init__(self):
        self._graph = _reference_graph()
        reference_slice(self._graph)  # warm-up, untimed
        self.samples = []

    def sample(self, slices: int = 1) -> float:
        """Run *slices* slices on each CPU the process may use, with the
        calling thread pinned to it (the CPUs' speeds drift apart, and
        the program's threads run on either); returns the seconds the
        slices took."""
        cpus = os.sched_getaffinity(0)
        taken = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                taken += [reference_slice(self._graph) for _ in range(slices)]
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.extend(taken)
        return sum(taken)

    def speed(self) -> float:
        """Host speed relative to the reference host (1.0 = as fast)."""
        return REFERENCE_SLICE_S / statistics.median(self.samples)

    def normalize(self, rate: float) -> float:
        """*rate* as the reference host would have measured it."""
        return rate / self.speed()

    def normalize_time(self, seconds: float) -> float:
        """*seconds* of work as the reference host would have timed it."""
        return seconds * self.speed()


def _hwm_kib(pid) -> int:
    """Peak resident set (VmHWM) of one process, in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of each live child process
    (the worker pool), in MiB.  Call it before the pool is closed."""
    total = _hwm_kib("self")
    for child in multiprocessing.active_children():
        total += _hwm_kib(child.pid)
    return total / 1024.0
