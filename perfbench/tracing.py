"""Spans recorded from outside the program, by wrapping the public
functions each layer exposes at the binding its caller uses.

``repro.bc.engine`` imports its kernels by name, so the engine's calls
go through ``repro.bc.engine.adjacent_level_update`` and not through the
``repro.bc.update_core`` attribute; every wrap point names the
binding the caller actually looks up (see :mod:`layers`).  Methods are
wrapped on their class, so every instance (pool, journal, service core)
is covered.

A span is ``(id, name, start, end, parent, request, thread)``.  Parents
are tracked per thread; spans of one request share the request id held
in :data:`REQUEST` (a context variable, so concurrent asyncio tasks keep
their own).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: id of the request the current code works for (-1: none)
REQUEST = contextvars.ContextVar("perfbench_request", default=-1)


class Tracer:
    """Wraps layer functions, records their spans, attributes time."""

    def __init__(self) -> None:
        self.spans = []
        self.thread_names = {}
        self.counts = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    # ------------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self.thread_names[threading.get_ident()] = (
                threading.current_thread().name
            )
        return stack

    def wrap(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a span-recording wrapper named
        *name*.  ``on_call(args, result, start, end)`` runs after each
        call, for counts taken at the same boundary."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        # span() inlined: this runs on every kernel and accountant call
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              REQUEST.get(), threading.get_ident()))
            if on_call is not None:
                on_call(args, result, start, end)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code
        that calls into a layer (e.g. an engine build)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, REQUEST.get(),
                               threading.get_ident()))

    def restore(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def calls(self, name) -> int:
        """Number of spans called *name*."""
        return sum(1 for s in self.spans if s[1] == name)

    def durations(self, name, start, end) -> float:
        """Summed duration of the spans called *name* that started
        between *start* and *end*."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[1] == name and start <= s[2] < end)

    def attribution(self, window_start, window_end):
        """Self time per span name and thread over the window.

        A span's self time is its duration minus the part its child
        spans (same thread, nested) cover.  Per thread, the self times
        plus ``other`` (time inside no span) add up to the window's
        wall time exactly.  Returns ``{thread: {name: seconds,
        "other": s}}`` and the wall time.
        """
        wall = window_end - window_start

        def inside(start, end):
            return max(0.0, min(end, window_end) - max(start, window_start))

        own = {s[0]: inside(s[2], s[3]) for s in self.spans}
        for _, _, start, end, parent, _, _ in self.spans:
            if parent in own:
                own[parent] -= inside(start, end)
        table = defaultdict(Counter)
        for sid, name, start, end, _, _, thread in self.spans:
            if end > window_start and start < window_end:
                table[self.thread_names.get(thread, str(thread))][name] += own[sid]
        out = {}
        for thread, names in sorted(table.items()):
            row = {name: names[name] for name in sorted(names)}
            row["other"] = wall - sum(names.values())
            out[thread] = row
        return out, wall

    def self_seconds(self, attribution, *names) -> float:
        """Self time of the named spans summed over all threads."""
        return sum(row.get(name, 0.0)
                   for row in attribution.values() for name in names)

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\tthread\n")
            for sid, name, start, end, parent, request, thread in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{request}\t{self.thread_names.get(thread, thread)}\n")
