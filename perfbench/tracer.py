"""Span tracing from outside the program.

A ``Patcher`` replaces a name where its caller looks it up (a module global
such as ``leoroute.netsim.propagate`` or a class attribute such as
``ObsRouter.choose``) and puts every original back on exit. ``Tracer`` wraps
those names so each call records a span: name, start, end and the span that
was open when it started. Spans are held in flat arrays in memory, written
out once at the end, and self time is derived from the span tree.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np


class Patcher:
    """Replace attributes for the length of a ``with`` block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def capture(self, owner, attr: str, into: list) -> None:
        """Record the instance each call of the method ``owner.attr`` runs on."""
        fn = owner.__dict__[attr]

        def wrapper(obj, *args, **kwargs):
            into.append(obj)
            return fn(obj, *args, **kwargs)

        self.set(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


class Tracer:
    """In-memory span recorder plus plain call counters."""

    def __init__(self, patcher: Patcher):
        self.patcher = patcher
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, idle_name: str | None = None):
        """Return ``fn`` recording one span per call. When ``idle_name`` is
        given, a call that returns None is recorded under that name instead
        (a call that did no work)."""
        nid = self._id(name)
        idle = self._id(idle_name) if idle_name else -1
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if out is None and idle >= 0:
                names[idx] = idle
            return out

        return wrapper

    def span(self, owner, attr: str, name: str, idle_name: str | None = None) -> None:
        self.patcher.set(owner, attr,
                         self.wrap(name, owner.__dict__[attr], idle_name))

    def count(self, owner, attr: str, name: str) -> None:
        fn = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self.patcher.set(owner, attr, wrapper)

    # -- analysis ------------------------------------------------------------
    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return name, dur, dur - child

    def by_name(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Span name -> (inclusive durations, self durations), in ns."""
        name, dur, self_ns = self.arrays()
        return {n: (dur[name == i], self_ns[name == i])
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span and counter: names index into ``names``; parent
        is the index of the enclosing span, -1 for a root."""
        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 names=np.array(self.names),
                 counts=np.frombuffer(json.dumps(dict(self.counts)).encode(),
                                      dtype=np.uint8))
