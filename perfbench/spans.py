"""In-memory span recorder for the traced benchmark run.

A span is (name, parent span, start, end).  Spans are kept in flat arrays
while the run lasts, written out once at the end, and the per-layer numbers
are computed from them afterwards: a span's self time is its duration minus
the durations of its direct children.  Spans are recorded around calls into
drsplit's public functions by replacing module attributes with wrappers;
nothing inside the library is edited.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Spans:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._depth = []  # open spans per name id, for gated wrappers
        self.counts = Counter()  # values recorded by return hooks

    def name_to_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def is_open(self, name: str) -> bool:
        return self._depth[self.name_to_id(name)] > 0

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self._depth[nid] += 1
        self.start.append(_clock())
        return i

    def finish(self, i: int):
        self.end[i] = _clock()
        self._stack.pop()
        self._depth[self.name_id[i]] -= 1

    def wrap(self, name, fn, inside=None, on_return=None):
        """``fn`` wrapped in a span named ``name``.

        With ``inside`` the span is recorded only while a span of that name is
        open; other calls go straight through.  ``on_return(args, result)``
        runs after the span closes, so its cost is not charged to the layer.
        """
        nid = self.name_to_id(name)
        gate = None if inside is None else self.name_to_id(inside)
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if gate is not None and not depth[gate]:
                return fn(*args, **kwargs)
            i = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def table(self) -> "SpanTable":
        if self._stack:
            raise RuntimeError("spans still open")
        return SpanTable(list(self.names), np.frombuffer(self.name_id, np.int32),
                         np.frombuffer(self.parent, np.int32),
                         np.frombuffer(self.start), np.frombuffer(self.end))


class SpanTable:
    """Closed spans as numpy columns, with duration and self-time queries."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        self.duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(parent))
        self.self_time = self.duration - child

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), name_id=self.name_id,
                            parent=self.parent, start=self.start, end=self.end)

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def durations(self, *names) -> np.ndarray:
        return self.duration[self.mask(*names)]

    def self_times(self, *names) -> np.ndarray:
        return self.self_time[self.mask(*names)]

    def prefixed(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name_id, ids)

