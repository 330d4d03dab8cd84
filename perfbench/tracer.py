"""Spans with parent ids, recorded around calls into wrapped functions.

A span is (name, parent span, start, end).  Spans of one pass are kept in
flat arrays and folded into per-name totals after the pass: a span's self
time is its duration minus the durations of its direct children, which is
exact because every call is nested in its caller on one thread.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []          # span name by id
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patches = []
        self._nested_pairs = []  # (child name, ancestor name) to count
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.nested = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace owner.attr by a wrapper that records a span per call.

        `after(args, result)` runs once the call returns, outside the span.
        """
        orig = getattr(owner, attr)
        nid = self._id(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = len(self._name)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(i)
            self._start.append(time.perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                self._end[i] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self):
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def count_nested(self, child: str, ancestor: str):
        """Also count `child` spans that have an `ancestor` span above them."""
        self._nested_pairs.append((self._id(child), self._id(ancestor)))

    def fold(self):
        """Add the recorded spans to the per-name totals and drop them."""
        if self._stack:
            raise RuntimeError("cannot fold while spans are open")
        n = len(self._name)
        if n == 0:
            return
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child_s = np.zeros(n)
        np.add.at(child_s, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child_s, minlength=k)
        for i, label in enumerate(self.names):
            self.calls[label] = self.calls.get(label, 0) + int(calls[i])
            self.total_s[label] = self.total_s.get(label, 0.0) + float(total[i])
            self.self_s[label] = self.self_s.get(label, 0.0) + float(own[i])
        for child, ancestor in self._nested_pairs:
            anc = parent[name == child]
            found = np.zeros(len(anc), dtype=bool)
            while np.any(anc >= 0):
                live = anc >= 0
                found[live] |= name[anc[live]] == ancestor
                anc[live] = parent[anc[live]]
            key = (self.names[child], self.names[ancestor])
            self.nested[key] = self.nested.get(key, 0) + int(found.sum())
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
