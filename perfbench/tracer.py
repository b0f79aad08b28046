"""Span recording from outside the program: wrap a layer's public calls.

The benchmark never edits ``src/``.  Instead, :meth:`Tracer.wrap` replaces
a bound method on one *instance* with a wrapper that records a span around
each call.  Spans are kept in memory (one list append per call) and
written out once, when the benchmark ends.

A span is ``(name, start, end, parent index, thread id)``; the parent is
the innermost open span on the same thread.  A layer's self time is the
sum of its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import json
import threading
import time


class Tracer:
    """In-memory span recorder shared by every wrapped call of one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = True

    def wrap(self, obj, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)`` call.

        ``on_result(span_index, result, args)`` runs after the call so the
        caller can keep public return values (counters, strategies, seqs)
        next to the span that produced them.
        """
        inner = getattr(obj, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else -1
            span = [name, time.monotonic(), 0.0, parent, threading.get_ident()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if on_result is not None:
                on_result(index, result, args)
            return result

        setattr(obj, attr, wrapper)

    def by_name(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time (span minus direct children) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, __ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, __, __) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, __, __ in self.spans if n == name)

    def write(self, path) -> None:
        """Write every span as one JSON document (called once, at exit)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "thread"],
                 "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
