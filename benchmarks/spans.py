"""In-memory span recorder for the traced pass.

Each span holds a name, start and end times, the index of the span that
was open when it started (its parent, -1 for a root) and the request it
belongs to. The recorder wraps functions from outside the program, so the
program itself carries no tracing code: `patched` swaps module or class
attributes for recording wrappers and puts the originals back afterwards.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request = 0
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str | None, fn: Callable,
             count: Callable[[Counter, Any], None] | None = None) -> Callable:
        """A stand-in for fn that records a span (unless name is None) and
        passes the return value to count."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = (self.call(name, fn, *args, **kwargs) if name is not None
                      else fn(*args, **kwargs))
            if count is not None:
                count(self.counts, result)
            return result
        return wrapper

    def totals(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, summed duration, and summed self
        time (duration minus the time covered by direct children; calls are
        sequential, so children never overlap). With root, only spans under
        a root span of that name count."""
        child_time = [0.0] * len(self.spans)
        root_of = list(range(len(self.spans)))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:                  # a parent is recorded before its children
                child_time[parent] += end - start
                root_of[i] = root_of[parent]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if root is not None and self.spans[root_of[i]][0] != root:
                continue
            covered = child_time[i]
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return dict(out)


@contextmanager
def patched(replacements: Iterable[tuple[object, str, Callable]]):
    """Set each owner.attribute to its replacement for the duration of the
    block and restore the original objects on exit."""
    replacements = list(replacements)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
