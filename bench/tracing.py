"""In-memory spans around the benchmark's calls into the library.

A traced run opens one ``op`` span per operation and one child span per call
the benchmark makes into a library function.  Spans of one operation share
its op id.  Nothing is written while the run measures; ``to_json`` hands the
spans over once the run has ended.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    op_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans; ``call`` wraps one library call in a span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._next_id = 0

    @contextmanager
    def op(self, op_id: int):
        self._op_id = op_id
        with self._span("op"):
            yield

    def call(self, name: str, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def _span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self._op_id, span_id, parent, name, start, end))

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self time in seconds per (op id, span name): duration minus child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.end - s.start
        out: dict[tuple[int, str], float] = defaultdict(float)
        for s in self.spans:
            out[(s.op_id, s.name)] += (s.end - s.start) - child_time[s.span_id]
        return dict(out)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.span_id)]


class NullTracer:
    """The untraced path: calls go straight through."""

    @contextmanager
    def op(self, op_id: int):
        yield

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
