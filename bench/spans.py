"""In-memory spans and counters recorded around calls into matbalance.

A span is ``(name, start_ns, end_ns, parent_index, op_id)``; spans of one
operation share ``op_id`` and the operation's own span is their parent.
The untraced run and warm-up calls use :data:`OFF`, whose spans and
counters do nothing.  Parent indices count within one traced round, the
unit that ``Tracer.fold`` keeps and writes out.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.op_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t.stack.pop()
        return False


class Tracer:
    """Records spans and counts; ``fold`` turns them into per-layer totals."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.op_id = 0
        self.kept: list[list] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def fold(self, keep: bool) -> None:
        """Add finished spans to the busy totals; keep them for the trace file if asked."""
        for name, start, end, _parent, _op in self.spans:
            self.busy_ns[name] += end - start
        if keep:
            self.kept.extend(self.spans)
        self.spans = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.kept:
                fh.write(json.dumps(span) + "\n")


class _Off:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    op_id = 0
    _off = _Off()

    def span(self, name: str) -> _Off:
        return self._off

    def count(self, name: str, n: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass


OFF = _NullTracer()
