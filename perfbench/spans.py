"""Span log and the statistics the benchmark reports from it.

A span is one call of a probed function: name, start, end (ns from
time.perf_counter_ns), the span that was open when it began, and a
request id (the control-period index). Spans live in flat lists while
the run lasts and are written out once at the end.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

TAIL_MIN = 10   # samples a reported tail percentile must have beyond it


def percentile(values, q: float) -> tuple[float, float]:
    """Nearest-rank percentile under the ten-beyond rule.

    Returns (value, q_used). For q > 50 the rank is lowered until at
    least TAIL_MIN samples lie beyond it, so the result is the highest
    percentile up to q that the sample count supports; with TAIL_MIN or
    fewer samples that is the median. Empty input gives (0.0, q).
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, q
    k = max(0, math.ceil(q / 100.0 * n) - 1)
    if q > 50.0:
        k = max(min(k, n - 1 - TAIL_MIN), (n - 1) // 2)
    return float(xs[k]), 100.0 * (k + 1) / n


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


class SpanLog:
    """Spans in parallel lists, parents taken from a call stack."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.extra: dict[int, object] = {}
        self.request_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int = -1,
            request: int = -1) -> int:
        """Append a finished span (for tests and synthetic spans)."""
        idx = len(self.names)
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return idx

    def self_times(self) -> list[int]:
        """Each span's duration minus the union of its children's
        intervals, clipped to the span. Children are visited in start
        order, so a running right edge merges overlaps."""
        covered = [0] * len(self.names)
        edge: dict[int, int] = {}
        order = sorted(range(len(self.names)), key=self.start.__getitem__)
        for c in order:
            p = self.parent[c]
            if p < 0:
                continue
            lo = max(self.start[c], self.start[p], edge.get(p, self.start[p]))
            hi = min(self.end[c], self.end[p])
            if hi > lo:
                covered[p] += hi - lo
            edge[p] = max(edge.get(p, self.start[p]), hi)
        return [self.end[i] - self.start[i] - covered[i]
                for i in range(len(self.names))]

    def write_csv(self, path: Path) -> None:
        lines = ["index,name,start_ns,end_ns,parent,request"]
        lines += [f"{i},{self.names[i]},{self.start[i]},{self.end[i]},"
                  f"{self.parent[i]},{self.request[i]}"
                  for i in range(len(self.names))]
        path.write_text("\n".join(lines) + "\n")
