"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent)``; spans nest through a stack
(the benchmark drives one layer call at a time from one thread). They
stay in memory and are written once, at the end of the run."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of its interval its
        direct children cover (children of one span may not overlap
        each other here, but they are merged as intervals anyway)."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, cur_lo, cur_hi = 0.0, None, None
            for c in sorted(kids.get(i, []), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((s.end - s.start) - covered)
        return out

    def total(self, name: str) -> float:
        """Summed wall of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def coverage(self, root: str) -> float:
        """Summed self time of the descendants of the (single) span
        ``root`` over that span's wall: the share of the job the layer
        spans account for."""
        (ri,) = [i for i, s in enumerate(self.spans) if s.name == root]
        st = self.self_times()

        def under(i: int) -> bool:
            p = self.spans[i].parent
            while p is not None:
                if p == ri:
                    return True
                p = self.spans[p].parent
            return False

        desc = sum(t for i, t in enumerate(st) if under(i))
        r = self.spans[ri]
        return desc / (r.end - r.start)

    def dump(self, path: str) -> None:
        st = self.self_times()
        with open(path, "w") as fh:
            for s, t in zip(self.spans, st):
                fh.write(
                    json.dumps(
                        {"name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "self_s": t}
                    )
                    + "\n"
                )
