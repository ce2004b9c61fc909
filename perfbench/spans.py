"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer: name, start, end, parent span and the
id of the request it belongs to, plus optional work counts.  Spans stay in
memory until the run ends; self time is a span's duration minus the part of
it that child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []

    @contextmanager
    def span(self, name, **counts):
        """Time the block; the yielded dict takes work counts for this span."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name, start, end, **counts):
        """Record a span timed elsewhere, such as inside a child process.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so a child's readings fall on the same time line.
        """
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "request": self.request,
            "start": start,
            "end": end,
            "counts": dict(counts),
        })


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    enabled = False
    request = None

    def span(self, name, **counts):
        return nullcontext({})


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def aggregate(spans):
    """Span name -> {"calls", "self_s" (total), "counts" (totals)}."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += selfs[s["id"]]
        for key, value in s["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out
