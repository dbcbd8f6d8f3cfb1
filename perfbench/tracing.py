"""Spans, counts and the statistics the benchmark reports.

Pure standard library, no ``repro`` import: the orchestrator in ``run.py``
aggregates with these helpers without loading the program, and the
benchmark's own tests exercise them in isolation.

A span is one timed call from the benchmark into a layer of the program:
a name, a start and an end (``time.perf_counter`` seconds), the span that
caused it, and the id of the request (plan, conversion, HTTP request) it
belongs to.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples a percentile must leave beyond it before it is reported.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation.

    The same rule as ``statistics.quantiles(method="inclusive")`` and
    NumPy's default, for one cut point.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float], default: float = 0.0) -> float:
    """The median, or *default* when there are no samples."""
    return percentile(values, 50.0) if values else default


def highest_percentile(count: int, beyond: int = TAIL_SAMPLES) -> int:
    """The highest whole percentile with at least *beyond* samples above it.

    With *count* samples, percentile ``p`` leaves ``count * (1 - p/100)``
    samples beyond it; the answer is the largest ``p`` keeping that at or
    above *beyond*, or 0 when *count* is too small for any.  A run must
    reach 100 samples before its p90 means anything.
    """
    if count < beyond:
        return 0
    return int(math.floor(100.0 * (count - beyond) / count + 1e-9))


def merge_intervals(intervals: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Union of ``(start, end)`` intervals as sorted, disjoint intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Span id -> the span's duration minus the part its children cover.

    Children may overlap each other (calls from concurrent threads), so
    the covered part is the union of the children's intervals, clipped to
    the parent's own interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [(max(start, s), min(end, e))
                   for s, e in children.get(span["id"], ()) if e > start
                   and s < end]
        covered = sum(e - s for s, e in merge_intervals(clipped))
        result[span["id"]] = (end - start) - covered
    return result


def self_time_by_name(spans: Sequence[Dict]) -> Dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


class Tracer:
    """In-memory span and count recorder, safe to share between threads.

    A span opened on a thread with no open span of its own (a session
    pool thread, a heartbeat thread) takes the innermost span open on the
    thread that created the tracer as its parent, so store calls made on
    the program's threads attach to the plan the benchmark is waiting on.
    A disabled tracer records nothing and costs one attribute test.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: List[Dict] = []
        self._owner = threading.get_ident()

    def _stack(self) -> List[Dict]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """Time the enclosed block as span *name*."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        # A slice, not an index: the owner thread may pop concurrently.
        ambient = self._owner_stack[-1:]
        parent = stack[-1] if stack else (ambient[0] if ambient else None)
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "request": request if request is not None else (
                      parent["request"] if parent else None),
                  "start": time.perf_counter(), "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name*."""
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + amount
