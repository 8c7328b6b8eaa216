"""Benchmark-owned spans and self-time folding.

The traced pipeline wraps each call into a layer of the program in a
span: a name, a start, an end and the span that caused it.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover; overlapping children are counted once.  Spans live in
memory and are folded when the request ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Spans", "covered", "self_times"]


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(
        self, name: str, start: float, end: float, parent: Optional[int]
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """An in-memory span log for one request."""

    def __init__(self) -> None:
        self.records: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        now = perf_counter()
        self.records.append(Span(name, now, now, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index].end = perf_counter()
            self._open.pop()


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(records: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name, summed over every span of that name.

    A child's interval is clipped to its parent before the union is
    taken, so a child that overruns its parent cannot drive the parent's
    self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in records:
        if span.parent is not None:
            parent = records[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(records):
        own = span.duration - covered(children.get(index, ()))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
