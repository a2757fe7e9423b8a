"""Spans recorded around calls into each layer, and their self times.

A :class:`Tracer` keeps spans in memory: name, start, end, the span
that was open when it began (its parent), and the trace it belongs to
(one traced pass over the paths).  :func:`self_times` subtracts from
each span the part of its interval its children cover, so nested or
overlapping children are never counted twice.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Record nested spans on one thread; spans stay in memory until
    :meth:`write` dumps them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trace = 0

    def new_trace(self) -> int:
        """Start a new trace id; spans opened from now on carry it."""
        self._trace += 1
        return self._trace

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._trace)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def write(self, path: str | Path, meta: dict) -> Path:
        path = Path(path)
        document = {
            "schema": "perfbench/spans/v1",
            "meta": meta,
            "spans": [
                {"id": index, **asdict(span)}
                for index, span in enumerate(self.spans)
            ],
        }
        path.write_text(json.dumps(document, indent=1))
        return path


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [
        span.duration - covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def root_of(spans: list[Span], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index


def layer_totals(spans: list[Span]) -> dict[tuple[int, str, str], float]:
    """Self time summed per (trace, root span name, layer name).

    Root spans are the end-to-end paths; everything below them is a
    layer.  A root's own self time is the part no layer span covers.
    """
    own = self_times(spans)
    totals: dict[tuple[int, str, str], float] = defaultdict(float)
    for index, span in enumerate(spans):
        root = spans[root_of(spans, index)]
        totals[(span.trace, root.name, span.name)] += own[index]
    return dict(totals)
