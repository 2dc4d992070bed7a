"""In-memory span recorder for the traced run.

A span has a name, a start, an end and the id of the span that was open
when it began.  Counters are summed per name at the same boundaries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), name, self._open[-1] if self._open else None,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def busy_seconds(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name, keyed ``<name>_s``."""
    out: dict[str, float] = {}
    for span in spans:
        key = span.name + "_s"
        out[key] = out.get(key, 0.0) + span.duration
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that start before or end after their parent, or have negative self time."""
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    errors = []
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and not parent.start <= span.start <= span.end <= parent.end:
            errors.append("span %d %s lies outside its parent %d" % (span.id, span.name, parent.id))
        if own[span.id] < 0.0:
            errors.append("span %d %s has negative self time" % (span.id, span.name))
    return errors
