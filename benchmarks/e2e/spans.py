"""In-memory span recorder for the traced layer drive.

A span is one call into a layer: name, start, end, the span that caused
it, and the op it belongs to.  Spans stay in memory while the benchmark
runs and are written out once, at exit.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    """One recorded call: ``parent`` indexes the causing span (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; ``clock`` is injectable for the self-tests."""

    def __init__(self, clock=time.perf_counter, *, enabled: bool = True) -> None:
        self.spans: list[Span] = []
        #: Counts taken at the same boundaries as the spans.
        self.counters: dict[str, float] = {}
        #: ``False`` turns every call into a no-op — the same drive code
        #: run untraced, which is what tracing overhead is measured against.
        self.enabled = enabled
        self._clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[int]:
        """Record a span around the enclosed calls; yields its index."""
        if not self.enabled:
            yield -1
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), 0.0, parent, op))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = self._clock()

    def add(self, name: str, start: float, end: float, op: int, parent: int = -1) -> int:
        """Record an already-measured interval (an executor phase the layer
        returned, a request's timeline) under ``parent``; returns its index."""
        self.spans.append(Span(name, start, end, parent, op))
        return len(self.spans) - 1

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus direct children's durations."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def totals(self, *, self_time: bool = False) -> dict[str, float]:
        """Seconds per span name (total durations, or self times)."""
        values = self.self_times() if self_time else [s.duration for s in self.spans]
        out: dict[str, float] = {}
        for span, value in zip(self.spans, values):
            out[span.name] = out.get(span.name, 0.0) + value
        return out

    def dump(self, path: Path) -> Path:
        """Write every span as JSON (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": [asdict(s) for s in self.spans], "counters": self.counters}
        path.write_text(json.dumps(payload) + "\n")
        return path
