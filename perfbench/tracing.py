"""Wall-clock spans recorded by the benchmark around calls into ``repro``.

Spans wrap *public* calls from outside the program, so the simulator's
hot loops carry no timer.  A span holds its name, start and end
(``time.perf_counter`` seconds), its parent span, and the run id shared
by every span of one benchmark run.  Spans stay in memory and are
written once, when the run ends (:meth:`Tracer.lines`).

The layer of a span is the first dot-separated part of its name
(``core.run.EDGE`` -> ``core``), matching the ``repro`` module the call
enters; ``bench`` spans cover the benchmark's own code between calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed call."""

    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = float("nan")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """An in-memory span recorder; nesting follows the ``with`` blocks."""

    run_id: str
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, self.run_id, 0.0)
        self.spans.append(record)
        self._stack.append(record.span_id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's.

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + (
                span.duration - covered[span.span_id]
            )
        return out

    def lines(self) -> list[str]:
        """Every span as one JSON line; times are seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            json.dumps(
                {
                    "id": span.span_id,
                    "name": span.name,
                    "parent": span.parent,
                    "run_id": span.run_id,
                    "start": span.start - origin,
                    "end": span.end - origin,
                },
                sort_keys=True,
            )
            + "\n"
            for span in self.spans
        ]


class NullTracer:
    """Stands in for :class:`Tracer` on untimed paths: records nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None
