"""Hierarchical, deterministic span tracing for runs, sweeps, and benches.

A *span* names one structural unit of work — the hierarchy is
``run → sweep → chunk → point → phase`` — and carries deterministic
attributes (point keys, seeds, request counts) and aggregated
observations (queue depths, PIT occupancies).  Spans answer the
question the flat metrics registry cannot: *which chunk* ran *which
points*, under *which seed*, and what the event scheduler saw while
they ran.

The determinism contract mirrors the trace writer's: a span file for a
given seed is **byte-identical across runs and across worker counts**.
Three design rules make that hold:

* span IDs are content-addressed — ``sha256(seed:path)`` over the
  span's slash-separated path from the root, never a wall-clock or a
  memory address;
* records carry only deterministic values: structure, seeds, counts,
  and simulated-clock observations.  Wall-clock timings belong in the
  metrics registry (``repro_phase_seconds``), never in a span record;
* export order is canonical — records sort by path (a parent's path is
  a strict prefix of its children's, so parents always precede
  children), and serialization is canonical JSON (sorted keys, compact
  separators).

Worker processes build :class:`SpanTracker` instances rooted at a chunk
path and ship ``records()`` back with their results; the parent adopts
them with :meth:`SpanTracker.extend` and writes one merged JSONL.  The
schema is versioned as :data:`SPAN_SCHEMA` and validated by
:func:`repro.obs.schema.validate_span_file`.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

#: Version tag of the span record schema (bump on breaking changes).
SPAN_SCHEMA = "repro.obs/spans/v1"

#: The span hierarchy, outermost first.
SPAN_KINDS = ("run", "sweep", "chunk", "point", "phase")

#: Hex digits of the content-addressed span id.
_ID_HEX = 16


def span_id(seed: int, path: str) -> str:
    """The deterministic id of the span at ``path`` under ``seed``."""
    digest = hashlib.sha256(f"{seed}:{path}".encode()).hexdigest()
    return digest[:_ID_HEX]


def _parent_path(path: str) -> str | None:
    if "/" not in path:
        return None
    return path.rsplit("/", 1)[0]


class Span:
    """One open span: identity, deterministic attrs, and observations."""

    __slots__ = ("name", "kind", "path", "seed", "attrs", "observations")

    def __init__(self, name: str, kind: str, path: str, seed: int) -> None:
        if kind not in SPAN_KINDS:
            raise ValueError(
                f"span kind {kind!r} not in hierarchy {SPAN_KINDS}"
            )
        if not name or "/" in name:
            raise ValueError(f"span name {name!r} must be non-empty, no '/'")
        self.name = name
        self.kind = kind
        self.path = path
        self.seed = seed
        self.attrs: dict[str, object] = {}
        #: name -> [count, total, min, max] over deterministic values.
        self.observations: dict[str, list[float]] = {}

    @property
    def id(self) -> str:
        """Content-addressed id (pure function of seed and path)."""
        return span_id(self.seed, self.path)

    def annotate(self, **attrs: object) -> "Span":
        """Attach deterministic attributes (last write per key wins)."""
        self.attrs.update(attrs)
        return self

    def observe(self, name: str, value: float) -> None:
        """Aggregate one deterministic observation (count/sum/min/max).

        Aggregation keeps span records O(1) regardless of how many
        observations a hot loop makes — the per-event history belongs in
        a histogram, not a span.
        """
        value = float(value)
        stats = self.observations.get(name)
        if stats is None:
            self.observations[name] = [1.0, value, value, value]
        else:
            stats[0] += 1.0
            stats[1] += value
            if value < stats[2]:
                stats[2] = value
            if value > stats[3]:
                stats[3] = value

    def record(self) -> dict[str, object]:
        """The span as its schema-versioned export record."""
        parent = _parent_path(self.path)
        return {
            "schema": SPAN_SCHEMA,
            "id": self.id,
            "parent": None if parent is None else span_id(self.seed, parent),
            "kind": self.kind,
            "name": self.name,
            "path": self.path,
            "seed": self.seed,
            "attrs": dict(self.attrs),
            "observations": {
                name: {
                    "count": int(stats[0]),
                    "sum": stats[1],
                    "min": stats[2],
                    "max": stats[3],
                }
                for name, stats in sorted(self.observations.items())
            },
        }


class SpanTracker:
    """Builds one deterministic span tree, optionally under a prefix.

    ``seed`` keys every span id; ``prefix`` roots the tracker somewhere
    inside a larger tree (worker chunks pass the chunk path their parent
    assigned, so their point spans link to the parent's chunk span by id
    without sharing any state).  Paths must be unique within a tracker —
    a duplicate means two spans would collide on one id.
    """

    def __init__(self, seed: int, prefix: str = "") -> None:
        self.seed = seed
        self.prefix = prefix
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._paths: set[str] = set()

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span (None outside any ``span`` block)."""
        return self._stack[-1] if self._stack else None

    def _child_path(self, name: str) -> str:
        if self._stack:
            return f"{self._stack[-1].path}/{name}"
        if self.prefix:
            return f"{self.prefix}/{name}"
        return name

    @contextmanager
    def span(self, name: str, kind: str, **attrs: object) -> Iterator[Span]:
        """Open one span as the child of the innermost open span."""
        opened = self.open(name, kind, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def open(self, name: str, kind: str, **attrs: object) -> Span:
        """Non-context-manager form of :meth:`span` (close explicitly)."""
        path = self._child_path(name)
        if path in self._paths:
            raise ValueError(f"duplicate span path {path!r}")
        self._paths.add(path)
        opened = Span(name, kind, path, self.seed)
        opened.annotate(**attrs)
        self._stack.append(opened)
        return opened

    def close(self, opened: Span) -> None:
        """Close ``opened`` (must be the innermost open span)."""
        if not self._stack or self._stack[-1] is not opened:
            raise ValueError(f"span {opened.path!r} is not innermost")
        self._stack.pop()
        self._finished.append(opened)

    def observe(self, name: str, value: float) -> None:
        """Record an observation on the innermost open span (must exist)."""
        if not self._stack:
            raise ValueError("no open span to observe into")
        self._stack[-1].observe(name, value)

    # ------------------------------------------------------------------
    # Export / merge
    # ------------------------------------------------------------------
    def records(self) -> list[dict[str, object]]:
        """Every finished span's record, in canonical (path) order."""
        if self._stack:
            raise ValueError(
                f"span {self._stack[-1].path!r} is still open"
            )
        return sorted(
            (span.record() for span in self._finished),
            key=lambda record: record["path"],  # type: ignore[arg-type]
        )

    def extend(self, records: Iterable[Mapping[str, object]]) -> None:
        """Adopt already-built records (worker chunks shipping home).

        Adopted records keep their ids verbatim; their paths join the
        uniqueness set so a parent cannot accidentally mint a colliding
        span after adopting.
        """
        for record in records:
            path = record["path"]
            assert isinstance(path, str)
            if path in self._paths:
                raise ValueError(f"duplicate span path {path!r}")
            self._paths.add(path)
            adopted = Span(
                str(record["name"]),
                str(record["kind"]),
                path,
                int(record["seed"]),  # type: ignore[arg-type]
            )
            attrs = record.get("attrs")
            if isinstance(attrs, Mapping):
                adopted.annotate(**attrs)
            observations = record.get("observations")
            if isinstance(observations, Mapping):
                for name, stats in observations.items():
                    adopted.observations[str(name)] = [
                        float(stats["count"]),
                        float(stats["sum"]),
                        float(stats["min"]),
                        float(stats["max"]),
                    ]
            self._finished.append(adopted)

    def to_jsonl(self) -> str:
        """All records as canonical JSONL (the byte-stable export)."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self.records()
        )

    def write(self, destination: str | Path | IO[str]) -> None:
        """Write the canonical JSONL export to a path or file object."""
        text = self.to_jsonl()
        if isinstance(destination, (str, Path)):
            Path(destination).write_text(text, encoding="utf-8")
        else:
            destination.write(text)

