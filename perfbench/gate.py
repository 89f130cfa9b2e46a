"""Correctness gate for every run the benchmark makes.

A run fails when its :class:`~repro.core.metrics.SimulationResult`
breaks an invariant, when a repeat of the same seed changes its digest,
when the fast engine disagrees with the reference engine, or when its
sweep point fails.  The error rate is failed runs over attempted runs.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.core import SimulationResult


def result_digest(result: SimulationResult) -> str:
    """A sha256 over every field of a result, arrays included."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(SimulationResult):
        value = getattr(result, field.name)
        digest.update(field.name.encode())
        if isinstance(value, np.ndarray):
            digest.update(str(value.dtype).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()[:16]


def invariant_problems(
    result: SimulationResult,
    measured_requests: int,
    baseline: SimulationResult | None = None,
) -> list[str]:
    """Invariants every simulated result must hold.

    ``measured_requests`` is the workload's length after warmup;
    ``baseline`` is the NO-CACHE run over the same stream (omit it for
    the baseline itself).
    """
    problems = []
    if result.num_requests != measured_requests:
        problems.append(
            f"num_requests {result.num_requests} != {measured_requests}"
        )
    served = result.cache_served + result.coop_served + result.total_origin_load
    if served != result.num_requests:
        problems.append(
            f"cache {result.cache_served} + coop {result.coop_served} + "
            f"origin {result.total_origin_load} != {result.num_requests}"
        )
    if baseline is not None and result.total_latency > baseline.total_latency:
        problems.append(
            f"latency {result.total_latency} above the no-cache "
            f"{baseline.total_latency}"
        )
    return problems


def field_differences(a: SimulationResult, b: SimulationResult) -> list[str]:
    """Names of the fields on which two results differ."""
    out = []
    for field in dataclasses.fields(SimulationResult):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if isinstance(left, np.ndarray):
            same = np.array_equal(left, right)
        else:
            same = left == right
        if not same:
            out.append(field.name)
    return out


class Gate:
    """Tallies attempted and failed runs and keeps each failure's reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one run; it fails when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def check_run(
        self,
        label: str,
        result: SimulationResult,
        measured_requests: int,
        baseline: SimulationResult | None = None,
    ) -> bool:
        """Check one timed run, including that repeats reproduce its digest."""
        problems = invariant_problems(result, measured_requests, baseline)
        digest = result_digest(result)
        seen = self.digests.setdefault(label, digest)
        if seen != digest:
            problems.append(f"digest {digest} differs from a repeat's {seen}")
        return self.record(label, problems)

    def fail(self, label: str, reason: str, runs: int = 1) -> None:
        """Count ``runs`` runs that produced no result at all."""
        for _ in range(runs):
            self.record(label, [reason])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
