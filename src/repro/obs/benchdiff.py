"""Bench regression gate: compare two ``BENCH_*.json`` reports.

``python -m repro.obs bench-diff baseline.json current.json --fail-over
10`` walks both reports, pairs up the performance metrics, and fails
(exit status 1) when any metric regressed by more than the threshold.
Direction is metric-aware:

* throughput metrics (``*_requests_per_second``, ``speedup``) are
  *higher-better* — a regression is the current value dropping below
  the baseline;
* wall-clock metrics (``*_seconds``, every ``phase_seconds`` entry) are
  *lower-better* — a regression is the current value rising above the
  baseline.

Reports taken at different ``scale`` values measure different work, so
comparing them is an error (exit status 2) unless explicitly allowed.
Scale is checked per section: a section may record its own ``scale``
(a stream replay merged into a report of another scale does), and any
section without one inherits its parent's.
Tiny wall-clock phases are dominated by scheduler noise; phases below
``--min-seconds`` in *both* reports are reported but never gated on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

#: Direction tags for paired metrics.
HIGHER_BETTER = "higher-better"
LOWER_BETTER = "lower-better"

#: Wall-clock phases shorter than this (seconds) in both reports are
#: never gated on — at that magnitude the numbers are scheduler noise.
DEFAULT_MIN_SECONDS = 0.05


@dataclass(frozen=True)
class MetricDelta:
    """One paired metric across baseline and current reports."""

    name: str
    direction: str
    baseline: float
    current: float
    gated: bool

    @property
    def change_pct(self) -> float:
        """Signed change where positive always means *worse*."""
        if self.baseline == 0:
            return 0.0 if self.current == 0 else math.inf
        raw = (self.current - self.baseline) / self.baseline * 100.0
        return -raw if self.direction == HIGHER_BETTER else raw

    def regressed(self, fail_over_pct: float) -> bool:
        return self.gated and self.change_pct > fail_over_pct


def _metric_direction(name: str) -> str | None:
    """Classify one leaf key, or None if it is not a perf metric."""
    if name.endswith("_requests_per_second") or name == "speedup" \
            or name.endswith("_speedup"):
        return HIGHER_BETTER
    if name.endswith("_seconds"):
        return LOWER_BETTER
    return None


def collect_metrics(report: Mapping[str, object]) -> dict[str, str]:
    """Flatten a bench report into ``path -> direction`` perf metrics.

    Walks nested dicts with ``/``-joined paths.  Every entry under a
    ``phase_seconds`` section is wall-clock regardless of its key.
    """
    metrics: dict[str, str] = {}

    def walk(node: Mapping[str, object], prefix: str, in_phases: bool):
        for key in sorted(node):
            value = node[key]
            path = f"{prefix}/{key}" if prefix else key
            if isinstance(value, Mapping):
                walk(value, path, in_phases or key == "phase_seconds")
                continue
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            direction = LOWER_BETTER if in_phases else _metric_direction(key)
            if direction is not None:
                metrics[path] = direction

    walk(report, "", False)
    return metrics


def diff_reports(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> list[MetricDelta]:
    """Pair up the perf metrics both reports share, in path order."""
    base_metrics = collect_metrics(baseline)
    curr_metrics = collect_metrics(current)
    deltas: list[MetricDelta] = []
    for path in sorted(set(base_metrics) & set(curr_metrics)):
        direction = base_metrics[path]
        if direction != curr_metrics[path]:
            continue
        base_value = float(_lookup(baseline, path))
        curr_value = float(_lookup(current, path))
        gated = True
        if direction == LOWER_BETTER and max(
            base_value, curr_value
        ) < min_seconds:
            gated = False
        deltas.append(
            MetricDelta(path, direction, base_value, curr_value, gated)
        )
    return deltas


def _lookup(report: Mapping[str, object], path: str) -> object:
    node: object = report
    for segment in path.split("/"):
        assert isinstance(node, Mapping)
        node = node[segment]
    return node


def scale_mismatches(
    baseline: Mapping[str, object], current: Mapping[str, object]
) -> list[tuple[str, object, object]]:
    """``(section, baseline scale, current scale)`` for every mismatch.

    Walks the sections both reports share.  A section's scale is its own
    ``scale`` key, else its parent's; a mismatch is reported where it
    arises (the top level, or a section that records its own scale),
    not again in every section below it.
    """
    found: list[tuple[str, object, object]] = []

    def walk(base: Mapping[str, object], curr: Mapping[str, object],
             path: str, base_scale: object, curr_scale: object) -> None:
        own = "scale" in base or "scale" in curr or not path
        base_scale = base.get("scale", base_scale)
        curr_scale = curr.get("scale", curr_scale)
        if own and base_scale != curr_scale:
            found.append((path or "(top level)", base_scale, curr_scale))
        for key in sorted(set(base) & set(curr)):
            base_child, curr_child = base[key], curr[key]
            if isinstance(base_child, Mapping) and isinstance(
                curr_child, Mapping
            ):
                walk(base_child, curr_child,
                     f"{path}/{key}" if path else key, base_scale, curr_scale)

    walk(baseline, current, "", None, None)
    return found


def load_report(path: str | Path) -> dict[str, object]:
    """Load one bench report, insisting it is a JSON object."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ValueError(f"{path}: bench report is not a JSON object")
    return report


def format_deltas(deltas: list[MetricDelta], fail_over_pct: float) -> str:
    """Human-readable table of every paired metric, worst first."""
    lines = []
    ordered = sorted(
        deltas, key=lambda d: (-d.change_pct if d.gated else math.inf)
    )
    for delta in ordered:
        change = delta.change_pct
        if math.isinf(change):
            shown = "+inf%"
        else:
            shown = f"{change:+.1f}%"
        marker = "REGRESSED" if delta.regressed(fail_over_pct) else (
            "ok" if delta.gated else "skipped (below noise floor)"
        )
        lines.append(
            f"  {delta.name}: {delta.baseline:g} -> {delta.current:g} "
            f"({shown} worse, {delta.direction}) [{marker}]"
        )
    return "\n".join(lines)


def run_bench_diff(
    baseline_path: str | Path,
    current_path: str | Path,
    fail_over_pct: float,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    allow_scale_mismatch: bool = False,
    out=print,
) -> int:
    """The ``bench-diff`` CLI body; returns the process exit status."""
    baseline = load_report(baseline_path)
    current = load_report(current_path)
    mismatches = scale_mismatches(baseline, current)
    if mismatches and not allow_scale_mismatch:
        for section, base_scale, curr_scale in mismatches:
            out(
                f"bench-diff: scale mismatch in {section} (baseline "
                f"{base_scale!r}, current {curr_scale!r}); rerun at the "
                "baseline scale or pass --allow-scale-mismatch"
            )
        return 2
    deltas = diff_reports(baseline, current, min_seconds=min_seconds)
    if not deltas:
        out("bench-diff: no comparable perf metrics in common")
        return 2
    regressions = [d for d in deltas if d.regressed(fail_over_pct)]
    out(
        f"bench-diff: {len(deltas)} paired metrics, threshold "
        f"{fail_over_pct:g}%"
    )
    out(format_deltas(deltas, fail_over_pct))
    if regressions:
        out(
            f"bench-diff: FAIL — {len(regressions)} metric(s) regressed "
            f"beyond {fail_over_pct:g}%"
        )
        return 1
    out("bench-diff: OK — no regression beyond threshold")
    return 0
