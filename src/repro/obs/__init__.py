"""Observability: metrics registry, trace records, profiling hooks.

``repro.obs`` is the cross-cutting observability layer.  It is
strictly *optional*: every producer in the simulator takes its sink as
a ``None``-default argument and, with no sink attached, executes the
exact pre-observability instruction stream (lint rule ``O501`` pins
this for the engine hot loops; the obs-parity tests pin it bit-exactly
for whole simulations).

The pieces:

* :class:`MetricsRegistry` — counters / gauges / histograms with
  deterministic JSON-snapshot and Prometheus text exports;
* :class:`TraceSampler` / :class:`TraceWriter` — reproducible sampled
  per-request JSONL traces (content-addressed sampling);
* :class:`PhaseTimer` / :class:`SimClockTimer` — wall-clock phase and
  simulated-clock span timers;
* :class:`Observer` / :class:`RunRecorder` — the engine-facing sink;
* :class:`SpanTracker` / :class:`Span` — hierarchical deterministic
  spans (run → sweep → chunk → point → phase) with canonical JSONL
  export and worker-record merging;
* :class:`ProgressReporter` — atomically-rewritten live heartbeat
  files, rendered by ``python -m repro.obs watch``;
* :mod:`repro.obs.benchdiff` — the bench regression gate behind
  ``python -m repro.obs bench-diff``;
* :mod:`repro.obs.schema` — validators for all export formats;
* ``python -m repro.obs`` — the ``report`` / ``smoke`` /
  ``sweep-smoke`` / ``watch`` / ``bench-diff`` CLI.
"""

from .benchdiff import MetricDelta, diff_reports, run_bench_diff
from .profiling import PHASE_METRIC, SIM_SPAN_METRIC, PhaseTimer, SimClockTimer
from .progress import (
    PROGRESS_SCHEMA,
    ProgressReporter,
    read_heartbeat,
    render_heartbeat,
)
from .registry import (
    DEFAULT_BUCKETS,
    REGISTRY_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .schema import (
    SchemaError,
    SpanStats,
    TraceStats,
    validate_heartbeat,
    validate_prometheus_text,
    validate_registry_snapshot,
    validate_span_file,
    validate_span_record,
    validate_trace_file,
    validate_trace_record,
)
from .sink import Observer, RunRecorder
from .spans import (
    SPAN_KINDS,
    SPAN_SCHEMA,
    Span,
    SpanTracker,
    span_id,
)
from .trace import TRACE_VERSION, TraceSampler, TraceWriter

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricDelta",
    "MetricsRegistry",
    "Observer",
    "PHASE_METRIC",
    "PROGRESS_SCHEMA",
    "PhaseTimer",
    "ProgressReporter",
    "REGISTRY_SCHEMA",
    "RunRecorder",
    "SIM_SPAN_METRIC",
    "SPAN_KINDS",
    "SPAN_SCHEMA",
    "SchemaError",
    "SimClockTimer",
    "Span",
    "SpanStats",
    "SpanTracker",
    "TRACE_VERSION",
    "TraceSampler",
    "TraceStats",
    "TraceWriter",
    "diff_reports",
    "read_heartbeat",
    "render_heartbeat",
    "run_bench_diff",
    "span_id",
    "validate_heartbeat",
    "validate_prometheus_text",
    "validate_registry_snapshot",
    "validate_span_file",
    "validate_span_record",
    "validate_trace_file",
    "validate_trace_record",
]
