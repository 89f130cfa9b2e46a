"""Parallel design-space sweeps (Section 4's grid, at production scale).

The paper's evaluation is a grid — architectures x topologies x cache
budgets x Zipf parameters — and every point is an independent
:func:`~repro.core.experiment.run_experiment` call.  This module fans a
grid out over worker processes:

* each grid point is a :class:`SweepPoint` (a fully seeded
  :class:`ExperimentConfig` plus its architecture line-up and optional
  trace objects), so a point's result depends only on the point itself
  — chunked parallel execution is bit-identical to serial execution
  regardless of worker count;
* chunks go to the pool heaviest first (estimated requests x runs), so
  the largest point never starts last and runs alone;
* per-point seeds are derived with :func:`spawn_seeds` from one base
  seed via ``numpy.random.SeedSequence.spawn``, giving collision-free
  independent streams without hand-picked offsets;
* a point whose worker raises is retried (with the
  :class:`~repro.idicn.retry.RetryPolicy` backoff shapes) and, if it
  keeps failing, *reported* in :attr:`SweepOutcome.failures` — never
  silently dropped; a deadline turns still-pending points into reported
  failures while keeping every finished result (partial collection),
  distinguishing points that *started* and overran (``timeout:``
  errors) from points cancelled before their first attempt
  (``cancelled:`` errors, :attr:`SweepOutcome.cancelled`).

Observability (all three sinks default to ``None`` and cost nothing
when absent — lint rule ``O502`` pins the gating):

* ``observer`` — workers collect simulation counters into a local
  registry and ship its snapshot home with the chunk result; the parent
  merges shards on arrival (counters sum, so the merged registry is
  byte-identical to a serial run's regardless of completion order) and
  adds the sweep orchestration tallies.  Wall-clock families
  (:data:`WALLCLOCK_METRICS`) are parent-only and excluded by
  :func:`deterministic_snapshot`.
* ``spans`` — a :class:`~repro.obs.spans.SpanTracker`; the sweep emits
  a ``sweep`` span with one ``chunk`` child per submitted chunk and one
  ``point`` child per executed point.  Span records carry only
  deterministic values, so for a fixed ``chunk_size`` the merged span
  file is byte-identical across runs and worker counts (retries add
  extra ``retry-*`` chunks, so identity is guaranteed for clean runs).
* ``progress`` — a :class:`~repro.obs.progress.ProgressReporter`
  heartbeat updated as chunks complete.

Workers default to the fast engine (:mod:`repro.core.fastpath`); with
``workers=0`` the sweep runs serially in-process, which is also the
fallback when only one point is requested.
"""

from __future__ import annotations

# The wall-clock reads in this module (time.monotonic/time.sleep)
# schedule the sweep itself — deadlines and retry-backoff pauses; no
# simulated result ever observes them.
# lint: disable-file=D105
import inspect
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..idicn.retry import RetryPolicy
from .architectures import Architecture, BASELINE_ARCHITECTURES
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_streamed_experiment,
)
from .metrics import Improvements, improvements, merge_results

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.progress import ProgressReporter
    from ..obs.registry import MetricsRegistry
    from ..obs.sink import Observer
    from ..obs.spans import SpanTracker

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "WALLCLOCK_METRICS",
    "SweepOutcome",
    "SweepPoint",
    "deterministic_snapshot",
    "merge_sharded_results",
    "run_sweep",
    "seeded_configs",
    "shard_points",
    "spawn_seeds",
]

#: One retry per failing point, no backoff pause by default (sweep points
#: are deterministic, so retries mostly paper over transient worker
#: failures such as an OOM-killed process).
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

#: Registry families that carry wall-clock measurements.  They live only
#: in the parent registry (never in worker snapshots) and are the one
#: part of a sweep's merged registry that legitimately differs between
#: two runs — strip them with :func:`deterministic_snapshot` before any
#: byte-equality comparison.
WALLCLOCK_METRICS = frozenset(
    {
        "repro_phase_seconds",
        "repro_sweep_chunk_seconds",
        "repro_sweep_chunk_requests_per_second",
        "repro_sweep_backoff_seconds_total",
    }
)

#: Error strings for the two distinct deadline outcomes.
_TIMEOUT_ERROR = "timeout: sweep deadline exceeded"
_CANCELLED_ERROR = "cancelled: sweep deadline exceeded before the attempt started"


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a key, a config, and its architecture line-up."""

    key: str
    config: ExperimentConfig
    architectures: tuple[Architecture, ...] = BASELINE_ARCHITECTURES
    #: Optional trace-driven object sequence (see ``run_experiment``).
    objects: np.ndarray | None = None
    #: Optional ``(index, num_shards)`` PoP shard: the point executes
    #: :func:`~repro.core.experiment.run_streamed_experiment` on the
    #: sub-stream of requests arriving at PoPs with
    #: ``pop % num_shards == index``.  The worker regenerates the
    #: seed-derived stream locally, so no request arrays ride in the
    #: pickled point.  Mutually exclusive with ``objects``.
    shard: tuple[int, int] | None = None


@dataclass
class SweepOutcome:
    """Everything a sweep produced, successes and failures alike.

    ``results`` maps point keys to experiment results; ``failures`` maps
    the keys that never succeeded to their per-attempt error strings.
    Every submitted key appears in exactly one of the two mappings.
    ``attempts`` counts executions per key (1 = first try succeeded,
    0 = the point never started).
    """

    results: dict[str, ExperimentResult] = field(default_factory=dict)
    failures: dict[str, list[str]] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)

    @property
    def cancelled(self) -> tuple[str, ...]:
        """Keys whose final failure was a pre-start cancellation.

        A deadline produces two different kinds of losers: points that
        started and overran (``timeout:`` errors) and points the sweep
        never got to (``cancelled:`` errors).  Forensics care — a
        cancelled point is innocent; a timed-out one may be the point
        that blew the budget.
        """
        return tuple(
            sorted(
                key
                for key, errors in self.failures.items()
                if errors and errors[-1].startswith("cancelled:")
            )
        )

    def raise_on_failure(self) -> None:
        """Raise if any point failed (for callers that need all points)."""
        if self.failures:
            summary = "; ".join(
                f"{key}: {errors[-1]}" for key, errors in self.failures.items()
            )
            raise RuntimeError(f"sweep points failed: {summary}")


def spawn_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """``count`` collision-free child seeds derived from one base seed.

    Uses ``SeedSequence.spawn`` so the streams are independent no matter
    how points are chunked across workers; the same base seed always
    yields the same children (reproducible reruns).
    """
    children = np.random.SeedSequence(base_seed).spawn(count)
    return tuple(
        int(child.generate_state(1, np.uint64)[0]) for child in children
    )


def seeded_configs(
    base_seed: int, configs: Iterable[ExperimentConfig]
) -> tuple[ExperimentConfig, ...]:
    """Re-seed a grid of configs with independent per-point seeds."""
    configs = tuple(configs)
    seeds = spawn_seeds(base_seed, len(configs))
    return tuple(
        config.with_(seed=seed) for config, seed in zip(configs, seeds)
    )


def deterministic_snapshot(
    registry: "MetricsRegistry",
) -> dict[str, object]:
    """A registry snapshot with the wall-clock families stripped.

    This is the artifact the determinism guarantees apply to: for the
    same points and seed it is byte-identical across runs, worker
    counts, and chunk completion orders.
    """
    snapshot = registry.snapshot()
    metrics = snapshot["metrics"]
    assert isinstance(metrics, list)
    snapshot["metrics"] = [
        family
        for family in metrics
        if family["name"] not in WALLCLOCK_METRICS
    ]
    return snapshot


def _run_point(
    point: SweepPoint, engine: str, observer: "Observer | None" = None
) -> ExperimentResult:
    """Execute one grid point (also the worker-side entry).

    A sharded point runs the streamed engine path on its PoP
    sub-stream; everything else takes the materialized path.
    """
    if point.shard is not None:
        if point.objects is not None:
            raise ValueError(
                "a sweep point cannot set both shard and objects"
            )
        return run_streamed_experiment(
            point.config,
            point.architectures,
            shard=point.shard,
            engine=engine,
            observer=observer,
        )
    return run_experiment(
        point.config,
        point.architectures,
        objects=point.objects,
        engine=engine,
        observer=observer,
    )


def shard_points(point: SweepPoint, num_shards: int) -> tuple[SweepPoint, ...]:
    """Split one streamed point into ``num_shards`` PoP-shard points.

    Each shard point replays only the requests arriving at its PoPs
    (``pop % num_shards == shard``), regenerated worker-side from the
    point's seed, so a single huge streamed trace spreads across
    :func:`run_sweep` workers — with per-shard progress heartbeats for
    free — without any request arrays crossing process boundaries.
    Recombine with :func:`merge_sharded_results`.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if point.objects is not None:
        raise ValueError("cannot shard a point with trace objects attached")
    return tuple(
        SweepPoint(
            key=f"{point.key}/shard-{index}-of-{num_shards}",
            config=point.config,
            architectures=point.architectures,
            shard=(index, num_shards),
        )
        for index in range(num_shards)
    )


def merge_sharded_results(
    point: SweepPoint, shard_results: Sequence[ExperimentResult]
) -> ExperimentResult:
    """Merge the per-shard results of one :func:`shard_points` split.

    Counters are additive over the PoP partition of the stream
    (:func:`~repro.core.metrics.merge_results`), and improvements are
    recomputed from the merged aggregates.  At ``warmup_fraction=0``
    the *no-cache baseline* merge is exact: the shards partition the
    request stream and no state couples them, so the merged baseline
    equals the unsharded run bit for bit.  Cached architectures are an
    approximation — each shard replays against its own cache state, so
    a backbone cache warmed by one shard's requests never serves
    another shard's — and with warmup each shard additionally warms up
    on its own prefix instead of the global one.
    """
    if not shard_results:
        raise ValueError("cannot merge zero shard results")
    baseline = merge_results([shard.baseline for shard in shard_results])
    arch_names = list(shard_results[0].results)
    results = {
        name: merge_results([shard.results[name] for shard in shard_results])
        for name in arch_names
    }
    improved: dict[str, Improvements] = {
        name: improvements(result, baseline)
        for name, result in results.items()
    }
    return ExperimentResult(
        config=point.config,
        baseline=baseline,
        results=results,
        improvements=improved,
    )


def _accepts_observer(runner: Callable[..., object]) -> bool:
    """Whether a runner callable can take an ``observer=`` keyword."""
    try:
        parameters = inspect.signature(runner).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return False
    if "observer" in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def _call_runner(
    runner: Callable[..., ExperimentResult],
    point: SweepPoint,
    engine: str,
    observer: "Observer | None",
) -> ExperimentResult:
    """Invoke a runner, forwarding the observer only if it takes one.

    Custom runners predating observability keep their two-argument
    signature; the default :func:`_run_point` threads the observer into
    :func:`run_experiment` so worker-local registries see every
    simulated request.
    """
    if observer is not None and _accepts_observer(runner):
        return runner(point, engine, observer=observer)
    return runner(point, engine)


def _result_requests(result: object) -> int:
    """Requests simulated by one point (baseline plus each architecture).

    Deterministic — derived from the workload size, never from timing.
    Returns 0 for custom runner payloads without the result shape.
    """
    baseline = getattr(result, "baseline", None)
    per_run = getattr(baseline, "num_requests", None)
    if per_run is None:
        return 0
    return int(per_run) * (1 + len(getattr(result, "results", ())))


def _span_name(key: str) -> str:
    """A point key as a span path segment (paths reserve ``/``)."""
    return key.replace("/", "_")


def _record_point_span(
    tracker: "SpanTracker", point: SweepPoint, status: str, requests: int
) -> None:
    """Emit the closed ``point`` span for one executed sweep point.

    Shared by the serial path and the worker chunks so both produce
    byte-identical records: key, per-point seed, final status, and the
    deterministic request count — never an elapsed time.
    """
    with tracker.span(
        f"point-{_span_name(point.key)}",
        "point",
        key=point.key,
        seed=point.config.seed,
        status=status,
        requests=requests,
    ):
        pass


def _run_chunk(
    points: Sequence[SweepPoint],
    engine: str,
    runner: Callable[..., ExperimentResult],
    collect_metrics: bool = False,
    collect_spans: bool = False,
    span_seed: int = 0,
    span_path: str = "",
) -> tuple[
    list[tuple[str, bool, object]],
    dict[str, object] | None,
    list[dict[str, object]] | None,
    float,
    int,
]:
    """Worker task: run a chunk, reporting per-point success or error.

    Exceptions are converted to strings here so one bad point never
    poisons its chunk-mates or the process pool.  With
    ``collect_metrics`` the chunk runs under a worker-local
    :class:`~repro.obs.sink.Observer` and ships the registry snapshot
    home (counters only, so the parent merge is order-independent);
    with ``collect_spans`` it ships ``point`` span records rooted at
    the chunk path the parent assigned.  The wall-clock ``elapsed`` and
    deterministic ``requests`` tallies feed the parent-only throughput
    gauges.
    """
    observer: "Observer | None" = None
    tracker: "SpanTracker | None" = None
    if collect_metrics:
        from ..obs.sink import Observer

        observer = Observer()
    if collect_spans:
        from ..obs.spans import SpanTracker

        tracker = SpanTracker(span_seed, prefix=span_path)
    out: list[tuple[str, bool, object]] = []
    requests = 0
    start = time.perf_counter()
    for point in points:
        try:
            result = _call_runner(runner, point, engine, observer)
        except Exception as exc:  # noqa: BLE001 - reported, never dropped
            out.append((point.key, False, f"{type(exc).__name__}: {exc}"))
            if tracker is not None:
                _record_point_span(tracker, point, "error", 0)
            continue
        out.append((point.key, True, result))
        if tracker is not None or observer is not None:
            point_requests = _result_requests(result)
            requests += point_requests
            if tracker is not None:
                _record_point_span(tracker, point, "ok", point_requests)
    elapsed = time.perf_counter() - start
    snapshot = observer.registry.snapshot() if observer is not None else None
    records = tracker.records() if tracker is not None else None
    return out, snapshot, records, elapsed, requests


def _chunked(
    points: Sequence[SweepPoint], chunk_size: int
) -> Iterator[Sequence[SweepPoint]]:
    for start in range(0, len(points), chunk_size):
        yield points[start : start + chunk_size]


def _point_cost(point: SweepPoint) -> float:
    """Estimated cost of one point: requests x (NO-CACHE + each architecture).

    The requests are the trace's length for a trace-driven point, else
    the configured stream's share per PoP shard.
    """
    if point.objects is not None:
        requests = float(len(point.objects))
    else:
        requests = point.config.num_requests / (point.shard[1] if point.shard else 1)
    return requests * (1 + len(point.architectures))


def _heaviest_first(chunks: Sequence[Sequence[SweepPoint]]) -> list[int]:
    """Chunk indices in descending estimated cost; ties keep grid order.

    Submitting the longest chunks first keeps one big point from
    starting last and running alone while the other workers idle.
    """
    costs = [sum(map(_point_cost, chunk)) for chunk in chunks]
    return sorted(range(len(chunks)), key=lambda index: -costs[index])


def _preregister_sweep_metrics(registry: "MetricsRegistry") -> None:
    """Create the sweep orchestration families up front.

    Pre-registration pins help text (merge is first-registration-wins)
    and guarantees the families exist — zero-valued — even for sweeps
    that finish without incident, so dashboards and diffs never chase
    missing series.
    """
    registry.counter(
        "repro_sweep_points_total", help="sweep points submitted"
    )
    registry.counter(
        "repro_sweep_points_completed",
        help="sweep points that finished ok",
    )
    registry.counter(
        "repro_sweep_points_failed",
        help="sweep points that exhausted retries or hit the deadline",
    )
    registry.counter(
        "repro_sweep_points_cancelled",
        help="points cancelled before their first attempt (subset of "
        "failed)",
    )
    registry.counter(
        "repro_sweep_points_retried",
        help="sweep points that needed more than one attempt",
    )
    registry.counter(
        "repro_sweep_attempts_total",
        help="point executions including retries",
    )
    registry.counter(
        "repro_sweep_backoff_seconds_total",
        help="retry backoff pause seconds (computed delays)",
    )


def run_sweep(
    points: Iterable[SweepPoint],
    workers: int | None = None,
    engine: str = "fast",
    chunk_size: int | None = None,
    retry_policy: RetryPolicy | None = DEFAULT_RETRY_POLICY,
    timeout: float | None = None,
    runner: Callable[..., ExperimentResult] = _run_point,
    observer: "Observer | None" = None,
    progress: "ProgressReporter | None" = None,
    spans: "SpanTracker | None" = None,
) -> SweepOutcome:
    """Run a grid of sweep points, in parallel when it pays.

    ``workers`` defaults to ``min(cpu_count, len(points))``; 0 or 1
    forces the serial in-process path.  ``chunk_size`` groups points per
    worker task (default: spread points evenly, ~4 chunks per worker).
    ``retry_policy`` shapes re-execution of failing points
    (``max_attempts`` tries with ``backoff_delay`` pauses); ``None``
    means a single attempt.  ``timeout`` is a wall-clock deadline in
    seconds for the whole sweep: finished points are kept, unfinished
    ones are reported as failures (``timeout:`` if they started,
    ``cancelled:`` if they never did).  ``runner`` is the per-point
    callable (overridable for tests; must be picklable for workers; may
    optionally accept an ``observer=`` keyword).

    ``observer`` makes the parent registry the merged source of truth
    for the whole sweep: simulation counters collected worker-locally
    and merged on arrival, plus the orchestration tallies
    (``repro_sweep_points_*``, attempts, backoff) and the wall-clock
    per-chunk throughput gauges (see :data:`WALLCLOCK_METRICS`).
    ``progress`` receives heartbeat updates as points finish; ``spans``
    receives the sweep/chunk/point span tree.  All three default to
    ``None`` and, absent, leave the sweep bit-identical to an
    unobserved one.
    """
    points = list(points)
    keys = [point.key for point in points]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep point keys must be unique")
    outcome = SweepOutcome()
    sweep_start = time.perf_counter()

    if observer is not None:
        _preregister_sweep_metrics(observer.registry)
    if progress is not None:
        progress.start(total=len(points))
    sweep_span = None
    if spans is not None:
        sweep_span = spans.open(
            "sweep", "sweep", points=len(points), engine=engine
        )

    def observed(finished: SweepOutcome) -> SweepOutcome:
        if spans is not None:
            spans.close(sweep_span)
        retried = sum(
            1 for count in finished.attempts.values() if count > 1
        )
        if observer is not None:
            from ..obs.profiling import PHASE_METRIC

            registry = observer.registry
            registry.counter("repro_sweep_points_total").inc(
                float(len(points))
            )
            registry.counter("repro_sweep_points_completed").inc(
                float(len(finished.results))
            )
            registry.counter("repro_sweep_points_failed").inc(
                float(len(finished.failures))
            )
            registry.counter("repro_sweep_points_cancelled").inc(
                float(len(finished.cancelled))
            )
            registry.counter("repro_sweep_points_retried").inc(
                float(retried)
            )
            registry.counter("repro_sweep_attempts_total").inc(
                float(sum(finished.attempts.values()))
            )
            registry.gauge(
                PHASE_METRIC,
                help="wall-clock seconds spent per named phase",
                phase="sweep",
            ).add(time.perf_counter() - sweep_start)
        if progress is not None:
            progress.update(
                done=len(finished.results),
                failed=len(finished.failures),
                in_flight=0,
                retried=retried,
                counters=(
                    observer.registry.totals()
                    if observer is not None
                    else None
                ),
                force=True,
            )
        return finished

    if not points:
        return observed(outcome)
    if workers is None:
        workers = min(os.cpu_count() or 1, len(points))
    rng = np.random.default_rng(retry_policy.seed if retry_policy else 0)
    max_attempts = retry_policy.max_attempts if retry_policy else 1
    deadline = time.monotonic() + timeout if timeout is not None else None

    def backoff(attempt: int) -> None:
        if retry_policy is None:
            return
        delay = retry_policy.backoff_delay(attempt - 1, rng)
        if observer is not None:
            observer.registry.counter(
                "repro_sweep_backoff_seconds_total"
            ).inc(delay)
        if delay > 0:
            time.sleep(delay)

    if chunk_size is None:
        chunk_size = max(1, len(points) // (max(workers, 1) * 4))
    if spans is not None:
        sweep_span.annotate(chunk_size=chunk_size)
    collect = observer is not None or spans is not None or progress is not None

    if workers <= 1 or len(points) == 1:
        from_obs = None
        if observer is not None:
            from ..obs.sink import Observer

            # Metrics-only view of the parent registry: serial points
            # write the same counters a worker shard would ship home.
            from_obs = Observer(registry=observer.registry)
        done_points = failed_points = retried_points = 0
        for index, chunk in enumerate(_chunked(points, chunk_size)):
            chunk_span = None
            if spans is not None:
                chunk_span = spans.open(
                    f"chunk-{index:04d}", "chunk", points=len(chunk)
                )
            chunk_requests = 0
            chunk_start = time.perf_counter()
            for point in chunk:
                errors: list[str] = []
                started = False
                for attempt in range(1, max_attempts + 1):
                    if deadline is not None and time.monotonic() > deadline:
                        errors.append(
                            _TIMEOUT_ERROR if started else _CANCELLED_ERROR
                        )
                        break
                    started = True
                    outcome.attempts[point.key] = attempt
                    try:
                        outcome.results[point.key] = _call_runner(
                            runner, point, engine, from_obs
                        )
                        break
                    except Exception as exc:  # noqa: BLE001
                        errors.append(f"{type(exc).__name__}: {exc}")
                        if attempt < max_attempts:
                            backoff(attempt)
                if point.key not in outcome.results:
                    outcome.failures[point.key] = errors or [_TIMEOUT_ERROR]
                    outcome.attempts.setdefault(point.key, 0)
                    failed_points += 1
                    if spans is not None:
                        _record_point_span(spans, point, "error", 0)
                else:
                    done_points += 1
                    if outcome.attempts[point.key] > 1:
                        retried_points += 1
                    if collect:
                        point_requests = _result_requests(
                            outcome.results[point.key]
                        )
                        chunk_requests += point_requests
                        if spans is not None:
                            _record_point_span(
                                spans, point, "ok", point_requests
                            )
                if progress is not None:
                    progress.update(
                        done=done_points,
                        failed=failed_points,
                        in_flight=0,
                        retried=retried_points,
                        counters=(
                            observer.registry.totals()
                            if observer is not None
                            else None
                        ),
                    )
            if spans is not None:
                chunk_span.annotate(requests=chunk_requests)
                spans.close(chunk_span)
            if observer is not None:
                elapsed = time.perf_counter() - chunk_start
                _chunk_throughput(
                    observer.registry, f"chunk-{index:04d}",
                    elapsed, chunk_requests,
                )
        return observed(outcome)

    by_key = {point.key: point for point in points}
    errors_by_key: dict[str, list[str]] = {key: [] for key in keys}
    attempts_by_key: dict[str, int] = {key: 0 for key in keys}
    retried_count = 0

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {}
        chunk_spans: dict[object, object] = {}
        chunk_labels: dict[object, str] = {}

        def submit(chunk: Sequence[SweepPoint], label: str) -> None:
            span_path = ""
            chunk_span = None
            if spans is not None:
                with spans.span(label, "chunk", points=len(chunk)) as opened:
                    chunk_span = opened
                span_path = chunk_span.path
            future = pool.submit(
                _run_chunk,
                chunk,
                engine,
                runner,
                observer is not None,
                spans is not None,
                spans.seed if spans is not None else 0,
                span_path,
            )
            pending[future] = [point.key for point in chunk]
            chunk_labels[future] = label
            if chunk_span is not None:
                chunk_spans[future] = chunk_span

        # Heaviest first; each chunk keeps its grid-order label, so span
        # ids and the merged registry do not depend on the dispatch.
        chunks = list(_chunked(points, chunk_size))
        for index in _heaviest_first(chunks):
            for point in chunks[index]:
                attempts_by_key[point.key] += 1
            submit(chunks[index], f"chunk-{index:04d}")
        timed_out = False
        while pending:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    timed_out = True
                    break
            done, _ = wait(
                pending, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                timed_out = True
                break
            for future in done:
                chunk_keys = pending.pop(future)
                label = chunk_labels.pop(future)
                chunk_span = chunk_spans.pop(future, None)
                try:
                    (
                        reports,
                        snapshot,
                        records,
                        elapsed,
                        chunk_requests,
                    ) = future.result()
                except Exception as exc:  # noqa: BLE001 - whole chunk died
                    reports = [
                        (key, False, f"{type(exc).__name__}: {exc}")
                        for key in chunk_keys
                    ]
                    snapshot = records = None
                    elapsed = 0.0
                    chunk_requests = 0
                if observer is not None and snapshot is not None:
                    observer.registry.merge(snapshot)
                    _chunk_throughput(
                        observer.registry, label, elapsed, chunk_requests
                    )
                if spans is not None:
                    chunk_span.annotate(requests=chunk_requests)
                    if records is not None:
                        spans.extend(records)
                for key, ok, payload in reports:
                    if ok:
                        outcome.results[key] = payload
                        continue
                    errors_by_key[key].append(payload)
                    if attempts_by_key[key] < max_attempts:
                        # Retry the point alone so a chunk-mate's cost
                        # is not paid twice.
                        backoff(attempts_by_key[key])
                        attempts_by_key[key] += 1
                        retried_count += 1
                        submit(
                            [by_key[key]],
                            f"retry-{_span_name(key)}-{attempts_by_key[key]}",
                        )
                    else:
                        outcome.failures[key] = errors_by_key[key]
                if progress is not None:
                    progress.update(
                        done=len(outcome.results),
                        failed=len(outcome.failures),
                        in_flight=sum(
                            len(keys) for keys in pending.values()
                        ),
                        retried=retried_count,
                        counters=(
                            observer.registry.totals()
                            if observer is not None
                            else None
                        ),
                    )
        if timed_out:
            for future, chunk_keys in pending.items():
                never_ran = future.cancel()
                for key in chunk_keys:
                    if key in outcome.results:
                        continue
                    if never_ran:
                        # The chunk was still queued: its points never
                        # started, which is a different forensic story
                        # than a point that ran out the clock.
                        attempts_by_key[key] -= 1
                        errors_by_key[key].append(_CANCELLED_ERROR)
                    else:
                        errors_by_key[key].append(_TIMEOUT_ERROR)
                    outcome.failures[key] = errors_by_key[key]
            pool.shutdown(wait=False, cancel_futures=True)

    outcome.attempts.update(attempts_by_key)
    return observed(outcome)


def _chunk_throughput(
    registry: "MetricsRegistry", label: str, elapsed: float, requests: int
) -> None:
    """Record one chunk's wall-clock cost and request throughput.

    Parent-only families (see :data:`WALLCLOCK_METRICS`): they carry
    wall-clock values, so they never ride in worker snapshots and are
    stripped from deterministic comparisons.
    """
    registry.gauge(
        "repro_sweep_chunk_seconds",
        help="wall-clock seconds per completed chunk",
        chunk=label,
    ).set(elapsed)
    if elapsed > 0:
        registry.gauge(
            "repro_sweep_chunk_requests_per_second",
            help="simulated request throughput per completed chunk",
            chunk=label,
        ).set(requests / elapsed)
