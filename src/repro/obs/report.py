"""The ``python -m repro.obs`` command-line interface.

Five subcommands:

``report``
    Render a registry snapshot (``registry.json``) as a human-readable
    table, optionally summarizing a trace JSONL alongside it.  Pass a
    snapshot file or a directory containing ``registry.json`` /
    ``trace.jsonl`` (the layout ``smoke`` writes).

``smoke``
    Run a small fully-traced experiment (sample rate 1.0 by default)
    and write the three export artifacts — ``registry.json``,
    ``metrics.prom``, ``trace.jsonl`` — into ``--out``.  This is what
    the CI observability job runs before validating the exports with
    ``tests/obs/check_exports.py``.

``sweep-smoke``
    Run a small observed parallel sweep and write the sweep-scale
    artifacts — merged ``registry.json`` (plus the wall-clock-stripped
    ``registry.deterministic.json``), merged ``spans.jsonl``, and the
    final ``heartbeat.json`` — into ``--out``, validating each.  The
    CI ``obs-progress`` job runs this.

``watch``
    Render a live sweep's heartbeat file; ``--follow`` repaints until
    the run finishes.

``bench-diff``
    Compare two ``BENCH_*.json`` reports and exit non-zero when any
    throughput or phase-seconds metric regressed beyond
    ``--fail-over`` percent (the CI bench gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .benchdiff import DEFAULT_MIN_SECONDS, run_bench_diff
from .progress import ProgressReporter, read_heartbeat, render_heartbeat
from .registry import MetricsRegistry
from .schema import (
    validate_heartbeat,
    validate_prometheus_text,
    validate_registry_snapshot,
    validate_span_file,
    validate_trace_file,
)
from .sink import Observer
from .spans import SpanTracker
from .trace import TraceSampler, TraceWriter


def _load_snapshot(path: Path) -> dict[str, object]:
    with open(path, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    validate_registry_snapshot(snapshot)
    return snapshot


def render_snapshot(snapshot: dict[str, object]) -> str:
    """A plain-text table of every family and sample in a snapshot."""
    lines: list[str] = []
    metrics = snapshot["metrics"]
    assert isinstance(metrics, list)
    for family in metrics:
        lines.append(f"{family['name']} ({family['type']})")
        if family.get("help"):
            lines.append(f"  # {family['help']}")
        for sample in family["samples"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(sample["labels"].items())
            )
            prefix = f"  {{{labels}}}" if labels else "  (no labels)"
            if family["type"] == "histogram":
                lines.append(
                    f"{prefix} count={sample['count']} sum={sample['sum']}"
                )
            else:
                lines.append(f"{prefix} {sample['value']}")
    if not lines:
        lines.append("(empty registry)")
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> int:
    target = Path(args.path)
    snapshot_path = target
    trace_path: Path | None = None
    if target.is_dir():
        snapshot_path = target / "registry.json"
        candidate = target / "trace.jsonl"
        if candidate.exists():
            trace_path = candidate
    snapshot = _load_snapshot(snapshot_path)
    print(render_snapshot(snapshot))
    if trace_path is not None:
        stats = validate_trace_file(trace_path)
        print(
            f"\ntrace: {stats.headers} run(s), "
            f"{stats.requests} sampled request record(s)"
        )
    return 0


def run_smoke(
    out_dir: Path,
    num_requests: int = 5_000,
    num_objects: int = 200,
    seed: int = 2013,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
    engine: str = "reference",
) -> dict[str, Path]:
    """Run a tiny traced experiment; write and validate all exports.

    Returns the paths of the written artifacts.  Import of the core
    package happens here (not at module import) so the obs package
    stays usable standalone.
    """
    from ..core.architectures import BASELINE_ARCHITECTURES
    from ..core.experiment import ExperimentConfig, run_experiment

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    registry_path = out_dir / "registry.json"
    prom_path = out_dir / "metrics.prom"

    registry = MetricsRegistry()
    sampler = TraceSampler(rate=sample_rate, seed=sample_seed)
    with TraceWriter(trace_path, sampler=sampler) as tracer:
        observer = Observer(registry=registry, tracer=tracer)
        config = ExperimentConfig(
            tree_depth=3,
            num_objects=num_objects,
            num_requests=num_requests,
            seed=seed,
        )
        run_experiment(
            config,
            BASELINE_ARCHITECTURES,
            engine=engine,
            observer=observer,
        )

    registry_path.write_text(registry.to_json() + "\n", encoding="utf-8")
    prom_text = registry.to_prometheus()
    prom_path.write_text(prom_text, encoding="utf-8")

    validate_registry_snapshot(registry.snapshot())
    validate_prometheus_text(prom_text)
    validate_trace_file(trace_path)
    return {
        "registry": registry_path,
        "prometheus": prom_path,
        "trace": trace_path,
    }


def _cmd_smoke(args: argparse.Namespace) -> int:
    paths = run_smoke(
        Path(args.out),
        num_requests=args.requests,
        num_objects=args.objects,
        seed=args.seed,
        sample_rate=args.sample_rate,
        sample_seed=args.sample_seed,
        engine=args.engine,
    )
    stats = validate_trace_file(paths["trace"])
    print(
        f"smoke run ok: {stats.headers} run(s), "
        f"{stats.requests} trace record(s)"
    )
    for kind, path in sorted(paths.items()):
        print(f"  {kind}: {path}")
    return 0


def run_sweep_smoke(
    out_dir: Path,
    num_points: int = 6,
    num_requests: int = 2_000,
    num_objects: int = 100,
    seed: int = 2013,
    workers: int = 2,
    chunk_size: int | None = None,
    engine: str = "fast",
) -> dict[str, Path]:
    """Run a small observed sweep; write and validate all artifacts.

    The grid varies the Zipf ``alpha`` across ``num_points`` small
    configurations re-seeded with :func:`repro.core.sweep.seeded_configs`.
    Artifacts: the merged ``registry.json``, its wall-clock-stripped
    twin ``registry.deterministic.json`` (byte-identical across reruns
    and worker counts for a fixed chunk size), the merged canonical
    ``spans.jsonl``, and the final ``heartbeat.json``.
    """
    from ..core.experiment import ExperimentConfig
    from ..core.sweep import (
        SweepPoint,
        deterministic_snapshot,
        run_sweep,
        seeded_configs,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    registry_path = out_dir / "registry.json"
    deterministic_path = out_dir / "registry.deterministic.json"
    spans_path = out_dir / "spans.jsonl"
    heartbeat_path = out_dir / "heartbeat.json"

    configs = seeded_configs(
        seed,
        (
            ExperimentConfig(
                tree_depth=3,
                num_objects=num_objects,
                num_requests=num_requests,
                alpha=round(0.4 + 0.1 * index, 2),
            )
            for index in range(num_points)
        ),
    )
    points = [
        SweepPoint(key=f"alpha-{config.alpha:.2f}", config=config)
        for config in configs
    ]

    registry = MetricsRegistry()
    observer = Observer(registry=registry)
    tracker = SpanTracker(seed)
    run_span = tracker.open("sweep-smoke", "run", seed=seed, engine=engine)
    progress = ProgressReporter(heartbeat_path)
    outcome = run_sweep(
        points,
        workers=workers,
        engine=engine,
        chunk_size=chunk_size,
        observer=observer,
        progress=progress,
        spans=tracker,
    )
    tracker.close(run_span)
    outcome.raise_on_failure()

    registry_path.write_text(registry.to_json() + "\n", encoding="utf-8")
    deterministic_path.write_text(
        json.dumps(
            deterministic_snapshot(registry),
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n",
        encoding="utf-8",
    )
    tracker.write(spans_path)

    validate_registry_snapshot(registry.snapshot())
    validate_span_file(spans_path)
    validate_heartbeat(read_heartbeat(heartbeat_path))
    return {
        "registry": registry_path,
        "registry_deterministic": deterministic_path,
        "spans": spans_path,
        "heartbeat": heartbeat_path,
    }


def _cmd_sweep_smoke(args: argparse.Namespace) -> int:
    paths = run_sweep_smoke(
        Path(args.out),
        num_points=args.points,
        num_requests=args.requests,
        num_objects=args.objects,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        engine=args.engine,
    )
    stats = validate_span_file(paths["spans"])
    heartbeat = read_heartbeat(paths["heartbeat"])
    print(
        f"sweep smoke ok: {heartbeat['done']}/{heartbeat['total']} points, "
        f"{stats.spans} span record(s)"
    )
    for kind, path in sorted(paths.items()):
        print(f"  {kind}: {path}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    path = Path(args.path)
    while True:
        if path.exists():
            payload = read_heartbeat(path)
            print(render_heartbeat(payload))
            finished = (
                payload["done"] + payload["failed"] >= payload["total"]
                and payload["total"] > 0
            )
            if not args.follow or finished:
                return 0
        elif not args.follow:
            print(f"no heartbeat at {path}", file=sys.stderr)
            return 1
        else:
            print(f"waiting for {path} ...")
        time.sleep(args.interval)


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    return run_bench_diff(
        Path(args.baseline),
        Path(args.current),
        fail_over_pct=args.fail_over,
        min_seconds=args.min_seconds,
        allow_scale_mismatch=args.allow_scale_mismatch,
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability exports: render reports, run smoke runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render a registry snapshot (file or smoke out dir)"
    )
    report.add_argument("path", help="registry.json or a directory with it")
    report.set_defaults(func=_cmd_report)

    smoke = sub.add_parser(
        "smoke", help="run a small traced experiment and write exports"
    )
    smoke.add_argument("--out", required=True, help="output directory")
    smoke.add_argument("--requests", type=int, default=5_000)
    smoke.add_argument("--objects", type=int, default=200)
    smoke.add_argument("--seed", type=int, default=2013)
    smoke.add_argument("--sample-rate", type=float, default=1.0)
    smoke.add_argument("--sample-seed", type=int, default=0)
    smoke.add_argument(
        "--engine", choices=("reference", "fast"), default="reference"
    )
    smoke.set_defaults(func=_cmd_smoke)

    sweep_smoke = sub.add_parser(
        "sweep-smoke",
        help="run a small observed sweep and write sweep artifacts",
    )
    sweep_smoke.add_argument("--out", required=True, help="output directory")
    sweep_smoke.add_argument("--points", type=int, default=6)
    sweep_smoke.add_argument("--requests", type=int, default=2_000)
    sweep_smoke.add_argument("--objects", type=int, default=100)
    sweep_smoke.add_argument("--seed", type=int, default=2013)
    sweep_smoke.add_argument("--workers", type=int, default=2)
    sweep_smoke.add_argument("--chunk-size", type=int, default=None)
    sweep_smoke.add_argument(
        "--engine", choices=("reference", "fast"), default="fast"
    )
    sweep_smoke.set_defaults(func=_cmd_sweep_smoke)

    watch = sub.add_parser(
        "watch", help="render a sweep heartbeat file (live progress)"
    )
    watch.add_argument("path", help="heartbeat.json written by a sweep")
    watch.add_argument(
        "--follow", action="store_true",
        help="repaint until the run finishes",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between repaints with --follow",
    )
    watch.set_defaults(func=_cmd_watch)

    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare two bench reports; non-zero exit on regression",
    )
    bench_diff.add_argument("baseline", help="baseline BENCH_*.json")
    bench_diff.add_argument("current", help="current BENCH_*.json")
    bench_diff.add_argument(
        "--fail-over", type=float, default=10.0,
        help="regression threshold in percent (default 10)",
    )
    bench_diff.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="noise floor: wall-clock phases under this many seconds "
        "in both reports are reported but not gated",
    )
    bench_diff.add_argument(
        "--allow-scale-mismatch", action="store_true",
        help="compare reports (or sections) recorded at different scales",
    )
    bench_diff.set_defaults(func=_cmd_bench_diff)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    result = args.func(args)
    assert isinstance(result, int)
    return result


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
