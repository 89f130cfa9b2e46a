"""Self-tests of the benchmark: inputs, names, smoke, layer closure, gate.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import workloads
from gate import Gate
from repro.core import SweepOutcome

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Shrinks every workload to a sub-second smoke size.
TINY = {"stream-edge": 0.02, "fig6-sweep": 0.02, "churn-sized": 0.08}


def spec(name: str):
    return run.workload_spec(name).scaled(TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_seed_fixes_the_request_columns(name):
    bench = spec(name)
    first = bench.request_digest(11)
    assert bench.request_digest(11) == first
    assert bench.request_digest(12) != first


def test_metric_names_and_benchmark_json_agree():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (name, bench.why) for name, bench in workloads.WORKLOADS.items()
    ]
    for name, *_ in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _span_sums(lines: list[str], run_id: str) -> dict[str, float]:
    sums: dict[str, float] = {}
    for line in lines:
        span = json.loads(line)
        if span["run_id"] == run_id:
            name = span["name"]
            sums[name] = sums.get(name, 0.0) + span["end"] - span["start"]
    return sums


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_and_layer_closure(name, tmp_path):
    plain = run.run(name, 3, 0, False, scale=TINY[name], min_reps=1, out_dir=tmp_path)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert list(plain["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run(name, 3, 0, True, scale=TINY[name], min_reps=3, out_dir=tmp_path)
    report = json.loads((tmp_path / f"{name}-seed3-trace1.json").read_text())
    assert traced["correct"], report["problems"]
    assert list(traced["metrics"]) == [n for n, _, _ in run.PER_LAYER]
    for key in ("host", "params", "caps", "request_digest", "digests"):
        assert report[key]

    # The reported layers come from the span file's reported repetition.
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    lines = (tmp_path / f"{name}-seed3.spans.jsonl").read_text().splitlines()
    spans = _span_sums(lines, f"{name}-seed3-rep{report['reported_rep']}")
    for arch in report["params"]["architectures"]:
        span_s = spans[f"core.run.{arch}"]
        assert layers[f"core.run_s.{arch}"] == pytest.approx(span_s, rel=0.01, abs=1e-3)

    # Closure: the call-by-call layers account for a separately timed
    # entry-point call on the same configuration.
    closure = statistics.median(report["closure"])
    assert abs(closure - 1.0) <= run.CLOSURE_TOLERANCE, report["closure"]


def test_tampered_result_counts_toward_error_rate():
    bench = spec("stream-edge")
    gate = Gate()
    experiment = bench.entry(4)
    bench.check(4, experiment, gate)
    assert gate.failed == 0
    edge = experiment.results["EDGE"]
    expected = workloads.measured(bench.config(4))
    tampered = dataclasses.replace(edge, cache_served=edge.cache_served + 1)
    assert not gate.check_run("EDGE", tampered, expected)
    assert gate.failed == 1 and gate.error_rate > 0
    # A repeat whose digest moved fails even when its invariants hold.
    swapped = dataclasses.replace(
        edge, cache_served=edge.cache_served + 1,
        total_origin_load=edge.total_origin_load - 1,
    )
    assert not gate.check_run("EDGE", swapped, expected)
    assert gate.failed == 2


def test_failed_sweep_point_counts_every_run(monkeypatch):
    bench = spec("fig6-sweep")

    def broken_sweep(points, **_):
        outcome = SweepOutcome()
        for point in points:
            outcome.failures[point.key] = ["RuntimeError: injected"]
            outcome.attempts[point.key] = 1
        return outcome

    monkeypatch.setattr(workloads, "run_sweep", broken_sweep)
    gate = Gate()
    points, outcome = bench.entry(6)
    bench.check(6, (points, outcome), gate)
    runs = len(points) * (1 + len(bench.architectures))
    assert gate.attempted == gate.failed == runs
    assert gate.error_rate == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-edge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_base_is_every_attempted_run():
    gate = Gate()
    gate.record("ok", [])
    gate.fail("point", "sweep point failed", runs=3)
    assert (gate.attempted, gate.failed) == (4, 3)
