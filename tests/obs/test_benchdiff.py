"""The bench regression gate: pairing, direction, noise floor, exits."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.benchdiff import (
    HIGHER_BETTER,
    LOWER_BETTER,
    collect_metrics,
    diff_reports,
    format_deltas,
    load_report,
    run_bench_diff,
    scale_mismatches,
)


def _report(**overrides):
    base = {
        "schema": "bench_core/v1",
        "scale": 0.2,
        "seed": 2013,
        "workers": 2,
        "figure6": {
            "reference_seconds": 10.0,
            "fast_seconds": 2.0,
            "speedup": 5.0,
            "fast_requests_per_second": 5000,
        },
        "phase_seconds": {"figure6_fast": 2.0, "tiny": 0.001},
    }
    for path, value in overrides.items():
        cursor = base
        *parents, leaf = path.split("__")
        for parent in parents:
            cursor = cursor[parent]
        cursor[leaf] = value
    return base


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return path


class TestCollection:
    def test_directions_classified(self):
        directions = collect_metrics(_report())
        assert (
            directions["figure6/fast_requests_per_second"] == HIGHER_BETTER
        )
        assert directions["figure6/speedup"] == HIGHER_BETTER
        assert directions["figure6/fast_seconds"] == LOWER_BETTER
        assert directions["phase_seconds/figure6_fast"] == LOWER_BETTER

    def test_non_numeric_and_bool_leaves_skipped(self):
        report = _report()
        report["engines_identical"] = True
        report["label_seconds"] = "not a number"
        directions = collect_metrics(report)
        assert "engines_identical" not in directions
        assert "label_seconds" not in directions

    def test_unpaired_metrics_dropped(self):
        current = _report()
        current["figure6"]["extra_seconds"] = 1.0
        deltas = diff_reports(_report(), current)
        assert "figure6/extra_seconds" not in {d.name for d in deltas}


class TestDeltas:
    def test_throughput_drop_regresses(self):
        current = _report(figure6__fast_requests_per_second=4000)
        deltas = {d.name: d for d in diff_reports(_report(), current)}
        delta = deltas["figure6/fast_requests_per_second"]
        assert delta.change_pct == pytest.approx(20.0)
        assert delta.regressed(10.0)
        assert not delta.regressed(25.0)

    def test_seconds_increase_regresses(self):
        current = _report(figure6__fast_seconds=2.6)
        deltas = {d.name: d for d in diff_reports(_report(), current)}
        delta = deltas["figure6/fast_seconds"]
        assert delta.change_pct == pytest.approx(30.0)
        assert delta.regressed(10.0)

    def test_improvement_never_regresses(self):
        current = _report(
            figure6__fast_seconds=1.0, figure6__speedup=10.0
        )
        for delta in diff_reports(_report(), current):
            assert not delta.regressed(0.5)

    def test_zero_baseline_growth_is_infinite_regression(self):
        baseline = _report(phase_seconds__tiny=0.0)
        current = _report(phase_seconds__tiny=1.0)
        deltas = {d.name: d for d in diff_reports(baseline, current)}
        assert math.isinf(deltas["phase_seconds/tiny"].change_pct)

    def test_noise_floor_ungates_tiny_phases(self):
        current = _report(phase_seconds__tiny=0.004)  # 4x worse, sub-floor
        deltas = {d.name: d for d in diff_reports(_report(), current)}
        tiny = deltas["phase_seconds/tiny"]
        assert not tiny.gated
        assert not tiny.regressed(10.0)
        # But a real phase at the same ratio is gated.
        assert deltas["phase_seconds/figure6_fast"].gated

    def test_format_worst_first(self):
        current = _report(
            figure6__fast_seconds=2.2,
            figure6__fast_requests_per_second=2500,
        )
        text = format_deltas(diff_reports(_report(), current), 10.0)
        lines = [l for l in text.splitlines() if "figure6/" in l]
        assert "fast_requests_per_second" in lines[0]
        assert "REGRESSED" in lines[0]


class TestGateExits:
    def test_identical_reports_pass(self, tmp_path):
        base = _write(tmp_path, "base.json", _report())
        cur = _write(tmp_path, "cur.json", _report())
        assert run_bench_diff(base, cur, 10.0, out=lambda _: None) == 0

    def test_injected_regression_fails(self, tmp_path):
        base = _write(tmp_path, "base.json", _report())
        cur = _write(
            tmp_path, "cur.json",
            _report(figure6__fast_requests_per_second=4000),
        )
        assert (
            run_bench_diff(base, cur, 10.0, out=lambda _: None)
            == 1
        )

    def test_scale_mismatch_refused_unless_allowed(self, tmp_path):
        base = _write(tmp_path, "base.json", _report())
        cur = _write(tmp_path, "cur.json", _report(scale=1.0))
        assert run_bench_diff(base, cur, 10.0, out=lambda _: None) == 2
        assert (
            run_bench_diff(
                base, cur, 10.0,
                allow_scale_mismatch=True, out=lambda _: None,
            )
            == 0
        )

    def test_section_scale_mismatch_refused(self, tmp_path):
        # Same top-level scale, but a merged section recorded at another
        # scale: a 100M-request replay must not pair with a 20M one.
        section = {"scale": 0.2, "replay_seconds": 10.0}
        base = _write(tmp_path, "base.json", _report(stream_replay=section))
        cur = _write(
            tmp_path, "cur.json",
            _report(stream_replay={"scale": 1.0, "replay_seconds": 70.0}),
        )
        lines = []
        assert run_bench_diff(base, cur, 100.0, out=lines.append) == 2
        assert lines == [
            "bench-diff: scale mismatch in stream_replay (baseline 0.2, "
            "current 1.0); rerun at the baseline scale or pass "
            "--allow-scale-mismatch"
        ]
        # Forced through, the 5x-longer replay reads as a regression.
        assert run_bench_diff(
            base, cur, 100.0, allow_scale_mismatch=True, out=lambda _: None
        ) == 1

    def test_section_inherits_the_parent_scale(self, tmp_path):
        # A section without its own scale is measured at its parent's.
        base = _write(
            tmp_path, "base.json",
            _report(stream_replay={"scale": 0.2, "replay_seconds": 10.0}),
        )
        cur = _write(
            tmp_path, "cur.json",
            _report(stream_replay={"replay_seconds": 10.0}),
        )
        assert run_bench_diff(base, cur, 10.0, out=lambda _: None) == 0
        # A top-level mismatch is reported once, not again in figure6
        # (which inherits it); stream_replay agrees at 0.2 on both sides.
        assert scale_mismatches(
            _report(scale=1.0, stream_replay={"scale": 0.2}),
            _report(stream_replay={}),
        ) == [("(top level)", 1.0, 0.2)]

    def test_no_comparable_metrics_is_an_error(self, tmp_path):
        base = _write(tmp_path, "base.json", {"schema": "x", "note": "a"})
        cur = _write(tmp_path, "cur.json", {"schema": "x", "note": "b"})
        assert run_bench_diff(base, cur, 10.0, out=lambda _: None) == 2

    def test_load_report_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_report(path)
