"""Run one benchmark workload against the simulator and report its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-edge --seed 1 --seconds 20 --trace 0

The load is closed-loop: this one process calls into ``repro`` and, for
``fig6-sweep``, lets ``run_sweep`` fan points out over its own worker
pool.  A run repeats the workload's entry-point call until ``--seconds``
have passed, at least ``MIN_REPS`` times, and reports medians.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that times each public call into a layer and prints
the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full report (host fingerprint, workload parameters, every sample,
result digests) and, when traced, the span file land in ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one benchmark process (plus the
# sweep's own workers) is the whole load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from functools import cache  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fewest end-to-end repetitions per run, however short ``--seconds`` is.
MIN_REPS = 3
#: Set-ups timed on their own before each repetition; ``setup_s`` is the
#: median of all of them, spread over the whole run.
SETUPS_PER_REP = 3
#: Largest |trace.closure_ratio - 1| the self-test accepts: the traced
#: call-by-call layers of a repetition against a separately timed call
#: of the entry point on the same configuration.
CLOSURE_TOLERANCE = 0.5

#: Seconds :func:`calibrate` takes at the reference host speed.  The
#: end-to-end times are reported at that speed: each repetition's times
#: are scaled by ``CAL_REF_S`` over the mean of the calibration times
#: measured just before and just after it.
CAL_REF_S = 0.1
#: Draws in the calibration loop's key stream, from as many keys.
CAL_KEYS = 1 << 18

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
)

_ARCHS = ("NO-CACHE", "ICN-SP", "ICN-NR", "EDGE", "EDGE-Coop", "EDGE-Norm")
_CACHED = _ARCHS[1:]
_LAYERS = ("bench", "workload", "topology", "core", "obs", "sweep")

#: Per-layer metrics of a traced run: (name, unit, better).  A layer a
#: workload never enters reads 0.
PER_LAYER = (
    [
        ("workload.gen_s", "s", "lower"),
        ("workload.tolist_s", "s", "lower"),
        ("workload.chunks", "count", "lower"),
        ("workload.build_s", "s", "lower"),
        ("topology.build_s", "s", "lower"),
        ("core.account_s", "s", "lower"),
    ]
    + [(f"core.run_s.{a}", "s", "lower") for a in _ARCHS]
    + [(f"core.walk_s.{a}", "s", "lower") for a in _CACHED]
    + [(f"cache.mutate_s.{a}", "s", "lower") for a in _CACHED]
    + [(f"cache.hit_ratio.{a}", "ratio", "higher") for a in _CACHED]
    + [(f"cache.copies.{a}", "count", "lower") for a in _CACHED]
    + [(f"cache.evictions.{a}", "count", "lower") for a in _CACHED]
    + [
        ("sweep.points", "count", "higher"),
        ("sweep.attempts", "count", "lower"),
        ("sweep.failed", "count", "lower"),
        ("sweep.busy_s", "s", "lower"),
        ("sweep.idle_s", "s", "lower"),
        ("sweep.point_bytes", "bytes", "lower"),
        ("obs.overhead_ratio", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.closure_ratio", "ratio", "lower"),
    ]
    + [(f"self_s.{layer}", "s", "lower") for layer in _LAYERS]
)


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"repro imported from {repro.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict[str, object]:
    """What a like-for-like comparison of two reports needs to match."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (sweep worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def workload_spec(name: str):
    """The named workload with its sweep workers capped at ``nproc``."""
    from workloads import WORKLOADS

    spec = WORKLOADS[name]
    return replace(spec, workers=min(spec.workers, nproc()))


def setup_time(spec, seed: int) -> float:
    """One set-up, built call by call and timed on its own."""
    from tracing import NullTracer

    gc.collect()
    begin = time.perf_counter()
    spec.setup(seed, NullTracer())
    return time.perf_counter() - begin


def entry_time(spec, seed: int, gate) -> tuple[float, int]:
    """Time one entry-point call, set-up included; check what it returns.

    Returns the call's seconds and the requests it simulated.
    """
    gc.collect()  # the previous repetition's garbage is not this one's cost
    begin = time.perf_counter()
    outcome = spec.entry(seed)
    wall_s = time.perf_counter() - begin
    return wall_s, spec.check(seed, outcome, gate)


@cache
def _calibration_keys() -> array.array:
    # A fixed stream of uniform keys, the same on every host and run.
    draw = random.Random(0).randrange
    return array.array("l", (draw(CAL_KEYS) for _ in range(CAL_KEYS)))


def calibrate() -> float:
    """Seconds a fixed dict-bound pure-Python loop takes right now.

    On a shared host, the speed at which Python runs drifts by up to 2x
    over minutes.  The simulator's hot loops are dict- and list-bound
    Python like this loop, so their times drift with it, and dividing by
    this loop's time removes most of the drift.
    """
    keys = _calibration_keys()
    gc.collect()
    begin = time.perf_counter()
    table: dict[int, int] = {}
    for i, key in enumerate(keys):
        seen = table.get(key)
        table[key] = i if seen is None else seen + 1
    return time.perf_counter() - begin


def serve_calibration() -> None:
    """Answer each line on stdin with one :func:`calibrate` time; stop at EOF."""
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)


class Calibrator:
    """Runs :func:`calibrate` in a child Python process of its own.

    The loop's table takes about 20 MB; in the benchmark process it
    would count toward ``peak_rss_mb``, and for ``fig6-sweep`` it would
    outgrow the sweep workers it is meant to report.  A fresh process
    that imports only the standard library starts small, so as a reaped
    child it stays below both.  It is a plain subprocess, not a
    ``multiprocessing`` one, so no helper process (such as the resource
    tracker) outlives the run; leaving the ``with`` block always waits
    for the child to end.
    """

    #: Seconds the child gets to exit after its stdin closes.
    STOP_TIMEOUT_S = 30.0

    def __enter__(self) -> "Calibrator":
        code = (
            f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import run; run.serve_calibration()"
        )
        self._process = subprocess.Popen(
            [sys.executable, "-c", code],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        return self

    def __call__(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended early")
        return float(line)

    def __exit__(self, *exc) -> None:
        process = self._process
        try:
            process.stdin.close()
            process.wait(timeout=self.STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()
        finally:
            process.stdout.close()


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(spec, seed: int, seconds: float, gate, min_reps: int = MIN_REPS) -> dict:
    """Untraced repetitions for ``seconds``; medians of the samples.

    ``wall_s`` is the entry-point call.  Its simulation time is the call
    minus the median set-up, which gives ``requests_per_s``.  The
    reported times are at the reference host speed (see ``CAL_REF_S``);
    the report keeps the measured seconds too, under ``measured``.
    """
    measured: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    with Calibrator() as calibrated:
        calibration = [calibrated()]
        start = time.perf_counter()
        while len(samples["wall_s"]) < min_reps or time.perf_counter() - start < seconds:
            setups = [setup_time(spec, seed) for _ in range(SETUPS_PER_REP)]
            wall_s, requests = entry_time(spec, seed, gate)
            calibration.append(calibrated())
            scale = CAL_REF_S / statistics.mean(calibration[-2:])
            measured["setup_s"].extend(setups)
            measured["wall_s"].append(wall_s)
            samples["setup_s"].extend(setup * scale for setup in setups)
            samples["wall_s"].append(wall_s * scale)
    for times in (measured, samples):
        setup_s = statistics.median(times["setup_s"])
        times["requests_per_s"] = [
            requests / (wall - setup_s) for wall in times["wall_s"]
        ]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "samples": samples,
        "quartiles": {name: _quartiles(v) for name, v in samples.items()},
        "measured": {name: statistics.median(v) for name, v in measured.items()},
        "measured_samples": measured,
        "calibration_s": calibration,
        "calibration_ref_s": CAL_REF_S,
        "requests_per_rep": requests,
    }


def traced(
    spec, seed: int, seconds: float, gate, min_reps: int = 1
) -> dict:
    """Traced repetitions: per-layer metrics, span self times, span file.

    Each repetition times one set-up and one entry-point call untraced,
    then makes the same runs call by call under the tracer (their
    simulation-time ratio is ``trace.overhead_ratio``), then the
    subtraction passes.  The reported layers all come from one
    repetition, the one whose live simulation time is the median; every
    repetition stays in the report.
    """
    from tracing import Tracer

    samples: list[dict[str, float]] = []
    tracers = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < seconds:
        setup_s = setup_time(spec, seed)
        plain_sim_s = entry_time(spec, seed, gate)[0] - setup_s
        tracer = Tracer(f"{spec.name}-seed{seed}-rep{len(samples)}")
        gc.collect()
        with tracer.span("bench.rep"):
            state = spec.setup(seed, tracer)
            rep = spec.simulate(state, tracer, gate)
        with tracer.span("bench.layers"):
            layers = spec.layers(rep, tracer, gate)
        layers["trace.overhead_ratio"] = rep.sim_s / plain_sim_s
        for layer, layer_s in tracer.self_times().items():
            layers[f"self_s.{layer}"] = layer_s
        samples.append(layers)
        tracers.append(tracer)
        del rep, state

    def live_s(layers: dict[str, float]) -> float:
        return sum(v for k, v in layers.items() if k.startswith("core.run_s."))

    order = sorted(range(len(samples)), key=lambda i: live_s(samples[i]))
    chosen = order[(len(order) - 1) // 2]
    metrics = {name: samples[chosen].get(name, 0.0) for name, _, _ in PER_LAYER}
    return {
        "metrics": metrics,
        "samples": samples,
        "reported_rep": chosen,
        "closure": [layers["trace.closure_ratio"] for layers in samples],
        "tracers": tracers,
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    min_reps: int | None = None,
    out_dir: Path = OUT,
) -> dict:
    """Run one workload; return the result line and write the report."""
    from gate import Gate

    spec = workload_spec(workload)
    if scale != 1.0:
        spec = spec.scaled(scale)
    gate = Gate()
    started = time.perf_counter()
    spec.parity(seed, gate)
    report: dict[str, object] = {
        "schema": "perfbench/report/v1",
        "workload": workload,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(),
        "caps": {
            "native_threads": {var: os.environ[var] for var in THREAD_VARS},
            "sweep_workers": spec.workers,
            "nproc": nproc(),
        },
        "params": spec.params(seed),
        "request_digest": spec.request_digest(seed),
    }
    if trace:
        measured = traced(spec, seed, seconds, gate, min_reps or 1)
        units = {name: unit for name, unit, _ in PER_LAYER}
        span_path = out_dir / f"{workload}-seed{seed}.spans.jsonl"
        lines = []
        for tracer in measured.pop("tracers"):
            lines.extend(tracer.lines())
        span_path.parent.mkdir(parents=True, exist_ok=True)
        span_path.write_text("".join(lines))
        report["spans"] = str(span_path.relative_to(out_dir.parent))
        report["closure_tolerance"] = CLOSURE_TOLERANCE
    else:
        measured = measure(spec, seed, seconds, gate, min_reps or MIN_REPS)
        units = dict(END_TO_END)
    report.update(measured)
    report["elapsed_s"] = time.perf_counter() - started
    report["runs"] = gate.attempted
    report["failed"] = gate.failed
    report["error_rate"] = gate.error_rate
    report["problems"] = gate.problems
    report["digests"] = gate.digests
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in measured["metrics"].items()
        },
    }
    report["result"] = result
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("stream-edge", "fig6-sweep", "churn-sized"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    rate = result["failed"] / result["attempted"]
    print(
        f"{args.workload} error_rate {rate:.6g} ratio "
        f"(runs={result['attempted']}, failed={result['failed']})"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
