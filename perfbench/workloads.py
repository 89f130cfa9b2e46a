"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload knows how to

* ``entry``: run the whole workload through the program's own entry
  point (``run_streamed_experiment`` or ``run_sweep``), set-up included;
  this is the call the end-to-end metrics time;
* ``check``: check each result of ``entry`` through the
  :class:`~gate.Gate` and count the simulated requests;
* ``setup``: build, call by call, everything a run needs before its first
  simulated request (networks, hop costs, budgets, workload factories or
  trace objects, sweep points), which is what ``setup_s`` times;
* ``simulate``: make every simulation run of the workload call by call on
  that set-up, so a traced run can time each call;
* ``parity``: replay a short stream of the same shape and seed on the
  reference and the fast engine and compare them field for field;
* ``layers``: the traced decomposition, timing each public call into a
  layer from outside (see ``README.md`` for the layer map).

Sizes are fixed per workload; ``scaled`` shrinks them for self-tests only.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.cache.budget import node_budgets
from repro.core import (
    BASELINE_ARCHITECTURES,
    EDGE,
    ICN_SP,
    Architecture,
    ExperimentConfig,
    ExperimentResult,
    SimulationResult,
    Simulator,
    SweepOutcome,
    SweepPoint,
    build_network,
    build_streaming_workload,
    build_workload,
    run_experiment,
    run_streamed_experiment,
    run_sweep,
    simulate_no_cache,
)
from repro.core.latency import hop_costs
from repro.obs import Observer
from repro.topology import TOPOLOGY_NAMES, topology
from repro.workload import DEFAULT_CHUNK_SIZE, region_object_stream

from gate import Gate, field_differences
from tracing import NullTracer

#: Architecture names in the order the per-layer metrics list them.
ARCH_NAMES = ("ICN-SP", "ICN-NR", "EDGE", "EDGE-Coop", "EDGE-Norm")

#: Requests in the untimed reference-vs-fast replay of a streamed shape.
PARITY_REQUESTS = 20_000

#: Figure 6 scale of the untimed reference-vs-fast replay.
PARITY_FIG6_SCALE = 0.01

#: Full-size Asia trace (Table 2), for converting request counts to scale.
ASIA_REQUESTS = 1_800_000


def measured(config: ExperimentConfig, num_requests: int | None = None) -> int:
    """Requests a run measures: the stream minus its warmup prefix.

    ``num_requests`` overrides the config's length for trace-driven
    workloads, whose stream is the trace's object sequence.
    """
    if num_requests is None:
        num_requests = config.num_requests
    return num_requests - int(config.warmup_fraction * num_requests)


def _span(tracer, name: str, call: Callable, *args, **kwargs):
    """Call into the program inside a span; return ``(value, seconds)``."""
    with tracer.span(name):
        start = time.perf_counter()
        value = call(*args, **kwargs)
        return value, time.perf_counter() - start


def _add(out: dict[str, float], key: str, value: float) -> None:
    out[key] = out.get(key, 0.0) + value


def column_digest(worlds) -> str:
    """sha256 over the request columns (pops, leaves, objects) of ``worlds``."""
    digest = hashlib.sha256()
    for world in worlds:
        for chunk in world.workload.chunks():
            for column in (chunk.pops, chunk.leaves, chunk.objects):
                digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


@dataclass
class Rep:
    """Every simulation run of a workload, made call by call on a set-up."""

    sim_s: float
    requests: int
    state: Any
    results: dict[str, SimulationResult] = field(default_factory=dict)
    run_s: dict[str, float] = field(default_factory=dict)
    outcome: Any = None


@dataclass(frozen=True)
class World:
    """One configuration's network, hop costs, budgets and workload."""

    config: ExperimentConfig
    network: Any
    costs: Any
    budgets: list
    workload: Any
    topology_s: float
    build_s: float

    def simulator(self, arch: Architecture, engine: str = "fast", **extra) -> Simulator:
        config = self.config
        return Simulator(
            self.network,
            arch,
            self.workload,
            self.budgets,
            policy=config.policy,
            hop_costs=self.costs,
            capacity=config.capacity,
            warmup_fraction=config.warmup_fraction,
            engine=engine,
            **extra,
        )

    def baseline(self, engine: str = "fast") -> SimulationResult:
        return simulate_no_cache(
            self.network,
            self.workload,
            self.costs,
            warmup_fraction=self.config.warmup_fraction,
            engine=engine,
        )


def build_world(config: ExperimentConfig, tracer, make_workload: Callable) -> World:
    """The calls ``run_experiment`` makes before its first request."""
    network, net_s = _span(tracer, "topology.build_network", build_network, config)
    costs, cost_s = _span(
        tracer, "topology.hop_costs", hop_costs, network,
        config.latency_model, config.core_latency_factor,
    )
    budgets, budget_s = _span(
        tracer, "topology.node_budgets", node_budgets, network,
        config.budget_fraction, config.num_objects, config.budget_split,
    )
    workload, build_s = _span(
        tracer, "workload.build", make_workload, config, network
    )
    return World(
        config, network, costs, budgets, workload,
        net_s + cost_s + budget_s, build_s,
    )


def run_live(
    world: World, architectures: tuple[Architecture, ...], tracer
) -> tuple[dict[str, SimulationResult], dict[str, float]]:
    """NO-CACHE plus each architecture, as ``run_experiment`` runs them."""
    results, times = {}, {}
    results["NO-CACHE"], times["NO-CACHE"] = _span(
        tracer, "core.run.NO-CACHE", world.baseline
    )
    for arch in architectures:
        results[arch.name], times[arch.name] = _span(
            tracer, f"core.run.{arch.name}", world.simulator(arch).run
        )
    return results, times


def check_runs(
    gate: Gate,
    prefix: str,
    expected: int,
    results: dict[str, SimulationResult],
) -> None:
    """Check NO-CACHE and every cached run of one configuration.

    The labels are the same whether the results come from the entry
    point or from the call-by-call replay, so the gate's digest check
    also requires the two to agree.
    """
    baseline = results["NO-CACHE"]
    for name, result in results.items():
        gate.check_run(
            prefix + name, result, expected,
            None if name == "NO-CACHE" else baseline,
        )


def all_runs(experiment: ExperimentResult) -> dict[str, SimulationResult]:
    return {"NO-CACHE": experiment.baseline, **experiment.results}


def account_entry(
    world: World,
    live_s: dict[str, float],
    entry: Callable[[], ExperimentResult],
    tracer,
    out: dict[str, float],
) -> None:
    """Time the entry point on ``world``'s configuration, for closure.

    The call-by-call layers of ``world`` (topology, workload build and
    every live run) must account for this separately measured call.
    """
    gc.collect()
    _, entry_s = _span(tracer, "entry.run", entry)
    _add(out, "trace.entry_s", entry_s)
    _add(
        out, "trace.layers_s",
        world.topology_s + world.build_s + sum(live_s.values()),
    )


def check_parity(gate: Gate, prefix: str, world: World, architectures) -> None:
    """Untimed: the fast engine must equal the reference field for field."""
    pairs = [("NO-CACHE", world.baseline("reference"), world.baseline())]
    for arch in architectures:
        pairs.append((
            arch.name,
            world.simulator(arch, engine="reference").run(),
            world.simulator(arch).run(),
        ))
    for name, ref, fast in pairs:
        diff = field_differences(ref, fast)
        gate.record(
            f"parity.{prefix}{name}",
            [f"reference and fast differ on {diff}"] if diff else [],
        )


def decompose(
    world: World,
    architectures: tuple[Architecture, ...],
    live: dict[str, SimulationResult],
    live_s: dict[str, float],
    tracer,
    gate: Gate,
    out: dict[str, float],
) -> None:
    """Add one world's layer times to ``out``, measured by subtraction.

    generate-only pass -> ``workload.gen_s``; generate + ``tolist`` pass
    minus it -> ``workload.tolist_s``; the NO-CACHE run minus both ->
    ``core.account_s``; a frozen-cache run minus NO-CACHE ->
    ``core.walk_s``; the live run minus the frozen one ->
    ``cache.mutate_s`` (a lower bound: the frozen run misses everywhere).
    """
    def generate() -> int:
        return sum(1 for _ in world.workload.chunks())

    def convert() -> None:
        for chunk in world.workload.chunks():
            chunk.pops.tolist()
            chunk.leaves.tolist()
            chunk.objects.tolist()

    chunks, gen = _span(tracer, "workload.gen", generate)
    _, both = _span(tracer, "workload.tolist", convert)
    base = live_s["NO-CACHE"]
    _add(out, "topology.build_s", world.topology_s)
    _add(out, "workload.build_s", world.build_s)
    _add(out, "workload.gen_s", gen)
    _add(out, "workload.tolist_s", both - gen)
    _add(out, "workload.chunks", chunks)
    _add(out, "core.account_s", base - both)
    _add(out, "core.run_s.NO-CACHE", base)
    for arch in architectures:
        name = arch.name
        _, frozen = _span(
            tracer, f"core.frozen.{name}",
            world.simulator(arch, frozen_caches=True).run,
        )
        observer = Observer()
        observed, obs_s = _span(
            tracer, f"obs.run.{name}",
            world.simulator(arch, observer=observer).run,
        )
        diff = field_differences(observed, live[name])
        gate.record(
            f"observed.{world.config.topology}/{name}",
            [f"observer changed {diff}"] if diff else [],
        )
        totals = observer.registry.totals()
        _add(out, f"core.run_s.{name}", live_s[name])
        _add(out, f"core.walk_s.{name}", frozen - base)
        _add(out, f"cache.mutate_s.{name}", live_s[name] - frozen)
        _add(out, f"cache.served.{name}", observed.cache_served + observed.coop_served)
        _add(out, f"cache.measured.{name}", observed.num_requests)
        _add(out, f"cache.copies.{name}", totals.get("repro_node_copies_total", 0.0))
        _add(
            out, f"cache.evictions.{name}",
            totals.get("repro_node_evictions_total", 0.0),
        )
        _add(out, "obs.observed_s", obs_s)
        _add(out, "obs.live_s", live_s[name])


def finish_layers(out: dict[str, float]) -> dict[str, float]:
    """Turn the summed helper counts in ``out`` into ratios."""
    for name in ARCH_NAMES:
        served = out.pop(f"cache.served.{name}", None)
        total = out.pop(f"cache.measured.{name}", None)
        if served is not None and total:
            out[f"cache.hit_ratio.{name}"] = served / total
    observed = out.pop("obs.observed_s", 0.0)
    live = out.pop("obs.live_s", 0.0)
    if live:
        out["obs.overhead_ratio"] = observed / live
    out["trace.closure_ratio"] = out.pop("trace.layers_s") / out.pop("trace.entry_s")
    return out


# ----------------------------------------------------------------------
# Streamed workloads: stream-edge and churn-sized
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamedWorkload:
    """``run_streamed_experiment(config, architectures, engine="fast")``.

    ``entry`` makes that call; ``setup`` and ``simulate`` make its public
    calls one by one, so set-up and each run can be timed apart."""

    name: str
    why: str
    num_objects: int
    num_requests: int
    alpha: float
    architectures: tuple[Architecture, ...]
    heterogeneous_sizes: bool = False
    topology: str = "abilene"
    tree_depth: int = 5
    arity: int = 2
    budget_fraction: float = 0.05
    policy: str = "lru"
    warmup_fraction: float = 0.2
    chunk_size: int = DEFAULT_CHUNK_SIZE
    workers: int = 1

    def scaled(self, scale: float) -> "StreamedWorkload":
        return replace(self, num_requests=max(1000, int(self.num_requests * scale)))

    def config(self, seed: int, num_requests: int | None = None) -> ExperimentConfig:
        return ExperimentConfig(
            topology=self.topology,
            arity=self.arity,
            tree_depth=self.tree_depth,
            num_objects=self.num_objects,
            num_requests=num_requests or self.num_requests,
            alpha=self.alpha,
            budget_fraction=self.budget_fraction,
            budget_split="proportional",
            origin_mode="proportional",
            policy=self.policy,
            heterogeneous_sizes=self.heterogeneous_sizes,
            warmup_fraction=self.warmup_fraction,
            seed=seed,
        )

    def params(self, seed: int) -> dict[str, Any]:
        return {
            "entry": "run_streamed_experiment (engine=fast)",
            "topology": self.topology,
            "tree": f"arity {self.arity}, depth {self.tree_depth}",
            "requests": self.num_requests,
            "catalog": self.num_objects,
            "alpha": self.alpha,
            "sizes": "lognormal" if self.heterogeneous_sizes else "unit",
            "policy": self.policy,
            "budget_fraction": self.budget_fraction,
            "warmup_fraction": self.warmup_fraction,
            "architectures": ["NO-CACHE"] + [a.name for a in self.architectures],
            "seed": seed,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
        }

    def _world(self, config: ExperimentConfig, tracer) -> World:
        return build_world(
            config, tracer,
            lambda cfg, net: build_streaming_workload(
                cfg, net, chunk_size=self.chunk_size
            ),
        )

    def setup(self, seed: int, tracer) -> World:
        return self._world(self.config(seed), tracer)

    def entry(self, seed: int) -> ExperimentResult:
        return run_streamed_experiment(
            self.config(seed), self.architectures, engine="fast",
            chunk_size=self.chunk_size,
        )

    def check(self, seed: int, experiment: ExperimentResult, gate: Gate) -> int:
        config = self.config(seed)
        runs = all_runs(experiment)
        check_runs(gate, "", measured(config), runs)
        return config.num_requests * len(runs)

    def simulate(self, world: World, tracer, gate: Gate) -> Rep:
        start = time.perf_counter()
        results, times = run_live(world, self.architectures, tracer)
        sim_s = time.perf_counter() - start
        check_runs(gate, "", measured(world.config), results)
        requests = world.config.num_requests * len(results)
        return Rep(sim_s, requests, world, results, times)

    def request_digest(self, seed: int) -> str:
        return column_digest([self.setup(seed, NullTracer())])

    def parity(self, seed: int, gate: Gate) -> None:
        world = self._world(self.config(seed, PARITY_REQUESTS), NullTracer())
        check_parity(gate, "", world, self.architectures)

    def layers(self, rep: Rep, tracer, gate: Gate) -> dict[str, float]:
        world: World = rep.state
        out: dict[str, float] = {}
        decompose(
            world, self.architectures, rep.results, rep.run_s,
            tracer, gate, out,
        )
        account_entry(
            world, rep.run_s,
            lambda: self.entry(world.config.seed),
            tracer, out,
        )
        return finish_layers(out)


# ----------------------------------------------------------------------
# fig6-sweep: the Figure 6 grid through run_sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig6Sweep:
    """8 topologies x (NO-CACHE + the 5 baseline architectures), trace-driven.

    Configs are leaf-scaled: each topology gets ``per_leaf * scale``
    requests per access-tree leaf and one catalog object per
    ``requests_per_object`` requests, with Asia-fit trace objects from
    :func:`repro.workload.region_object_stream`.
    """

    name: str
    why: str
    scale: float
    workers: int
    per_leaf: int = 400
    requests_per_object: int = 200
    tree_depth: int = 5
    arity: int = 2
    warmup_fraction: float = 0.2
    architectures: tuple[Architecture, ...] = BASELINE_ARCHITECTURES

    def scaled(self, scale: float) -> "Fig6Sweep":
        return replace(self, scale=self.scale * scale)

    def config(self, topology_name: str, seed: int, scale: float) -> ExperimentConfig:
        leaves = topology(topology_name).num_pops * self.arity**self.tree_depth
        num_requests = max(1000, int(leaves * self.per_leaf * scale))
        return ExperimentConfig(
            topology=topology_name,
            arity=self.arity,
            tree_depth=self.tree_depth,
            num_requests=num_requests,
            num_objects=max(100, int(num_requests / self.requests_per_object)),
            budget_split="proportional",
            origin_mode="proportional",
            warmup_fraction=self.warmup_fraction,
            seed=seed,
        )

    def params(self, seed: int) -> dict[str, Any]:
        configs = [self.config(name, seed, self.scale) for name in TOPOLOGY_NAMES]
        return {
            "entry": "run_sweep (engine=fast) over run_experiment points",
            "topologies": list(TOPOLOGY_NAMES),
            "tree": f"arity {self.arity}, depth {self.tree_depth}",
            "scale": self.scale,
            "requests": {c.topology: c.num_requests for c in configs},
            "catalog": {c.topology: c.num_objects for c in configs},
            "alpha": "asia trace (region_object_stream)",
            "sizes": "unit",
            "policy": configs[0].policy,
            "budget_fraction": configs[0].budget_fraction,
            "warmup_fraction": self.warmup_fraction,
            "architectures": ["NO-CACHE"] + [a.name for a in self.architectures],
            "seed": seed,
            "chunk_size": "materialized (one chunk)",
            "workers": self.workers,
        }

    def points(self, seed: int, scale: float, tracer) -> list[SweepPoint]:
        points = []
        for name in TOPOLOGY_NAMES:
            config = self.config(name, seed, scale)
            (objects, _), _ = _span(
                tracer, "workload.trace_objects", region_object_stream,
                "asia", np.random.default_rng(config.seed + 1),
                scale=config.num_requests / ASIA_REQUESTS,
                num_objects=config.num_objects,
            )
            points.append(
                SweepPoint(
                    key=name,
                    config=config,
                    architectures=self.architectures,
                    objects=objects,
                )
            )
        return points

    def setup(self, seed: int, tracer) -> list[SweepPoint]:
        return self.points(seed, self.scale, tracer)

    def _sweep(self, points: list[SweepPoint]) -> SweepOutcome:
        return run_sweep(points, workers=self.workers, engine="fast")

    def entry(self, seed: int) -> tuple[list[SweepPoint], SweepOutcome]:
        points = self.setup(seed, NullTracer())
        return points, self._sweep(points)

    def check(
        self, seed: int, swept: tuple[list[SweepPoint], SweepOutcome], gate: Gate
    ) -> int:
        points, outcome = swept
        return self._check_outcome(points, outcome, gate)[0]

    def _check_outcome(
        self, points: list[SweepPoint], outcome: SweepOutcome, gate: Gate
    ) -> tuple[int, dict[str, SimulationResult]]:
        """Check every point's runs; a failed point fails each of its runs."""
        runs = 1 + len(self.architectures)
        requests = 0
        results: dict[str, SimulationResult] = {}
        for point in points:
            key = point.key
            if key not in outcome.results:
                errors = outcome.failures.get(key, ["missing"])
                gate.fail(key, f"sweep point failed: {errors[-1]}", runs)
                continue
            experiment = all_runs(outcome.results[key])
            check_runs(
                gate, f"{key}/", measured(point.config, len(point.objects)),
                experiment,
            )
            requests += len(point.objects) * runs
            results.update((f"{key}/{name}", r) for name, r in experiment.items())
        return requests, results

    def simulate(self, points: list[SweepPoint], tracer, gate: Gate) -> Rep:
        outcome, sim_s = _span(tracer, "sweep.run", self._sweep, points)
        requests, results = self._check_outcome(points, outcome, gate)
        return Rep(sim_s, requests, points, results, outcome=outcome)

    def _world(self, point: SweepPoint, tracer) -> World:
        return build_world(
            point.config, tracer,
            lambda cfg, net: build_workload(cfg, net, objects=point.objects),
        )

    def request_digest(self, seed: int) -> str:
        return column_digest(
            self._world(point, NullTracer())
            for point in self.setup(seed, NullTracer())
        )

    def parity(self, seed: int, gate: Gate) -> None:
        for point in self.points(seed, PARITY_FIG6_SCALE, NullTracer()):
            world = self._world(point, NullTracer())
            check_parity(gate, f"{point.key}/", world, self.architectures)

    def layers(self, rep: Rep, tracer, gate: Gate) -> dict[str, float]:
        """Each point replayed serially, every public call timed.

        The serial replay is also ``sweep.busy_s``: the time the points'
        ``run_experiment`` calls take one after another.
        """
        points: list[SweepPoint] = rep.state
        out: dict[str, float] = {}
        busy = 0.0
        for point in points:
            with tracer.span(f"bench.point.{point.key}"):
                world = self._world(point, tracer)
                live, live_s = run_live(world, self.architectures, tracer)
                for name, result in live.items():
                    key = f"{point.key}/{name}"
                    swept = rep.results.get(key)
                    diff = ["missing"] if swept is None else field_differences(
                        result, swept
                    )
                    gate.record(
                        f"serial.{key}",
                        [f"serial replay differs on {diff}"] if diff else [],
                    )
                busy += world.topology_s + world.build_s + sum(live_s.values())
                decompose(
                    world, self.architectures, live, live_s, tracer, gate, out
                )
                account_entry(
                    world, live_s,
                    lambda: run_experiment(
                        point.config, self.architectures,
                        objects=point.objects, engine="fast",
                    ),
                    tracer, out,
                )
        outcome = rep.outcome
        out["sweep.points"] = len(points)
        out["sweep.attempts"] = sum(outcome.attempts.values())
        out["sweep.failed"] = len(outcome.failures)
        out["sweep.busy_s"] = busy
        out["sweep.idle_s"] = self.workers * rep.sim_s - busy
        out["sweep.point_bytes"] = sum(len(pickle.dumps(p)) for p in points)
        return finish_layers(out)


WORKLOADS = {
    "stream-edge": StreamedWorkload(
        name="stream-edge",
        why="EDGE on the streamed engine, Abilene depth-5, 50k objects, Zipf "
        "1.04: workload generation and accounting dominate",
        num_objects=50_000,
        num_requests=500_000,
        alpha=1.04,
        architectures=(EDGE,),
    ),
    "fig6-sweep": Fig6Sweep(
        name="fig6-sweep",
        why="Figure 6 grid (8 topologies x NO-CACHE + 5 architectures) through "
        "run_sweep's pool: orchestration, topology builds, NR walk, coop",
        scale=0.05,
        workers=2,
    ),
    "churn-sized": StreamedWorkload(
        name="churn-sized",
        why="ICN-SP over a 200k catalog, Zipf 0.7, lognormal sizes, 0.1% "
        "budget: insertion and multi-object eviction at every tree level",
        num_objects=200_000,
        num_requests=150_000,
        alpha=0.7,
        architectures=(ICN_SP,),
        heterogeneous_sizes=True,
        budget_fraction=0.001,
    ),
}
