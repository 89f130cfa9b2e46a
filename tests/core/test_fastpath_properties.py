"""Property tests pinning the fast engine to the reference engine.

The differential matrix (``test_fastpath_equivalence.py``) sweeps fixed
corners; here Hypothesis draws whole random worlds — PoP graph, access
tree, catalog with heterogeneous sizes, failed nodes, cooperation,
capacity limits, insertion policy and a warmup boundary that lands
mid-chunk — and checks that the fast engine and ``fast_no_cache``
equal the reference engine field for field.  With an observer attached
the two engines must also produce the same registry snapshot and
byte-identical trace JSONL: the fast engine emits trace records from
each block's serving column after its decide loop, so their order is
checked here too.

The fast engine decides and accounts in blocks of
:data:`repro.core.fastpath.ACCOUNT_BLOCK` requests;
``test_block_and_chunk_size_invariance`` shows that neither that size
nor the workload's chunk size changes a single output.

Shortest-path, copy-everywhere runs take the per-node filter cascade
instead of the general decide loop.  ``test_cascade_equals_decide_loop``
draws worlds from exactly that class (any policy, preload, frozen
caches, filter windows of 1, 7 and n requests) and pins the cascade,
the general loop and the reference engine to one another; the PoP
graphs can tie shortest paths so that a response core path is not the
reversed request path (``test_response_path_differs_from_request_path``
is the hand-built case).

Every run on one network shares its route table
(:meth:`repro.topology.Network.route_table`).
``test_route_table_equals_network_oracles`` pins each table entry to
``Network.path_cost`` and ``Network.path_links`` on trees up to depth 5
under every latency model; ``test_insert_targets_equal_response_path``
pins the fast engine's structural insert targets to the filtered
response path; ``test_warm_route_table_changes_nothing`` shows that a
table warmed by earlier runs, in either order, changes no result.
"""

from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CapacityModel,
    Simulator,
    architecture,
    simulate_no_cache,
)
from repro.core import EDGE, ICN_SP, LATENCY_MODELS, fastpath, hop_costs
from repro.core.fastpath import FastEngine
from repro.obs import MetricsRegistry, Observer, TraceSampler, TraceWriter
from repro.topology import AccessTree, HopCosts, Network, Pop, PopTopology
from repro.workload import StreamingWorkload, Workload

from ..conftest import assert_results_identical
from .test_fastpath_equivalence import ALL_ARCHITECTURES

pytestmark = pytest.mark.fastpath

ARCHITECTURES = (
    "ICN-SP", "ICN-NR", "ICN-NR-Global", "EDGE", "EDGE-Coop", "EDGE-Norm",
    "2-Levels-Coop", "EDGE-Inf", "ICN-NR-Inf",
)


@st.composite
def networks(draw, max_depth=2):
    """A random connected PoP graph with access trees of depth 1..max_depth.

    The graph is a chain through a random PoP order plus a few extra
    edges, so shortest paths can tie in ways the sorted-neighbour BFS
    breaks differently from each end (a 6-PoP ring suffices).
    """
    num_pops = draw(st.integers(1, 6))
    order = draw(st.permutations(range(num_pops)))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, num_pops - 1), st.integers(0, num_pops - 1)),
            max_size=3,
        )
    )
    chain = zip(order, order[1:])  # connected
    edges = {(min(a, b), max(a, b)) for a, b in (*chain, *extra) if a != b}
    topology = PopTopology(
        name="random",
        pops=tuple(
            Pop(i, f"p{i}", draw(st.integers(1, 9))) for i in range(num_pops)
        ),
        edges=tuple(sorted(edges)),
    )
    return Network(
        topology,
        AccessTree(draw(st.integers(2, 3)), draw(st.integers(1, max_depth))),
    )


@st.composite
def streams(draw, network):
    """A random workload over ``network``, delivered in random chunks."""
    num_pops = network.num_pops
    n = draw(st.integers(1, 120))
    num_objects = draw(st.integers(1, 8))  # small: many repeats, many hits
    leaves = network.tree.leaves
    workload = Workload(
        num_objects=num_objects,
        pops=np.array(
            draw(st.lists(st.integers(0, num_pops - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        leaves=np.array(
            draw(
                st.lists(
                    st.integers(leaves.start, leaves.stop - 1),
                    min_size=n, max_size=n,
                )
            ),
            dtype=np.int64,
        ),
        objects=np.array(
            draw(
                st.lists(
                    st.integers(0, num_objects - 1), min_size=n, max_size=n
                )
            ),
            dtype=np.int64,
        ),
        # Non-integer sizes make every float sum order-sensitive.
        sizes=np.array(
            draw(
                st.lists(
                    st.floats(0.1, 3.0), min_size=num_objects,
                    max_size=num_objects,
                )
            )
        ),
        origins=np.array(
            draw(
                st.lists(
                    st.integers(0, num_pops - 1), min_size=num_objects,
                    max_size=num_objects,
                )
            ),
            dtype=np.int64,
        ),
    )
    chunk_size = draw(st.integers(1, n))
    return StreamingWorkload(
        num_objects=num_objects,
        sizes=workload.sizes,
        origins=workload.origins,
        chunk_factory=lambda: workload.chunks(chunk_size),
        num_requests=n,
    )


@st.composite
def worlds(draw):
    """A random network, workload delivered in chunks, and run knobs."""
    network = draw(networks())
    streamed = draw(streams(network))
    arch = architecture(draw(st.sampled_from(ARCHITECTURES)))
    insertion = draw(st.sampled_from(("everywhere", "lcd", "probabilistic")))
    if insertion != "everywhere":
        arch = replace(arch, name=f"{arch.name}-{insertion}", insertion=insertion)
    capacity = draw(
        st.none()
        | st.builds(CapacityModel, st.integers(1, 2), st.integers(4, 60))
    )
    knobs = dict(
        policy=draw(st.sampled_from(("lru", "lfu", "fifo"))),
        capacity=capacity,
        warmup_fraction=draw(st.sampled_from((0.0, 0.2, 0.5, 0.9))),
        failed_nodes=frozenset(
            draw(
                st.lists(
                    st.integers(0, network.num_nodes - 1), max_size=3
                )
            )
        ),
    )
    budgets = draw(
        st.lists(
            st.floats(0.0, 5.0),
            min_size=network.num_nodes, max_size=network.num_nodes,
        )
    )
    return network, streamed, arch, budgets, knobs


def _observed(run, rate, seed):
    """Run with a registry + tracer attached; return result and exports."""
    buffer = io.StringIO()
    tracer = TraceWriter(buffer, TraceSampler(rate=rate, seed=seed))
    registry = MetricsRegistry()
    result = run(Observer(registry, tracer=tracer))
    return result, registry.to_json(), buffer.getvalue()


@settings(max_examples=120, deadline=None)
@given(
    world=worlds(),
    rate=st.sampled_from((1.0, 0.4)),
    seed=st.integers(0, 3),
)
def test_fast_engine_equals_reference(world, rate, seed):
    network, workload, arch, budgets, knobs = world

    def cached(engine):
        return lambda observer=None: Simulator(
            network, arch, workload, budgets, engine=engine,
            observer=observer, **knobs,
        ).run()

    def baseline(engine):
        return lambda observer=None: simulate_no_cache(
            network, workload, warmup_fraction=knobs["warmup_fraction"],
            engine=engine, observer=observer,
        )

    for make in (cached, baseline):
        ref, fast = make("reference"), make("fast")
        assert_results_identical(ref(), fast())
        ref_result, ref_registry, ref_trace = _observed(ref, rate, seed)
        fast_result, fast_registry, fast_trace = _observed(fast, rate, seed)
        assert_results_identical(ref_result, fast_result)
        assert fast_registry == ref_registry
        assert fast_trace == ref_trace


def test_capacity_rejection_skips_the_siblings():
    """A full on-path cache holding the object bars its siblings.

    The reference engine only asks the siblings when the on-path cache
    does not hold the object; held but over capacity, the walk goes on
    upward (here: to the origin).  The fast engine's flat walk must skip
    those siblings too.
    """
    network = Network(
        PopTopology("pair", (Pop(0, "a", 1), Pop(1, "b", 1)), ((0, 1),)),
        AccessTree(2, 1),
    )
    # Leaves 1 and 2 of PoP 0 both cache object 0 (origin PoP 1); then
    # leaf 1 is asked twice within one capacity window of one serve.
    workload = Workload(
        num_objects=1,
        pops=np.zeros(4, dtype=np.int64),
        leaves=np.array([1, 2, 1, 1]),
        objects=np.zeros(4, dtype=np.int64),
        sizes=np.ones(1),
        origins=np.array([1]),
    )
    results = [
        Simulator(
            network, architecture("EDGE-Coop"), workload,
            [5.0] * network.num_nodes,
            capacity=CapacityModel(per_window=1, window=100), engine=engine,
        ).run()
        for engine in ("reference", "fast")
    ]
    assert results[0].coop_served == 1
    assert_results_identical(*results)


@pytest.mark.parametrize("block", [1, 3, 1 << 12])
def test_block_and_chunk_size_invariance(
    small_network, random_workload, monkeypatch, block
):
    """Neither the accounting block nor the chunk size changes any output.

    Chunk sizes 1, 7 and n with a 35% warmup put the warmup boundary
    mid-chunk (and mid-block) for every chunk size except n; results,
    registry snapshots and traces must all equal the reference run's.
    """
    monkeypatch.setattr(fastpath, "ACCOUNT_BLOCK", block)
    materialized = random_workload(
        small_network, 5, num_requests=300, num_objects=40,
        heterogeneous_sizes=True,
    )
    n = materialized.num_requests
    budgets = [2.5] * small_network.num_nodes
    knobs = dict(warmup_fraction=0.35, failed_nodes={small_network.tree_size})
    arch = architecture("EDGE-Coop")

    def run(workload, engine, no_cache):
        def go(observer):
            if no_cache:
                return simulate_no_cache(
                    small_network, workload, warmup_fraction=0.35,
                    engine=engine, observer=observer,
                )
            return Simulator(
                small_network, arch, workload, budgets, engine=engine,
                observer=observer, **knobs,
            ).run()
        return _observed(go, 0.5, 1)

    for no_cache in (False, True):
        ref_result, ref_registry, ref_trace = run(
            materialized, "reference", no_cache
        )
        for chunk_size in (1, 7, n):
            streamed = StreamingWorkload(
                num_objects=materialized.num_objects,
                sizes=materialized.sizes,
                origins=materialized.origins,
                chunk_factory=lambda c=chunk_size: materialized.chunks(c),
                num_requests=n,
            )
            result, registry, trace = run(streamed, "fast", no_cache)
            assert_results_identical(ref_result, result)
            assert registry == ref_registry
            assert trace == ref_trace


#: Shortest-path, copy-everywhere designs without cooperation: the
#: per-node filter cascade's class (infinite caches included).
CASCADE_ARCHITECTURES = ("ICN-SP", "EDGE", "EDGE-Norm", "2-Levels", "EDGE-Inf")


@st.composite
def cascade_worlds(draw):
    """A random world the per-node filter cascade must decide exactly."""
    network = draw(networks())
    streamed = draw(streams(network))
    arch = architecture(draw(st.sampled_from(CASCADE_ARCHITECTURES)))
    cache_nodes = [
        pop * network.tree_size + local
        for pop in range(network.num_pops)
        for local in arch.cache_locals(network.tree)
    ]
    preload = draw(
        st.dictionaries(
            st.sampled_from(cache_nodes),
            st.lists(st.integers(0, streamed.num_objects - 1), max_size=3),
            max_size=4,
        )
    )
    knobs = dict(
        policy=draw(st.sampled_from(("lru", "lfu", "fifo"))),
        warmup_fraction=draw(st.sampled_from((0.0, 0.2, 0.5, 0.9))),
        preload=preload or None,
        frozen_caches=draw(st.booleans()),
    )
    budgets = draw(
        st.lists(
            st.floats(0.0, 5.0),
            min_size=network.num_nodes, max_size=network.num_nodes,
        )
    )
    return network, streamed, arch, budgets, knobs


@settings(max_examples=120, deadline=None)
@given(
    world=cascade_worlds(),
    window=st.sampled_from((1, 7, None)),
    rate=st.sampled_from((1.0, 0.4)),
    seed=st.integers(0, 3),
)
def test_cascade_equals_decide_loop(world, window, rate, seed):
    """Cascade, general decide loop and reference agree field for field.

    ``window=None`` puts the whole stream in one filter window; the
    registry snapshots and trace JSONL must match byte for byte too.
    """
    network, workload, arch, budgets, knobs = world

    def simulator(engine, observer):
        return Simulator(
            network, arch, workload, budgets, engine=engine,
            observer=observer, **knobs,
        )

    def reference(observer=None):
        return simulator("reference", observer).run()

    def cascade(observer=None):
        sim = simulator("fast", observer)
        assert fastpath._cascade_eligible(sim)
        return FastEngine(sim).run()

    def decide_loop(observer=None):
        return FastEngine(simulator("fast", observer))._decide_loop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastpath, "FILTER_WINDOW", window or workload.num_requests)
        expected = _observed(reference, rate, seed)
        for run in (cascade, decide_loop):
            assert_results_identical(reference(), run())
            result, registry, trace = _observed(run, rate, seed)
            assert_results_identical(expected[0], result)
            assert registry == expected[1]
            assert trace == expected[2]


def test_response_path_differs_from_request_path():
    """Copies go to the response path's roots, not the request path's.

    On a 6-PoP ring the sorted-neighbour BFS breaks the tie between the
    two 3-hop routes differently from each end: PoP 0 reaches PoP 5
    through roots 1 and 4, but PoP 5 answers through roots 3 and 2.
    (Every ring of four or five PoPs breaks its ties symmetrically.)
    So PoP 0's origin fetch of object 0 leaves copies at roots 3 and
    2, and PoP 2's later request hits its own root.  Before that, PoP
    3's own fetch put object 0 at root 3, which PoP 0's request never
    asks: its response-path copy there is a refresh plus a copy.
    """
    topology = PopTopology(
        "ring6",
        tuple(Pop(i, f"p{i}", 1) for i in range(6)),
        ((0, 1), (0, 2), (1, 4), (2, 3), (3, 5), (4, 5)),
    )
    network = Network(topology, AccessTree(2, 1))
    assert network.core_path(0, 5) == (0, 1, 4, 5)
    assert network.core_path(5, 0) == (5, 3, 2, 0)
    workload = Workload(
        num_objects=1,
        pops=np.array([3, 0, 2]),
        leaves=np.array([1, 1, 1]),
        objects=np.zeros(3, dtype=np.int64),
        sizes=np.ones(1),
        origins=np.array([5]),
    )
    budgets = [1.0] * network.num_nodes
    runs = {
        engine: _observed(
            lambda observer, engine=engine: Simulator(
                network, ICN_SP, workload, budgets, engine=engine,
                observer=observer,
            ).run(),
            1.0, 0,
        )
        for engine in ("reference", "fast")
    }
    result, registry, trace = runs["fast"]
    # Two origin fetches (2 + 4 hops), then one hit at PoP 2's own root
    # (1 hop); copies along the request path would leave it 2 hops off.
    assert (result.cache_served, result.total_latency) == (1, 7.0)
    assert_results_identical(runs["reference"][0], result)
    assert registry == runs["reference"][1]
    assert trace == runs["reference"][2]


def test_dispatch_pins_both_paths(small_network, random_workload, monkeypatch):
    """Which configurations take the cascade and which the decide loop.

    The differential matrix (``test_fastpath_equivalence.py``) runs
    ``FastEngine.run``; this pins that its architectures and knobs
    reach both implementations, so it keeps certifying each.
    """
    taken = []
    for name in ("_cascade", "_decide_loop"):
        method = getattr(FastEngine, name)
        monkeypatch.setattr(
            FastEngine, name,
            lambda self, name=name, method=method: taken.append(name) or method(self),
        )
    workload = random_workload(small_network, 3, num_requests=60, num_objects=10)
    budgets = [2.0] * small_network.num_nodes

    def path(arch, **knobs):
        taken.clear()
        Simulator(
            small_network, arch, workload, budgets, engine="fast", **knobs
        ).run()
        (name,) = taken
        return name

    assert {a.name for a in ALL_ARCHITECTURES if path(a) == "_cascade"} == {
        "ICN-SP", "EDGE", "EDGE-Norm", "Baseline", "2-Levels", "Norm", "EDGE-Inf",
    }
    assert path(EDGE, policy="lfu") == "_cascade"
    assert path(
        ICN_SP, preload={0: [1]}, frozen_caches=True, warmup_fraction=0.5
    ) == "_cascade"
    for knobs in (
        dict(failed_nodes={0}),
        dict(capacity=CapacityModel(per_window=4, window=50)),
    ):
        assert path(ICN_SP, **knobs) == "_decide_loop"
    for insertion in ("lcd", "probabilistic"):
        variant = replace(ICN_SP, name=f"ICN-SP-{insertion}", insertion=insertion)
        assert path(variant) == "_decide_loop"


@st.composite
def route_worlds(draw):
    """A network with trees up to depth 5, a cost model, and node pairs.

    The cost model is a named latency model with a non-integer core
    factor, or arbitrary floats per tree node (so that any change in
    the order of float additions shows).  Besides random pairs, the
    pairs include same-PoP non-ancestor servers (a leaf answering
    another leaf) and, with two or more PoPs, non-root servers in
    another PoP.
    """
    network = draw(networks(max_depth=5))
    model = draw(st.sampled_from((*LATENCY_MODELS, "random")))
    factor = draw(st.integers(1, 9)) + draw(st.sampled_from((0.25, 0.37, 0.5)))
    if model == "random":
        floats = st.floats(0.0, 10.0, allow_subnormal=False)
        costs = HopCosts(
            tuple(draw(st.lists(floats, min_size=network.tree_size, max_size=network.tree_size))),
            draw(floats),
        )
    else:
        costs = hop_costs(network, model, factor)
    nodes = st.integers(0, network.num_nodes - 1)
    pairs = draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=60))
    ts = network.tree_size
    pops = st.integers(0, network.num_pops - 1)
    leaves = st.integers(network.tree.leaves.start, network.tree.leaves.stop - 1)
    for _ in range(draw(st.integers(1, 10))):
        pop, other = draw(pops), draw(pops)
        pairs.append((pop * ts + draw(leaves), pop * ts + draw(leaves)))
        pairs.append((other * ts + draw(st.integers(1, ts - 1)), pop * ts + draw(leaves)))
    return network, costs, pairs


@settings(max_examples=100, deadline=None)
@given(world=route_worlds(), split=st.integers(0, 60))
def test_route_table_equals_network_oracles(world, split):
    """Table cost is ``path_cost`` bit for bit; table links are ``path_links``.

    The pairs arrive in two batches so the second mixes known and new
    keys (and may repeat keys within itself).
    """
    network, costs, pairs = world
    table = network.route_table(costs)
    assert network.route_table(costs) is table
    keys = np.array([a * network.num_nodes + b for a, b in pairs], dtype=np.int64)
    table.ids(keys[:split])
    ids = table.ids(keys)
    assert len(table) == len(set(keys.tolist()))
    for (a, b), pid in zip(pairs, ids.tolist()):
        cost = np.float64(network.path_cost(a, b, costs))
        assert table.cost[pid].tobytes() == cost.tobytes()
        links = table.links[table.bounds[pid]:table.bounds[pid + 1]]
        assert links.tolist() == network.path_links(a, b)


@settings(max_examples=100, deadline=None)
@given(
    world=route_worlds(),
    name=st.sampled_from(ARCHITECTURES),
    frozen=st.booleans(),
    data=st.data(),
)
def test_insert_targets_equal_response_path(world, name, frozen, data):
    """Structural insert targets equal the filtered ``path_nodes[1:]``.

    For each pair: the response path's cache-enabled, non-failed nodes
    below the server, in response order; nothing with frozen caches.
    """
    network, _, pairs = world
    arch = architecture(name)
    failed = frozenset(data.draw(st.lists(st.integers(0, network.num_nodes - 1), max_size=4)))
    workload = Workload(
        num_objects=1,
        pops=np.zeros(1, dtype=np.int64),
        leaves=np.array([network.tree.leaves.start]),
        objects=np.zeros(1, dtype=np.int64),
        sizes=np.ones(1),
        origins=np.zeros(1, dtype=np.int64),
    )
    sim = Simulator(
        network, arch, workload, [1.0] * network.num_nodes, engine="fast",
        failed_nodes=failed, frozen_caches=frozen,
    )
    engine = FastEngine(sim)
    cache_locals = set(arch.cache_locals(network.tree))
    for serving, leaf in pairs:
        expected = () if frozen else tuple(
            node for node in network.path_nodes(serving, leaf)[1:]
            if node % network.tree_size in cache_locals and node not in failed
        )
        assert engine._insert_targets(serving, leaf) == expected


@settings(max_examples=60, deadline=None)
@given(
    world=worlds(),
    second=st.sampled_from(ARCHITECTURES),
    model=st.sampled_from(LATENCY_MODELS),
)
def test_warm_route_table_changes_nothing(world, second, model):
    """Runs sharing one network's table, in either order, equal runs on
    fresh networks field for field (NO-CACHE plus two architectures)."""
    network, workload, arch, budgets, knobs = world
    archs = (None, arch, architecture(second))

    def run(net, run_arch):
        costs = hop_costs(net, model, 2.5)
        if run_arch is None:
            return simulate_no_cache(
                net, workload, costs, warmup_fraction=knobs["warmup_fraction"],
                engine="fast",
            )
        return Simulator(
            net, run_arch, workload, budgets, hop_costs=costs, engine="fast",
            **knobs,
        ).run()

    def fresh():
        return Network(network.pop_topology, network.tree)

    expected = [run(fresh(), run_arch) for run_arch in archs]
    for order in (range(3), range(2, -1, -1)):
        shared = fresh()
        results = {index: run(shared, archs[index]) for index in order}
        for index, result in enumerate(expected):
            assert_results_identical(results[index], result)
