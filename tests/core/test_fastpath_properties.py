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
from repro.core import fastpath
from repro.obs import MetricsRegistry, Observer, TraceSampler, TraceWriter
from repro.topology import AccessTree, Network, Pop, PopTopology
from repro.workload import StreamingWorkload, Workload

from ..conftest import assert_results_identical

ARCHITECTURES = (
    "ICN-SP", "ICN-NR", "ICN-NR-Global", "EDGE", "EDGE-Coop", "EDGE-Norm",
    "2-Levels-Coop", "EDGE-Inf", "ICN-NR-Inf",
)


@st.composite
def worlds(draw):
    """A random network, workload delivered in chunks, and run knobs."""
    num_pops = draw(st.integers(1, 4))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, num_pops - 1), st.integers(0, num_pops - 1)),
            max_size=3,
        )
    )
    edges = {(i, i + 1) for i in range(num_pops - 1)}  # connected chain
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    topology = PopTopology(
        name="random",
        pops=tuple(
            Pop(i, f"p{i}", draw(st.integers(1, 9))) for i in range(num_pops)
        ),
        edges=tuple(sorted(edges)),
    )
    network = Network(
        topology, AccessTree(draw(st.integers(2, 3)), draw(st.integers(1, 2)))
    )

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
    streamed = StreamingWorkload(
        num_objects=num_objects,
        sizes=workload.sizes,
        origins=workload.origins,
        chunk_factory=lambda: workload.chunks(chunk_size),
        num_requests=n,
    )
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
