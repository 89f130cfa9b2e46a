"""Tests for the PoP-level topology container."""

import pytest

from repro.topology import Pop, PopTopology


def make(pops, edges, name="t"):
    return PopTopology(
        name=name,
        pops=tuple(Pop(i, f"p{i}", population) for i, population in enumerate(pops)),
        edges=tuple(edges),
    )


class TestValidation:
    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            PopTopology(name="x", pops=(), edges=())

    def test_nonpositive_population_rejected(self):
        with pytest.raises(ValueError):
            Pop(0, "x", 0)

    def test_misindexed_pop_rejected(self):
        with pytest.raises(ValueError):
            PopTopology(name="x", pops=(Pop(1, "a", 10),), edges=())

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make([10, 10], [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            make([10, 10], [(0, 1), (1, 0)])

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            make([10, 10], [(0, 2)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            make([10, 10, 10, 10], [(0, 1), (2, 3)])

    def test_single_pop_is_fine(self):
        topo = make([10], [])
        assert topo.num_pops == 1


class TestAccessors:
    def test_neighbors_are_sorted_and_symmetric(self, small_topology):
        assert small_topology.neighbors(0) == (1, 2)
        assert small_topology.neighbors(3) == (1, 2)
        for a, b in small_topology.edges:
            assert b in small_topology.neighbors(a)
            assert a in small_topology.neighbors(b)

    def test_population_weights_sum_to_one(self, small_topology):
        weights = small_topology.population_weights()
        assert sum(weights) == pytest.approx(1.0)
        assert weights[0] == pytest.approx(0.5)

    def test_totals(self, small_topology):
        assert small_topology.total_population == 8_000_000
        assert small_topology.num_edges == 4
        assert small_topology.populations == (
            4_000_000, 2_000_000, 1_000_000, 1_000_000,
        )
