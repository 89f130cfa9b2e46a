"""PoP-level topology container.

A :class:`PopTopology` is the *core network* of the paper: a connected
graph of points of presence, each annotated with the population of its
metro region.  Request volume and origin-server assignment are both
proportional to these populations (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Pop:
    """A point of presence in the core network."""

    index: int
    name: str
    population: int

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError(f"PoP {self.name!r} must have positive population")


@dataclass(frozen=True)
class PopTopology:
    """An annotated, connected PoP-level graph.

    ``edges`` are undirected pairs of PoP indices.  The topology must be
    connected so that every request can reach its origin.
    """

    name: str
    pops: tuple[Pop, ...]
    edges: tuple[tuple[int, int], ...]
    _adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.pops)
        if n == 0:
            raise ValueError("topology must have at least one PoP")
        for i, pop in enumerate(self.pops):
            if pop.index != i:
                raise ValueError(f"PoP at position {i} has index {pop.index}")
        seen: set[tuple[int, int]] = set()
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references unknown PoP")
            if a == b:
                raise ValueError(f"self-loop on PoP {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(
            self, "_adjacency", tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        )
        if n > 1 and not self._is_connected():
            raise ValueError(f"topology {self.name!r} is not connected")

    @property
    def num_pops(self) -> int:
        """Number of PoPs."""
        return len(self.pops)

    @property
    def num_edges(self) -> int:
        """Number of undirected core links."""
        return len(self.edges)

    @property
    def populations(self) -> tuple[int, ...]:
        """Metro population of each PoP, in index order."""
        return tuple(pop.population for pop in self.pops)

    @property
    def total_population(self) -> int:
        """Sum of all metro populations."""
        return sum(pop.population for pop in self.pops)

    def neighbors(self, pop: int) -> tuple[int, ...]:
        """Indices of PoPs adjacent to ``pop``."""
        return self._adjacency[pop]

    def population_weights(self) -> list[float]:
        """Per-PoP population shares (sums to 1)."""
        total = self.total_population
        return [pop.population / total for pop in self.pops]

    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            node = stack.pop()
            for nbr in self._adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(self.pops)
