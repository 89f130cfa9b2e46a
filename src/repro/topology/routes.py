"""Vectorized (serving, leaf) route table of one network under one cost model.

Accounting a request needs its response path's latency and links: the
path from the serving node down to the arrival leaf.  A
:class:`RouteTable` memoizes both per ``serving * num_nodes + leaf``
key and computes each batch of new keys in NumPy from small per-network
tables:

* the depth and the ancestor column (ancestor at every depth) of each
  tree-local node;
* the lowest common ancestor of a same-PoP pair, by comparing the two
  ancestor columns (the depths where they agree form a prefix, so the
  LCA depth is the agreement count minus one) — no ``tree_size**2``
  table;
* the core hop-distance matrix and each PoP pair's core-path links,
  padded to the longest core path.

Each cost is the same float expression, evaluated in the same order, as
:meth:`Network.path_cost`, so it is bit-identical to it; the links are
exactly :meth:`Network.path_links`, stored in CSR form
(``links[bounds[i]:bounds[i + 1]]`` for pair id ``i``).  Obtain a table
through :meth:`Network.route_table`, which keeps one per
:class:`HopCosts` on the network so every run on it shares the table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .network import HopCosts, Network

__all__ = ["RouteTable"]


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` with room for at least ``size`` entries (doubling)."""
    if size <= len(array):
        return array
    grown = np.empty(max(size, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class RouteTable:
    """Memoized response-path cost and links per (serving, leaf) pair.

    ``cost``, ``bounds`` and ``links`` are indexed by the pair ids that
    :meth:`ids` returns; they may carry spare capacity past the last id
    and are replaced (not resized in place) as the table grows, so read
    them after each :meth:`ids` call.
    """

    def __init__(self, network: "Network", costs: "HopCosts") -> None:
        tree = network.tree
        ts = network.tree_size
        self._num_nodes = network.num_nodes
        self._ts = ts
        self._depth = np.array(
            [len(chain) - 1 for chain in network._chain], dtype=np.int64
        )
        #: ``ancestors[local, d]``: ``local``'s ancestor at depth ``d``
        #: (itself at its own depth), -1 at depths deeper than ``local``.
        self._ancestors = np.full((ts, tree.depth + 1), -1, dtype=np.int64)
        for local, chain in enumerate(network._chain):
            self._ancestors[local, : len(chain)] = chain[::-1]
        self._to_root = np.array(costs.tree_to_root, dtype=np.float64)
        self._core_hop = costs.core_hop
        self._core_dist = np.array(network._core_dist, dtype=np.int64)
        num_pops = network.num_pops
        self._core_links = np.full(
            (num_pops, num_pops, max(int(self._core_dist.max()), 1)), -1,
            dtype=np.int64,
        )
        for a, row in enumerate(network._core_path_links):
            for b, links in enumerate(row):
                self._core_links[a, b, : len(links)] = links
        #: Known keys, sorted, and each key's pair id.
        self._keys = np.zeros(0, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.intp)
        self._size = 0
        self.cost = np.zeros(0)
        self.bounds = np.zeros(1, dtype=np.int32)
        self.links = np.zeros(0, dtype=np.int32)

    def __len__(self) -> int:
        return self._size

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """Pair ids for ``serving * num_nodes + leaf`` keys (adds new ones)."""
        # Sorted, distinct needles: far cheaper to search than raw keys.
        uniq, inverse = np.unique(keys, return_inverse=True)
        known = self._keys
        pos = np.searchsorted(known, uniq)
        if len(known):
            missing = known[np.minimum(pos, len(known) - 1)] != uniq
        else:
            missing = np.ones(len(uniq), dtype=bool)
        if missing.any():
            self._add(uniq[missing])
            pos = np.searchsorted(self._keys, uniq)
        return self._ids[pos][inverse]

    def _add(self, new: np.ndarray) -> None:
        """Compute and append the routes of sorted, unknown ``new`` keys."""
        cost, lengths, links = self._routes(*np.divmod(new, self._num_nodes))
        first, last = self._size, self._size + len(new)
        end = int(self.bounds[first])
        self.cost = _grown(self.cost, last)
        self.cost[first:last] = cost
        self.bounds = _grown(self.bounds, last + 1)
        self.bounds[first + 1 : last + 1] = end + np.cumsum(lengths)
        self.links = _grown(self.links, end + len(links))
        self.links[end : end + len(links)] = links
        self._size = last
        at = np.searchsorted(self._keys, new)
        self._keys = np.insert(self._keys, at, new)
        self._ids = np.insert(self._ids, at, np.arange(first, last))

    def _routes(
        self, serving: np.ndarray, leaves: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cost, lengths, flat links)`` of each serving→leaf path.

        Equal to :meth:`Network.path_cost` and :meth:`Network.path_links`
        pair by pair.  A path climbs from the server to the LCA, crosses
        the core (other PoP only), and names the leaf side's links from
        the leaf upward — the links' order in ``path_links``.
        """
        ts = self._ts
        depth, ancestors, to_root = self._depth, self._ancestors, self._to_root
        pop_s, local_s = np.divmod(serving, ts)
        pop_l, local_l = np.divmod(leaves, ts)
        same = pop_s == pop_l
        anc_s = ancestors[local_s]
        agree = (anc_s == ancestors[local_l]) & (anc_s >= 0)
        # Across PoPs both sides climb to their roots (depth 0).
        lca_depth = np.where(same, agree.sum(axis=1) - 1, 0)
        lca = anc_s[np.arange(len(serving)), lca_depth]
        core = self._core_dist[pop_s, pop_l]
        cost = np.where(
            same,
            (to_root[local_s] - to_root[lca]) + (to_root[local_l] - to_root[lca]),
            to_root[local_s] + core * self._core_hop + to_root[local_l],
        )
        up_s = depth[local_s] - lca_depth
        up_l = depth[local_l] - lca_depth
        lengths = up_s + core + up_l
        # Each link's pair and position ``q`` along that pair's path.
        pair = np.repeat(np.arange(len(serving)), lengths)
        q = np.arange(len(pair)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        q_core = q - up_s[pair]  # position past the server's climb
        q_leaf = q_core - core[pair]  # position along the leaf's climb
        server_side = q_core < 0
        leaf_side = q_leaf >= 0
        links = self._core_links[pop_s[pair], pop_l[pair],
                                 np.clip(q_core, 0, self._core_links.shape[2] - 1)]
        side_local = np.where(leaf_side, local_l[pair], local_s[pair])
        side_pop = np.where(leaf_side, pop_l[pair], pop_s[pair])
        steps = np.where(leaf_side, q_leaf, q)  # climbed so far on that side
        tree_links = side_pop * ts + ancestors[
            side_local, np.maximum(depth[side_local] - steps, 0)
        ]
        links = np.where(server_side | leaf_side, tree_links, links)
        return cost, lengths, links.astype(np.int32)
