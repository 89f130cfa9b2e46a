"""Flat-array fast path for the request-level simulator.

``Simulator(engine="fast")`` routes :meth:`Simulator.run` through this
module.  Its results equal the reference engine's field for field (the
differential suite ``tests/core/test_fastpath_equivalence.py`` pins
this), but each request's work is split in two:

* **decide** — one per-request loop walks precomputed candidate tuples
  (shortest path with sibling cooperation, scoped nearest replica and
  transit roots alike), updates the flat cache state of
  :mod:`repro.cache.fast`, and appends the serving node to a per-block
  column with the cooperation / fallback / origin outcome in its low
  bits;
* **account** — :class:`_Ledger` folds each block's column in NumPy:
  the warmup slice, each (serving, leaf) pair's cost and links (from
  the network's shared :meth:`~repro.topology.Network.route_table`,
  bit-identical to the ``Network`` oracles), latency, per-link
  transfers, origin serves, outcome counts, ``RunRecorder.serves`` and
  the sampled trace records, in request order.  The no-cache baseline
  (:func:`fast_no_cache`) is this step alone: pure NumPy.

Shortest-path, copy-everywhere runs without cooperation, capacity or
failed nodes (:func:`_cascade_eligible`) decide as a **cascade of
per-node filters**: a tree cache sees exactly its subtree's misses and
copies each ("miss => insert"), so per :data:`FILTER_WINDOW` requests
each tree level, bottom-up, filters every node's requests in order and
passes the misses up.  The rest walk the PoP roots in request order;
copies go to the *response* path's roots (BFS ties can make it differ).

Float sums stay bit-identical because every one is an ``np.add.at``
into the *running* accumulators: ``ufunc.at`` is unbuffered and applies
its indices in order, so each link (and the total latency) receives
its additions in request order, exactly like the reference loop's
``+=``.  Never a pairwise ``.sum()``, a ``bincount`` partial sum or a
per-pair ``cost * count``.  The walks, capacity bookkeeping and the
insertion RNG consume state in the reference order, so cache contents
never diverge.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

import numpy as np

from ..cache import InfiniteCache
from ..cache.fast import FastInfinite, FastLRU, make_fast_cache
from ..topology.network import HopCosts, Network
from ..workload.generator import Workload
from ..workload.stream import StreamingWorkload
from .engine import _stream_bounds
from .metrics import SimulationResult
from .routing import ReplicaDirectory
from .seeds import INSERT_SEED

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..obs.sink import Observer, RunRecorder
    from ..obs.trace import TraceWriter
    from .engine import Simulator

__all__ = ["ACCOUNT_BLOCK", "FILTER_WINDOW", "FastEngine", "fast_no_cache"]

#: Requests decided and accounted per block.  Bounds the per-block
#: Python lists and the accounting's link-expansion arrays (a few MB)
#: independently of the workload's chunk size.
ACCOUNT_BLOCK = 1 << 12

#: Requests per window of the per-node filter cascade (bounds its arrays).
FILTER_WINDOW = 1 << 15

# Serving-column encoding: ``serving << _SHIFT | outcome bits``.
_COOP = 1
_FALLBACK = 2
_ORIGIN = 4
_SHIFT = 3

# Negative walk-candidate tags (see ``FastEngine._tree_walk``).
_FAILED = -1
_TRANSIT = -2


def _blocks(
    workload: Workload | StreamingWorkload, size: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(first request index, pops, leaves, objects)`` per block."""
    start = 0
    for chunk in workload.chunks():
        for a in range(0, len(chunk), size):
            b = a + size
            yield start + a, chunk.pops[a:b], chunk.leaves[a:b], chunk.objects[a:b]
        start += len(chunk)


def _cascade_eligible(sim: "Simulator") -> bool:
    """Whether ``sim``'s run decomposes into per-node filters (every knob)."""
    arch = sim.architecture
    return (arch.routing == "sp" and arch.insertion == "everywhere"
            and not arch.cooperation and sim._capacity is None and not sim._failed)


def _lru_filter(cache: FastLRU, objects: memoryview, hits: bytearray, pos: int,
                admit: bool, sizes: list[float]) -> int:
    """One LRU node's filter: a hit refreshes and sets ``hits[pos + k]``, a
    miss inserts as :meth:`FastLRU.insert` unless frozen.  Returns evictions."""
    member, order, capacity, used = cache.member, cache.order, cache.capacity, cache.used
    evictions = 0
    for pos, obj in enumerate(objects, pos):
        if member[obj]:
            del order[obj]
            order[obj] = None
            hits[pos] = 1
        elif admit and sizes[obj] <= capacity:
            size = sizes[obj]
            while used + size > capacity and order:  # see LRUCache.insert
                victim = next(iter(order))
                del order[victim]
                member[victim] = 0
                used -= sizes[victim]
                evictions += 1
            member[obj] = 1
            order[obj] = None
            used += size
    cache.used = used
    return evictions


def _struct_filter(cache: Any, objects: memoryview, hits: bytearray, pos: int,
                   admit: bool, sizes: list[float]) -> int:
    """Any other struct's node filter, through its ``lookup``/``insert``."""
    lookup, insert = cache.lookup, cache.insert
    evictions = 0
    for pos, obj in enumerate(objects, pos):
        if lookup(obj):
            hits[pos] = 1
        elif admit:
            evictions += len(insert(obj))
    return evictions


class _Ledger:
    """One run's accounting over serving columns, one block at a time.

    Opens the run on the observer (when any) and closes it in
    :meth:`result`.  ``account`` must see the blocks in request order:
    the running accumulators then receive every addition in the
    reference engine's order.  ``trace_warmup`` selects whether sampled
    warmup requests are traced (the cached engines trace them; the
    no-cache baseline never looks at warmup requests).
    """

    def __init__(
        self,
        observer: "Observer | None",
        architecture: str,
        routing: str,
        network: Network,
        costs: HopCosts,
        workload: Workload | StreamingWorkload,
        warmup_fraction: float,
        trace_warmup: bool,
    ) -> None:
        num_requests, first_measured = _stream_bounds(workload, warmup_fraction)
        self.rec: "RunRecorder | None" = None
        self._tracer: "TraceWriter | None" = None
        if observer is not None:
            self.rec = observer.start_run(
                architecture, routing, network.num_nodes, num_requests,
                first_measured,
            )
            self._tracer = observer.tracer
        self._observer = observer
        self._architecture = architecture
        self._network = network
        self._sizes = np.asarray(workload.sizes, dtype=np.float64)
        self._first_measured = first_measured
        self._trace_from = 0 if trace_warmup else first_measured
        # The network's shared (serving, leaf) route table.
        self._routes = network.route_table(costs)
        self._zeros = np.zeros(ACCOUNT_BLOCK, dtype=np.intp)
        self.total_latency = np.zeros(1)
        self.link_transfers = np.zeros(network.num_links)
        self.origin_serves = np.zeros(network.num_pops)
        self.measured = 0
        self.cache_served = 0
        self.coop_served = 0
        self.fallback_served = 0

    def account(
        self,
        start: int,
        pops: np.ndarray,
        leaves: np.ndarray,
        objects: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Fold one block (requests ``start .. start + len(codes)``)."""
        n = len(codes)
        lo = min(max(self._first_measured - start, 0), n)
        tracer = self._tracer
        first = lo if tracer is None else min(max(self._trace_from - start, 0), lo)
        if first == n:
            return
        network = self._network
        ts = network.tree_size
        serving = codes[first:] >> _SHIFT
        routes = self._routes
        pid = routes.ids(serving * network.num_nodes + pops[first:] * ts + leaves[first:])
        cost = routes.cost[pid]
        if tracer is not None:
            wanted = [k for k in range(first, n) if tracer.wants(start + k)]
            sel = np.array(wanted, dtype=np.intp)
            for k, pop, leaf, obj, node, outcome, hops, size in zip(
                wanted,
                pops[sel].tolist(),
                leaves[sel].tolist(),
                objects[sel].tolist(),
                serving[sel - first].tolist(),
                codes[sel].tolist(),
                cost[sel - first].tolist(),
                self._sizes[objects[sel]].tolist(),
            ):
                tracer.emit_request(
                    start + k, pop, leaf, obj, node,
                    node // ts if outcome & _ORIGIN else None,
                    hops, size,
                    bool(outcome & _COOP), bool(outcome & _FALLBACK),
                )
        if lo == n:
            return
        # Measured slice: every float sum is an ordered ufunc.at.
        m = n - lo
        serving = serving[lo - first:]
        pid = pid[lo - first:]
        np.add.at(self.total_latency, self._zeros[:m], cost[lo - first:])
        starts = routes.bounds[pid]
        lengths = routes.bounds[pid + 1] - starts
        ends = np.cumsum(lengths, dtype=np.int32)
        if ends[-1]:
            # Each request's response-path links, flattened in order.
            flat = np.repeat(starts - (ends - lengths), lengths)
            flat += np.arange(ends[-1], dtype=np.int32)
            np.add.at(
                self.link_transfers,
                routes.links[flat],
                np.repeat(self._sizes[objects[lo:]], lengths),
            )
        outcomes = codes[lo:]
        origin = (outcomes & _ORIGIN) != 0
        np.add.at(self.origin_serves, serving[origin] // ts, 1.0)
        served_origin = int(np.count_nonzero(origin))
        coop = int(np.count_nonzero(outcomes & _COOP))
        self.measured += m
        self.coop_served += coop
        self.cache_served += m - coop - served_origin
        self.fallback_served += int(np.count_nonzero(outcomes & _FALLBACK))
        if self.rec is not None:
            rec_serves = self.rec.serves
            counts = np.bincount(serving, minlength=network.num_nodes)
            for node in np.flatnonzero(counts).tolist():
                rec_serves[node] += int(counts[node])

    def result(self) -> SimulationResult:
        """The finished run's :class:`SimulationResult` (closes the run)."""
        result = SimulationResult.from_counters(
            architecture=self._architecture,
            num_requests=self.measured,
            total_latency=float(self.total_latency[0]),
            link_transfers=self.link_transfers,
            origin_serves=self.origin_serves,
            cache_served=self.cache_served,
            coop_served=self.coop_served,
            fallback_served=self.fallback_served,
        )
        if self._observer is not None and self.rec is not None:
            self._observer.finish_run(self.rec, result)
        return result


class FastEngine:
    """One-shot fast executor for a configured :class:`Simulator`.

    Built inside :meth:`Simulator.run`; reads the simulator's validated
    configuration and rebuilds cache/directory state in flat form
    (replaying any preload in the reference insertion order), so each
    ``run()`` starts from the constructor state.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        # The observability sink (None by default).  ``self._rec`` is the
        # per-run recorder; it stays None until run() opens a run, so the
        # preload replay below is never counted (matching the reference
        # engine, whose recorder also does not exist during __init__).
        self._observer = sim.observer
        self._rec: "RunRecorder | None" = None
        network = sim.network
        workload = sim.workload
        self._network = network
        ts = network.tree_size
        self._ts = ts
        num_objects = workload.num_objects

        # Object sizes as a flat Python list (one-time conversion).
        # Request columns are NOT materialized here: run() converts them
        # block by block as the workload streams through.
        self._sizes = workload.sizes.tolist()

        # Cache-enabled locals as an O(1) bitmap.
        self._is_cache = bytearray(ts)
        for local in sorted(sim._cache_local_set):
            self._is_cache[local] = 1

        # Flat cache structs mirroring the reference caches' capacities
        # (multipliers already applied by the Simulator constructor).
        arch = sim.architecture
        num_nodes = network.num_nodes
        self._caches: list = [None] * num_nodes
        #: Shared views of each struct's membership bitmap / order dict,
        #: indexed by global node id — the hot loop reads these directly
        #: (same underlying objects, so struct calls stay consistent).
        self._members: list = [None] * num_nodes
        self._orders: list = [None] * num_nodes
        self._capacities: list = [0.0] * num_nodes
        for node, ref_cache in sim.caches.items():
            if isinstance(ref_cache, InfiniteCache):
                struct = FastInfinite(num_objects)
            else:
                struct = make_fast_cache(
                    sim.policy, ref_cache.capacity, num_objects, self._sizes
                )
                self._capacities[node] = struct.capacity
                if hasattr(struct, "order"):
                    self._orders[node] = struct.order
            self._caches[node] = struct
            # LFU's frequency table doubles as its membership test
            # (freq > 0 iff cached): an O(1) truthy-per-object view.
            member = getattr(struct, "member", None)
            self._members[node] = struct.freq if member is None else member
        self._directory = (
            ReplicaDirectory(network, failed_nodes=sim._failed)
            if arch.routing == "nr-global"
            else None
        )
        if sim._preload:
            for node, objs in sim._preload.items():
                for obj in objs:
                    self._insert(node, int(obj))
        #: Post-preload used-budget snapshot; the single source of truth
        #: when the inline LRU insert path is active (the structs'
        #: ``insert`` is never called on that configuration).
        self._useds: list = [
            getattr(struct, "used", 0.0) if struct is not None else 0.0
            for struct in self._caches
        ]

        # Memoized tables, filled on first use: insert targets per
        # (serving, leaf) pair and the pieces they are cut from (each
        # leaf's live chain, each PoP pair's live response core roots;
        # see ``_insert_targets``), shared walk candidates, tree walks
        # per ``2 * leaf + own_origin`` and transit walks per
        # ``pop * num_pops + origin_pop`` (see ``_tree_walk``).
        self._targets: dict[int, tuple[int, ...]] = {}
        self._live_chains: list = [None] * num_nodes
        self._core_root_paths: list = [None] * network.num_pops**2
        self._candidates: dict[tuple[int, int], tuple[int, int, object]] = {}
        self._walks = np.empty(2 * num_nodes, dtype=object)
        self._walked = np.zeros(2 * num_nodes, dtype=bool)
        self._transit_walks: list = [None] * network.num_pops**2

    # ------------------------------------------------------------------
    # Memoized per-request tables
    # ------------------------------------------------------------------
    def _insert_targets(self, serving: int, leaf_gid: int) -> tuple[int, ...]:
        """Nodes that take a copy when ``serving`` answers ``leaf_gid``.

        The cache-enabled, non-failed response-path nodes below
        ``serving``, in response-path order: the exact sequence the
        reference insertion loop (and its probabilistic RNG) visits.
        Empty for frozen caches.  Derived from the per-run tables below
        rather than a path walk: from another PoP the response path is
        the server's ancestors, the core path's roots and the leaf's
        chain below its root; from an ancestor of the leaf it is the
        leaf's chain below the server's depth.  Only an in-tree server
        that is not an ancestor (an NR scope replica or a cooperating
        sibling) takes the tree path through the LCA.
        """
        key = serving * self._network.num_nodes + leaf_gid
        targets = self._targets.get(key)
        if targets is not None:
            return targets
        if self._sim.frozen_caches:
            targets = ()
        else:
            ts = self._ts
            pop, local = divmod(serving, ts)
            leaf_pop, leaf_local = divmod(leaf_gid, ts)
            chain = self._live_chains[leaf_gid]
            if chain is None:
                chain = self._live_chain(leaf_gid)
            if pop != leaf_pop:
                roots = self._core_root_paths[pop * self._network.num_pops + leaf_pop]
                if roots is None:
                    roots = self._core_roots(pop, leaf_pop)
                targets = roots + chain[bisect_right(chain, leaf_gid - leaf_local):]
                if local:
                    targets = self._above(serving) + targets
            elif local in self._network._chain[leaf_local]:  # an ancestor of the leaf
                targets = chain[bisect_right(chain, serving):]
            else:
                targets = tuple(
                    node for node in self._network.path_nodes(serving, leaf_gid)[1:]
                    if self._live(node)
                )
        self._targets[key] = targets
        return targets

    def _live(self, node: int) -> bool:
        """Whether ``node`` carries a working cache in this run."""
        return bool(self._is_cache[node % self._ts]) and node not in self._sim._failed

    def _live_chain(self, leaf_gid: int) -> tuple[int, ...]:
        """The live nodes on ``leaf_gid``'s chain, root first.

        BFS numbering makes a deeper node on one chain a larger id, so
        the nodes below a chain node ``n`` are the suffix after ``n``'s
        bisection point.
        """
        base = leaf_gid - leaf_gid % self._ts
        chain = self._live_chains[leaf_gid] = tuple(
            base + local for local in reversed(self._network._chain[leaf_gid % self._ts])
            if self._live(base + local)
        )
        return chain

    def _above(self, node: int) -> tuple[int, ...]:
        """``node``'s live strict ancestors, bottom up."""
        return tuple(up for up in self._network.chain_to_root(node)[1:] if self._live(up))

    def _core_roots(self, pop: int, leaf_pop: int) -> tuple[int, ...]:
        """Live PoP roots after ``pop`` on the response core path to ``leaf_pop``."""
        roots = self._core_root_paths[pop * self._network.num_pops + leaf_pop] = tuple(
            later * self._ts for later in self._network._core_paths[pop][leaf_pop][1:]
            if self._live(later * self._ts)
        )
        return roots

    def _tree_walk(self, tree_key: int) -> tuple[tuple[int, int, object], ...]:
        """Walk candidates for ``2 * leaf + (origin PoP is the leaf's)``.

        Each candidate is ``(node, tag, membership view)``: tag 0 is a
        live cache, ``_FAILED`` a failed one (walked past, flagged as a
        fallback), and ``p + 1`` a cooperating sibling of on-path node
        ``p``, visited only when ``p`` did not hold the object.  A failed
        on-path node's siblings are never consulted and failed siblings
        never offered, so both are left out.  The candidates replay the
        reference ``_route_sp`` / ``_route_nr_scoped`` visit order
        exactly, up to (not including) the origin store.  When the
        origin is another PoP's and PoP roots cache, a final
        ``(pop, _TRANSIT, None)`` entry hands the walk on to the transit
        roots of the core path (``_transit_walk``).  The nr-global
        oracle takes its one candidate from the directory instead
        (``_oracle_walk``).
        """
        sim = self._sim
        network = self._network
        ts = self._ts
        is_cache = self._is_cache
        failed = sim._failed
        routing = sim.architecture.routing
        leaf_gid, own_origin = divmod(tree_key, 2)
        pop, leaf_local = divmod(leaf_gid, ts)
        base = pop * ts
        walk: list[tuple[int, int]] = []
        if routing == "sp":
            for local in network._chain[leaf_local]:
                if local == 0 and own_origin:
                    break  # reached the origin store
                if not is_cache[local]:
                    continue
                node = base + local
                if node in failed:
                    walk.append((node, _FAILED))
                    continue
                walk.append((node, 0))
                for sib_local in sim._coop_siblings[local]:
                    if base + sib_local not in failed:
                        walk.append((base + sib_local, node + 1))
        elif routing == "nr":  # exact distance order
            origin_tree_dist = network.tree.depth_of(leaf_local)
            for dist, local in sim._nr_scope_order[leaf_local]:
                if own_origin and dist >= origin_tree_dist:
                    break  # the origin store is at least as close
                if is_cache[local]:
                    node = base + local
                    walk.append((node, _FAILED if node in failed else 0))
        candidates = [self._candidate(node, tag) for node, tag in walk]
        if routing != "nr-global" and not own_origin and is_cache[0]:
            candidates.append((pop, _TRANSIT, None))
        entry = self._walks[tree_key] = tuple(candidates)
        self._walked[tree_key] = True
        return entry

    def _transit_walk(self, transit_key: int) -> tuple[tuple[int, int, object], ...]:
        """Transit PoP-root candidates for ``pop * num_pops + origin_pop``."""
        pop, origin_pop = divmod(transit_key, self._network.num_pops)
        failed = self._sim._failed
        entry = self._transit_walks[transit_key] = tuple(
            self._candidate(node, _FAILED if node in failed else 0)
            for node in (
                transit_pop * self._ts
                for transit_pop in self._network._core_paths[pop][origin_pop][1:-1]
            )
        )
        return entry

    def _candidate(self, node: int, tag: int) -> tuple[int, int, object]:
        """The shared ``(node, tag, membership view)`` walk candidate."""
        key = (node, tag)
        candidate = self._candidates.get(key)
        if candidate is None:
            candidate = self._candidates[key] = (node, tag, self._members[node])
        return candidate

    def _oracle_walk(
        self, leaf_gid: int, origin_pop: int, obj: int
    ) -> tuple[tuple[int, int, object], ...]:
        """The nr-global candidate: the nearest replica, if any.

        Replicas beyond the origin can never serve (ties prefer the
        replica: same latency, less origin load), so the bounded query
        prunes PoPs ``nearest()`` would still scan while picking the
        identical winner.
        """
        assert self._directory is not None
        found = self._directory.nearest_within(
            obj, leaf_gid, self._network.distance(leaf_gid, origin_pop * self._ts)
        )
        if found is None:
            return ()
        return ((found[0], 0, self._members[found[0]]),)

    def _insert(self, node: int, obj: int) -> None:
        """Struct insert at ``node``, keeping the directory and recorder."""
        cache = self._caches[node]
        directory = self._directory
        rec = self._rec
        if directory is None:
            evicted = cache.insert(obj)
        else:
            was_cached = obj in cache
            evicted = cache.insert(obj)
            for victim in evicted:
                directory.remove(victim, node)
            if not was_cached and obj in cache:
                directory.add(obj, node)
        if rec is not None:
            rec.copies[node] += 1
            rec.evictions[node] += len(evicted)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the full request stream with flat state."""
        return self._cascade() if _cascade_eligible(self._sim) else self._decide_loop()

    def _cascade(self) -> SimulationResult:
        """The per-node filter cascade (see the module docstring)."""
        sim = self._sim
        network = self._network
        ts = self._ts
        num_pops = network.num_pops
        caches = self._caches
        admit = not sim.frozen_caches
        node_filter = _lru_filter if any(type(c) is FastLRU for c in caches) else _struct_filter
        # Per tree depth, deepest first: each local's ancestor at that
        # depth when it is a (non-root) cache, else -1.
        levels = [np.array([c[-1 - d] if len(c) > d and self._is_cache[c[-1 - d]] else -1
                            for c in network._chain]) for d in range(network.tree.depth, 0, -1)]
        levels = [ancestors for ancestors in levels if (ancestors >= 0).any()]
        # Root-stage tables per ``from * num_pops + to`` PoP pair: the own
        # and transit roots' lookups on the request path, and the inserts
        # at the response path's roots (``_core_roots``).
        roots = bool(self._is_cache[0])
        paths = [path for row in network._core_paths for path in row] if roots else []
        walks = [tuple((r, caches[r * ts].lookup) for r in path[:-1]) for path in paths]
        copies = [tuple((r, caches[r].insert) for r in self._core_roots(*divmod(k, num_pops)))
                  if admit else () for k in range(len(paths))]
        ledger = _Ledger(
            self._observer, sim.architecture.name, sim.architecture.routing,
            network, sim.costs, sim.workload, sim.warmup_fraction, trace_warmup=True,
        )
        rec = self._rec = ledger.rec
        observing = rec is not None
        rec_copies = rec.copies if rec is not None else []
        rec_evicts = rec.evictions if rec is not None else []

        for start, pops, leaves, objects in _blocks(sim.workload, FILTER_WINDOW):
            origin = sim.workload.origins[objects]
            serving = origin.astype(np.int64) * ts  # the serving column, int64
            alive = np.ones(len(objects), dtype=bool)
            # Tree stage: each level filters the misses from below.
            for ancestors in levels:
                local = ancestors[leaves]
                reqs = np.flatnonzero(alive & (local >= 0))
                if not len(reqs):
                    continue
                nodes = pops[reqs] * ts + local[reqs]
                order = np.argsort(nodes, kind="stable")
                reqs, nodes = reqs[order], nodes[order]
                view = memoryview(objects[reqs])
                hits = bytearray(len(reqs))
                bounds = (np.flatnonzero(np.diff(nodes)) + 1).tolist()
                for a, b in zip([0, *bounds], [*bounds, len(reqs)]):
                    node = int(nodes[a])
                    evicted = node_filter(caches[node], view[a:b], hits, a, admit, self._sizes)
                    if observing and admit:  # frozen: no copies, no evictions
                        rec_copies[node] += b - a - hits.count(1, a, b)
                        rec_evicts[node] += evicted
                hit = np.frombuffer(hits, dtype=bool)
                serving[reqs[hit]] = nodes[hit]
                alive[reqs[hit]] = False
            codes = serving << _SHIFT
            codes[alive] |= _ORIGIN
            # Root stage, in request order: the residue bound for another
            # PoP's origin (own-origin requests stop at the origin store).
            residue = alive & (origin != pops) & roots
            for a in range(0, len(objects), ACCOUNT_BLOCK):
                b = a + ACCOUNT_BLOCK
                reqs = a + np.flatnonzero(residue[a:b])
                served: list[int] = []
                emit = served.append
                for pop, origin_pop, obj in zip(
                    pops[reqs].tolist(), origin[reqs].tolist(), objects[reqs].tolist()
                ):
                    for server, lookup in walks[pop * num_pops + origin_pop]:
                        if lookup(obj):
                            emit(server * ts << _SHIFT)
                            break
                    else:
                        server = origin_pop
                        emit(server * ts << _SHIFT | _ORIGIN)
                    for root, insert in copies[server * num_pops + pop]:
                        evicted = insert(obj)
                        if observing:
                            rec_copies[root] += 1
                            rec_evicts[root] += len(evicted)
                codes[reqs] = served
                ledger.account(start + a, pops[a:b], leaves[a:b], objects[a:b], codes[a:b])

        self._rec = None
        return ledger.result()

    def _decide_loop(self) -> SimulationResult:
        """The general per-request decide loop (any configuration)."""
        sim = self._sim
        network = self._network
        arch = sim.architecture
        ts = self._ts
        num_nodes = network.num_nodes
        num_pops = network.num_pops
        workload = sim.workload
        sizes = self._sizes
        origins = workload.origins
        caches = self._caches
        orders = self._orders
        capacities = self._capacities
        useds = self._useds
        cap = sim._capacity
        oracle_walk = self._oracle_walk if self._directory is not None else None
        walks = self._walks
        walked = self._walked
        walk_of = self._tree_walk
        transit_walks = self._transit_walks
        transit_of = self._transit_walk
        targets_memo = self._targets
        targets_of = self._insert_targets
        insert = self._insert

        ins_everywhere = arch.insertion == "everywhere"
        ins_lcd = arch.insertion == "lcd"
        insert_probability = arch.insertion_probability
        insert_random = np.random.default_rng(INSERT_SEED).random

        # Policy flags for the membership-first hot path: misses need no
        # struct call at all; hits refresh recency inline (LRU), bump a
        # frequency class (LFU), or do nothing (FIFO / infinite).
        lru_mode = sim.policy == "lru" and not arch.infinite
        lfu_mode = sim.policy == "lfu" and not arch.infinite
        # Inline the entire LRU insert when no directory needs updating.
        inline_lru_insert = lru_mode and oracle_walk is None

        # Observability: the decide loop only counts copies and
        # evictions, gated on ``observing`` (a plain local bool) so the
        # disabled default allocates nothing (lint rule O501); serves
        # and trace records come from the serving column afterwards.
        ledger = _Ledger(
            self._observer, arch.name, arch.routing, network, sim.costs,
            workload, sim.warmup_fraction, trace_warmup=True,
        )
        rec = self._rec = ledger.rec
        observing = rec is not None
        rec_copies = rec.copies if rec is not None else []
        rec_evicts = rec.evictions if rec is not None else []

        for start, bpops, bleaves, bobjects in _blocks(workload, ACCOUNT_BLOCK):
            leaf = bpops * ts + bleaves
            origin = origins[bobjects]
            keys = 2 * leaf + (origin == bpops)
            for key in np.unique(keys[~walked[keys]]).tolist():
                walk_of(key)
            codes: list[int] = []
            emit = codes.append
            for walk, leaf_gid, origin_pop, obj in zip(
                walks[keys].tolist(), leaf.tolist(), origin.tolist(),
                bobjects.tolist(),
            ):
                if oracle_walk is not None:
                    walk = oracle_walk(leaf_gid, origin_pop, obj)
                outcome = 0
                rejected = 0
                while True:
                    for node, tag, member in walk:
                        if tag:
                            if tag < 0:
                                if tag == _FAILED:
                                    outcome = _FALLBACK  # walk past it
                                    continue
                                # On to the transit roots (``node`` is
                                # the leaf's PoP here).
                                walk = transit_walks[node * num_pops + origin_pop]
                                if walk is None:
                                    walk = transit_of(node * num_pops + origin_pop)
                                break
                            if tag == rejected:
                                continue  # its on-path cache held the object
                        if member[obj]:
                            if lru_mode:
                                order = orders[node]
                                del order[obj]
                                order[obj] = None
                            elif lfu_mode:
                                caches[node].lookup(obj)
                            if cap is None or cap.try_serve(node, start + len(codes)):
                                emit(node << _SHIFT | outcome | (tag > 0))
                                break
                            rejected = node + 1
                    else:
                        node = origin_pop * ts
                        emit(node << _SHIFT | outcome | _ORIGIN)
                        if cap is not None:
                            cap.force_serve(node, start + len(codes) - 1)
                        break
                    if tag != _TRANSIT:
                        break

                if node == leaf_gid:
                    continue  # served at the leaf: nothing below it
                targets = targets_memo.get(node * num_nodes + leaf_gid)
                if targets is None:
                    targets = targets_of(node, leaf_gid)
                if not targets:
                    continue  # no cache below the server, or frozen caches
                if not ins_everywhere:
                    # Leave-copy-down: only the first cache below the
                    # serving node takes a copy; else one coin per node.
                    targets = targets[:1] if ins_lcd else tuple(
                        node for node in targets
                        if insert_random() < insert_probability
                    )
                if not inline_lru_insert:
                    for node in targets:
                        insert(node, obj)
                    continue
                size = sizes[obj]
                for node in targets:
                    if observing:
                        rec_copies[node] += 1
                    member = caches[node].member
                    order = orders[node]
                    if member[obj]:
                        del order[obj]  # refresh: re-append below
                    else:
                        node_cap = capacities[node]
                        if size > node_cap:
                            continue
                        used = useds[node]
                        while used + size > node_cap and order:  # see LRUCache.insert
                            victim = next(iter(order))
                            del order[victim]
                            member[victim] = 0
                            used -= sizes[victim]
                            if observing:
                                rec_evicts[node] += 1
                        member[obj] = 1
                        useds[node] = used + size
                    order[obj] = None
            ledger.account(
                start, bpops, bleaves, bobjects, np.array(codes, dtype=np.int64)
            )

        self._rec = None
        return ledger.result()


def fast_no_cache(
    network: Network,
    workload: Workload | StreamingWorkload,
    costs: HopCosts,
    warmup_fraction: float,
    observer: "Observer | None" = None,
) -> SimulationResult:
    """Pure-NumPy twin of :func:`repro.core.engine.simulate_no_cache`.

    Every request is served by its object's origin root, so the serving
    column is a gather and the whole run is the shared accounting step.
    """
    ledger = _Ledger(
        observer, "NO-CACHE", "origin", network, costs, workload,
        warmup_fraction, trace_warmup=False,
    )
    origin_codes = (
        np.asarray(workload.origins, dtype=np.int64) * network.tree_size << _SHIFT
    ) | _ORIGIN
    for start, pops, leaves, objects in _blocks(workload, ACCOUNT_BLOCK):
        ledger.account(start, pops, leaves, objects, origin_codes[objects])
    return ledger.result()
