"""Flat-state cache structs for the fast simulation engine.

The reference policies (:mod:`repro.cache.lru` et al.) are small
classes built on ``OrderedDict`` — ideal for clarity, but the
per-request simulator spends most of its time inside them.  The fast
engine replaces each cache node's state with a struct of preallocated
flat arrays plus one insertion-ordered mapping:

* ``member`` — a ``bytearray`` of length ``num_objects``: O(1)
  membership tests with no hashing (object ids are dense ints);
* ``order`` — a plain ``dict`` keyed by object id whose *insertion
  order* is the eviction order (CPython dicts preserve it); LRU
  refreshes an entry by pop-and-reinsert, FIFO never reorders;
* LFU additionally keeps a flat frequency table and per-frequency
  insertion-ordered buckets, mirroring the reference's O(1)
  frequency-class scheme with LRU tie-breaking.

Every struct reproduces the reference policy's observable behaviour
exactly — same eviction victims in the same order, same state after any
interleaving of ``lookup``/``insert`` — which the differential suite
(``tests/core/test_fastpath_equivalence.py``) pins down engine-to-engine.
Object sizes are global per object id (the simulator never re-inserts an
object with a different size), so sizes live in one shared list instead
of per-node maps.
"""

from __future__ import annotations

__all__ = [
    "FastFIFO",
    "FastInfinite",
    "FastLFU",
    "FastLRU",
    "make_fast_cache",
]


class FastLRU:
    """LRU over a membership bitmap and an insertion-ordered dict."""

    __slots__ = ("capacity", "member", "order", "sizes", "used")

    def __init__(
        self, capacity: float, num_objects: int, sizes: list[float]
    ) -> None:
        self.capacity = capacity
        self.member = bytearray(num_objects)
        self.order: dict[int, None] = {}
        self.sizes = sizes
        self.used = 0.0

    def lookup(self, obj: int) -> bool:
        if self.member[obj]:
            order = self.order
            del order[obj]
            order[obj] = None
            return True
        return False

    def insert(self, obj: int) -> list[int]:
        member = self.member
        order = self.order
        if member[obj]:
            del order[obj]
            order[obj] = None
            return []
        size = self.sizes[obj]
        if size > self.capacity:
            return []
        evicted = []
        used = self.used
        capacity = self.capacity
        while used + size > capacity and order:  # see LRUCache.insert
            victim = next(iter(order))
            del order[victim]
            member[victim] = 0
            used -= self.sizes[victim]
            evicted.append(victim)
        order[obj] = None
        member[obj] = 1
        self.used = used + size
        return evicted

    def __contains__(self, obj: int) -> bool:
        return bool(self.member[obj])

    def __len__(self) -> int:
        return len(self.order)


class FastFIFO:
    """FIFO: same layout as LRU, but hits never refresh the order."""

    __slots__ = ("capacity", "member", "order", "sizes", "used")

    def __init__(
        self, capacity: float, num_objects: int, sizes: list[float]
    ) -> None:
        self.capacity = capacity
        self.member = bytearray(num_objects)
        self.order: dict[int, None] = {}
        self.sizes = sizes
        self.used = 0.0

    def lookup(self, obj: int) -> bool:
        return bool(self.member[obj])

    def insert(self, obj: int) -> list[int]:
        member = self.member
        if member[obj]:
            return []
        size = self.sizes[obj]
        if size > self.capacity:
            return []
        order = self.order
        evicted = []
        used = self.used
        capacity = self.capacity
        while used + size > capacity and order:  # see LRUCache.insert
            victim = next(iter(order))
            del order[victim]
            member[victim] = 0
            used -= self.sizes[victim]
            evicted.append(victim)
        order[obj] = None
        member[obj] = 1
        self.used = used + size
        return evicted

    def __contains__(self, obj: int) -> bool:
        return bool(self.member[obj])

    def __len__(self) -> int:
        return len(self.order)


class FastLFU:
    """LFU with a flat frequency table and insertion-ordered buckets.

    ``freq`` is a preallocated per-object frequency array (0 = absent);
    ``buckets[f]`` holds the objects at frequency ``f`` in insertion
    order, so eviction pops the least-recently-promoted member of the
    lowest occupied class — exactly the reference's tie-break.
    """

    __slots__ = ("buckets", "capacity", "freq", "min_freq", "sizes", "used")

    def __init__(
        self, capacity: float, num_objects: int, sizes: list[float]
    ) -> None:
        self.capacity = capacity
        self.freq = [0] * num_objects
        self.buckets: dict[int, dict[int, None]] = {}
        self.min_freq = 0
        self.sizes = sizes
        self.used = 0.0

    def _bump(self, obj: int) -> None:
        freq = self.freq[obj]
        buckets = self.buckets
        bucket = buckets[freq]
        del bucket[obj]
        if not bucket:
            del buckets[freq]
            if self.min_freq == freq:
                self.min_freq = freq + 1
        self.freq[obj] = freq + 1
        nxt = buckets.get(freq + 1)
        if nxt is None:
            buckets[freq + 1] = {obj: None}
        else:
            nxt[obj] = None

    def lookup(self, obj: int) -> bool:
        if self.freq[obj]:
            self._bump(obj)
            return True
        return False

    def _evict_one(self) -> int:
        bucket = self.buckets[self.min_freq]
        victim = next(iter(bucket))
        del bucket[victim]
        if not bucket:
            del self.buckets[self.min_freq]
        self.used -= self.sizes[victim]
        self.freq[victim] = 0
        if not self.buckets:
            self.min_freq = 0
        elif self.min_freq not in self.buckets:
            self.min_freq = min(self.buckets)
        return victim

    def insert(self, obj: int) -> list[int]:
        if self.freq[obj]:
            self._bump(obj)
            return []
        size = self.sizes[obj]
        if size > self.capacity:
            return []
        evicted = []
        while self.used + size > self.capacity and self.buckets:
            evicted.append(self._evict_one())
        self.freq[obj] = 1
        bucket = self.buckets.get(1)
        if bucket is None:
            self.buckets[1] = {obj: None}
        else:
            bucket[obj] = None
        self.min_freq = 1
        self.used += size
        return evicted

    def __contains__(self, obj: int) -> bool:
        return bool(self.freq[obj])

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())


class FastInfinite:
    """Unbounded cache: a membership bitmap, nothing else."""

    __slots__ = ("member",)

    def __init__(self, num_objects: int) -> None:
        self.member = bytearray(num_objects)

    def lookup(self, obj: int) -> bool:
        return bool(self.member[obj])

    def insert(self, obj: int) -> list[int]:
        self.member[obj] = 1
        return []

    def __contains__(self, obj: int) -> bool:
        return bool(self.member[obj])

    def __len__(self) -> int:
        return sum(self.member)


_FAST_POLICIES = {
    "lru": FastLRU,
    "lfu": FastLFU,
    "fifo": FastFIFO,
}


def make_fast_cache(
    policy: str, capacity: float, num_objects: int, sizes: list[float]
) -> "FastLRU | FastLFU | FastFIFO":
    """Instantiate flat cache state by policy name ('lru', 'lfu', 'fifo')."""
    try:
        cls = _FAST_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {sorted(_FAST_POLICIES)}"
        ) from None
    return cls(capacity, num_objects, sizes)
