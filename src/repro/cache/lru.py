"""Least-recently-used cache.

LRU is the paper's default replacement policy: "prior work and our own
experiments show that the LRU policy performs near-optimally in practical
scenarios" (Section 3).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterator

from .base import Cache


class LRUCache(Cache):
    """Size-aware LRU cache.

    Stores object sizes; eviction removes least-recently-used entries
    until the new object fits.  With the default unit sizes this is the
    classic count-bounded LRU.
    """

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._entries: OrderedDict[Hashable, float] = OrderedDict()
        self._used = 0.0

    def lookup(self, obj: Hashable) -> bool:
        if obj in self._entries:
            self._entries.move_to_end(obj)
            return self._record(True)
        return self._record(False)

    def insert(self, obj: Hashable, size: float = 1.0) -> list[Hashable]:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if obj in self._entries:
            self._used += size - self._entries[obj]
            self._entries[obj] = size
            self._entries.move_to_end(obj)
            return self._evict_to_fit(exclude=obj)
        if size > self.capacity:
            return []
        evicted = []
        # ``and self._entries``: float drift can leave an emptied cache a
        # hair over capacity; an object that fits alone is then admitted.
        while self._used + size > self.capacity and self._entries:
            victim, victim_size = self._entries.popitem(last=False)
            self._used -= victim_size
            evicted.append(victim)
        self._entries[obj] = size
        self._used += size
        return evicted

    def _evict_to_fit(self, exclude: Hashable) -> list[Hashable]:
        evicted = []
        while self._used > self.capacity:
            victim = next(iter(self._entries))
            if victim == exclude:
                # The grown object itself no longer fits; drop it.
                pass
            self._used -= self._entries.pop(victim)
            evicted.append(victim)
        return evicted

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0.0

    @property
    def used(self) -> float:
        """Total size of cached objects."""
        return self._used
