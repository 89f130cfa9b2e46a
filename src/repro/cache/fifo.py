"""First-in-first-out cache.

Not used by the paper's headline results, but a useful ablation point:
FIFO ignores recency, so comparing it against LRU isolates how much the
Zipf workload's temporal locality matters.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterator

from .base import Cache


class FIFOCache(Cache):
    """Size-aware FIFO cache: eviction order is insertion order."""

    def __init__(self, capacity: float) -> None:
        super().__init__(capacity)
        self._entries: OrderedDict[Hashable, float] = OrderedDict()
        self._used = 0.0

    def lookup(self, obj: Hashable) -> bool:
        return self._record(obj in self._entries)

    def insert(self, obj: Hashable, size: float = 1.0) -> list[Hashable]:
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if obj in self._entries:
            self._used += size - self._entries[obj]
            self._entries[obj] = size
            evicted = []
            while self._used > self.capacity:
                victim, victim_size = self._entries.popitem(last=False)
                self._used -= victim_size
                evicted.append(victim)
            return evicted
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
