"""LRU flow cache with an insertion-rate limiter.

Used for two things: the caches created by Pipeleon's table-caching
optimization (§3.2.2) and the emulator's model of Netronome's built-in
whole-program flow cache. Pipeleon "reserves a fixed budget for each
cache and adopts LRU eviction when the cache is full. [...] Pipeleon sets
an insertion rate limit for each cache; insertions beyond the limit will
be dropped."
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

#: A cached "effect": bound primitives to replay on a hit.
Effect = tuple[tuple[str, tuple[Any, ...]], ...]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejected_insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def reset_rates(self) -> None:
        """Clear the hit/miss window (keeps structural stats)."""
        self.hits = 0
        self.misses = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another cache's stats into this one (associative)."""
        self.hits += other.hits
        self.misses += other.misses
        self.insertions += other.insertions
        self.rejected_insertions += other.rejected_insertions
        self.evictions += other.evictions
        self.invalidations += other.invalidations
        return self


class TokenBucket:
    """Simple token bucket used for the insertion-rate limit."""

    def __init__(self, rate_per_s: float, burst: Optional[float] = None):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.rate = rate_per_s
        self.burst = burst if burst is not None else max(1.0, rate_per_s)
        self._tokens = self.burst
        self._last = 0.0

    def allow(self, now_s: float) -> bool:
        elapsed = max(0.0, now_s - self._last)
        self._last = now_s
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class FlowCache:
    """Exact-match LRU cache: key tuple -> recorded effect."""

    def __init__(
        self,
        capacity: int = 4096,
        insertion_limit_pps: Optional[float] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store: OrderedDict[Hashable, Effect] = OrderedDict()
        self._limiter = (
            TokenBucket(insertion_limit_pps)
            if insertion_limit_pps
            else None
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def lookup(self, key: Hashable) -> Optional[Effect]:
        effect = self._store.get(key)
        if effect is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return effect

    def touch(self, key: Hashable, hits: int = 1) -> None:
        """Commit ``hits`` lookups that hit ``key`` (LRU + stats).

        The columnar tier resolves a batch against a copy of the store
        and commits a run of hits on one key as a single promotion.
        """
        self._store.move_to_end(key)
        self.stats.hits += hits

    def insert(self, key: Hashable, effect: Effect, now_s: float) -> bool:
        """Install a recording; False if the rate limiter rejected it."""
        if self._limiter is not None and not self._limiter.allow(now_s):
            self.stats.rejected_insertions += 1
            return False
        if key in self._store:
            self._store.move_to_end(key)
            self._store[key] = effect
            return True
        if len(self._store) >= self.capacity:
            self._store.popitem(last=False)
            self.stats.evictions += 1
        self._store[key] = effect
        self.stats.insertions += 1
        return True

    def invalidate_all(self) -> int:
        """Drop every cached flow (an original-table entry changed)."""
        count = len(self._store)
        self._store.clear()
        if count:
            self.stats.invalidations += 1
        return count

    def hit_rate(self) -> float:
        return self.stats.hit_rate
