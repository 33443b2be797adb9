"""LRU flow cache with an insertion-rate limiter.

Used for two things: the caches created by Pipeleon's table-caching
optimization (§3.2.2) and the emulator's model of Netronome's built-in
whole-program flow cache. Pipeleon "reserves a fixed budget for each
cache and adopts LRU eviction when the cache is full. [...] Pipeleon sets
an insertion rate limit for each cache; insertions beyond the limit will
be dropped."
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Hashable, Iterable, Iterator, Optional

import numpy as np

#: A cached "effect": bound primitives to replay on a hit.
Effect = tuple[tuple[str, tuple[Any, ...]], ...]

#: Slots a cache's arrays start with; they double as it fills.
_FIRST_SLOTS = 64

#: ``struct`` formats of int64 key rows, by width.
_ROW_FORMATS: dict[int, struct.Struct] = {}


def _row_format(width: int) -> struct.Struct:
    row_format = _ROW_FORMATS.get(width)
    if row_format is None:
        row_format = _ROW_FORMATS[width] = struct.Struct(f"={width}q")
    return row_format


def cache_key(values: tuple[int, ...]) -> Hashable:
    """The cache key of a key tuple: the native bytes of its int64 row.

    These are the bytes ``rows.view(np.void)`` gives the columnar tier
    for a key matrix row, and ``bytes`` caches its hash. A tuple with a
    value outside int64 stays a tuple; no batch row can equal it.
    """
    try:
        return _row_format(len(values)).pack(*values)
    except struct.error:
        return tuple(values)


def row_keys(rows: np.ndarray) -> list:
    """The :func:`cache_key` of every row of an int64 key matrix,
    without a tuple in between."""
    width = rows.shape[1]
    if width == 0:
        return [b""] * len(rows)
    row_bytes = np.dtype((np.void, 8 * width))
    return np.ascontiguousarray(rows).view(row_bytes).ravel().tolist()


def key_values(key: Hashable) -> Hashable:
    """:func:`cache_key` undone: a byte key as its tuple of ints."""
    if isinstance(key, bytes):
        return _row_format(len(key) // 8).unpack(key)
    return key


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
        elapsed = now_s - self._last
        self._last = now_s
        # Tokens never exceed the burst, so a clock that stood still
        # (or stepped back) leaves them exactly as they were.
        if elapsed > 0.0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def admissible(self, first_s: float, rise_s: float = 0.0) -> int:
        """At most how many :meth:`allow` calls from now on can return
        True, at clock values that start at ``first_s`` and then rise by
        ``rise_s`` in all (the sum of the forward steps; a step back
        refills nothing).

        Exact for a clock that stands still (``rise_s`` 0): the first
        call's refill is computed as :meth:`allow` computes it, and each
        admit takes exactly one token. A moving clock gets an upper
        bound, one token above the refill so that rounding cannot
        undercount it.
        """
        tokens = self._tokens
        elapsed = first_s - self._last
        if elapsed > 0.0:
            tokens = min(self.burst, tokens + elapsed * self.rate)
        if rise_s > 0.0:
            return int(tokens + rise_s * self.rate) + 1
        return int(tokens)


class FlowCache:
    """Exact-match LRU cache: key -> recorded effect, as slot arrays.

    ``_slots`` maps a key to its slot, and slots ``0 .. len - 1`` are
    the occupied ones: an eviction hands the victim's slot to the key
    that evicted it, and only :meth:`invalidate_all` frees slots. Per
    slot, in int64 arrays grown by doubling up to ``capacity``:

    * ``stamps`` — the LRU clock when the slot was last used (a hit or
      an insert); ascending stamps are the LRU order.
    * ``effect_ids`` — the slot's effect as an index into ``effects``,
      interned once at insert, so a batch groups its hits by effect
      without hashing one effect tuple per key.
    * ``born`` — the clock when the slot's key was inserted: a slot
      whose ``born`` moved holds another key (−1: a freed slot).

    The columnar tier reads these arrays and commits a batch's hits
    with one :meth:`promote`; everything else goes through
    :meth:`lookup` and :meth:`insert`.

    Evictions read a snapshot of the LRU order with a cursor. A slot
    stamped since the snapshot was taken has moved to the tail and is
    skipped, so finding the head costs no scan of the store; a used-up
    snapshot is rebuilt by :meth:`lru_slots`.
    """

    def __init__(
        self,
        capacity: int = 4096,
        insertion_limit_pps: Optional[float] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._limiter = (
            TokenBucket(insertion_limit_pps)
            if insertion_limit_pps
            else None
        )
        self.stats = CacheStats()
        self._clock = 0
        size = min(capacity, _FIRST_SLOTS)
        self.stamps = np.zeros(size, dtype=np.int64)
        self.effect_ids = np.zeros(size, dtype=np.int64)
        self.born = np.full(size, -1, dtype=np.int64)
        self._forget()

    def _forget(self) -> None:
        """Empty the store (the slot arrays keep their size)."""
        self._slots: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []
        self.effects: list[Effect] = []
        self._effect_index: dict[Effect, int] = {}
        self.born[:] = -1
        #: The eviction snapshot: slots in LRU order, the cursor, and
        #: the clock when it was taken.
        self._queue = np.zeros(0, dtype=np.int64)
        self._queue_at = 0
        self._queue_clock = self._clock

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

    def lookup(self, key: Hashable) -> Optional[Effect]:
        slot = self._slots.get(key)
        if slot is None:
            self.stats.misses += 1
            return None
        self.stamps[slot] = self._clock
        self._clock += 1
        self.stats.hits += 1
        return self.effects[self.effect_ids[slot]]

    def insert(self, key: Hashable, effect: Effect, now_s: float) -> bool:
        """Install a recording; False if the rate limiter rejected it."""
        if self._limiter is not None and not self._limiter.allow(now_s):
            self.stats.rejected_insertions += 1
            return False
        effect_id = self._intern(effect)
        slot = self._slots.get(key)
        if slot is None:
            slot = len(self._slots)
            if slot >= self.capacity:
                slot = self._evict()
                self.stats.evictions += 1
                self._keys[slot] = key
            else:
                if slot == len(self.stamps):
                    self._grow()
                self._keys.append(key)
            self._slots[key] = slot
            self.born[slot] = self._clock
            self.stats.insertions += 1
        self.stamps[slot] = self._clock
        self._clock += 1
        self.effect_ids[slot] = effect_id
        return True

    def invalidate_all(self) -> int:
        """Drop every cached flow (an original-table entry changed)."""
        count = len(self._slots)
        self._forget()
        if count:
            self.stats.invalidations += 1
        return count

    def items(self) -> Iterator[tuple[Hashable, Effect]]:
        """``(key, effect)`` pairs, least recently used first, with byte
        keys decoded back to tuples (:func:`key_values`)."""
        for slot in self.lru_slots().tolist():
            yield (
                key_values(self._keys[slot]),
                self.effects[self.effect_ids[slot]],
            )

    def hit_rate(self) -> float:
        return self.stats.hit_rate

    # -- the batch interface -------------------------------------------------

    def slots_of(self, keys: list) -> np.ndarray:
        """Each key's slot, −1 where the key is absent."""
        return np.fromiter(
            map(self._slots.get, keys, repeat(-1)),
            dtype=np.int64,
            count=len(keys),
        )

    def insert_bound(
        self, wanted: int, first_s: float, rise_s: float = 0.0
    ) -> int:
        """At most how many of ``wanted`` inserts the insertion limiter
        can admit at clock values from ``first_s`` rising by ``rise_s``
        (:meth:`TokenBucket.admissible`); all of them without one."""
        if self._limiter is None:
            return wanted
        return min(wanted, self._limiter.admissible(first_s, rise_s))

    def reject(self, count: int, times: Iterable[float]) -> bool:
        """Book ``count`` lookup misses whose inserts the limiter turns
        down, the limiter asked once per clock value of ``times``, in
        order — one per miss, or one for misses at a clock that stands
        still, since a refused call at an unmoved clock changes nothing.

        False, with the limiter as the calls left it and nothing
        booked, when the limiter admits one of them (and always
        without a limiter).
        """
        limiter = self._limiter
        if limiter is None:
            return False
        for now_s in times:
            if limiter.allow(now_s):
                return False
        self.stats.misses += count
        self.stats.rejected_insertions += count
        return True

    def lru_slots(self) -> np.ndarray:
        """Every occupied slot, least recently used first.

        The snapshot's slots not stamped since it was taken keep their
        order and lead; the slots stamped since follow by stamp. The
        result becomes the eviction snapshot.
        """
        stamps = self.stamps[: len(self._slots)]
        fresh = self._queue_clock
        queue = self._queue[self._queue_at :]
        moved = np.flatnonzero(stamps >= fresh)
        order = np.concatenate(
            (queue[stamps[queue] < fresh], moved[np.argsort(stamps[moved])])
        )
        self._queue, self._queue_at, self._queue_clock = order, 0, self._clock
        return order

    def promote(self, slots: np.ndarray, hits: int) -> None:
        """Book ``hits`` lookup hits, then make ``slots`` the most
        recently used, the last one last — one batch's hits at once."""
        self.stats.hits += hits
        clock = self._clock
        self._clock = clock + len(slots)
        self.stamps[slots] = np.arange(clock, self._clock)

    # -- internals -----------------------------------------------------------

    def _intern(self, effect: Effect) -> int:
        effect_id = self._effect_index.get(effect)
        if effect_id is None:
            if len(self.effects) >= 2 * self.capacity:
                self._drop_dead_effects()
            effect_id = self._effect_index[effect] = len(self.effects)
            self.effects.append(effect)
        return effect_id

    def _drop_dead_effects(self) -> None:
        """Renumber the interned effects some slot still holds."""
        held = self.effect_ids[: len(self._slots)]
        live, held[:] = np.unique(held, return_inverse=True)
        self.effects = [self.effects[i] for i in live.tolist()]
        self._effect_index = {e: i for i, e in enumerate(self.effects)}

    def _evict(self) -> int:
        """Drop the least recently used key; return its slot."""
        stamps = self.stamps
        queue, at, fresh = self._queue, self._queue_at, self._queue_clock
        while True:
            if at == len(queue):
                queue, at, fresh = self.lru_slots(), 0, self._clock
            slot = int(queue[at])
            at += 1
            if stamps[slot] < fresh:
                break
        self._queue_at = at
        del self._slots[self._keys[slot]]
        return slot

    def _grow(self) -> None:
        size = min(self.capacity, 2 * len(self.stamps))
        self.stamps = _grown(self.stamps, size, 0)
        self.effect_ids = _grown(self.effect_ids, size, 0)
        self.born = _grown(self.born, size, -1)


def _grown(column: np.ndarray, size: int, fill: int) -> np.ndarray:
    grown = np.full(size, fill, dtype=column.dtype)
    grown[: len(column)] = column
    return grown
