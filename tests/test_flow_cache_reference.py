"""``FlowCache`` against the ordered-dict cache it replaced.

``ReferenceFlowCache`` is that cache, kept here as the model: one
``OrderedDict`` in LRU order, ``move_to_end`` on a hit, ``popitem`` of
the head on an eviction. A hypothesis state machine drives both with
lookups, rate-limited inserts at non-decreasing times and
invalidations, and compares every return value, the whole
``CacheStats``, the LRU-ordered contents and the token bucket's
floats after each step.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.nic.flow_cache import (
    CacheStats,
    Effect,
    FlowCache,
    cache_key,
    key_values,
    row_keys,
)


class ReferenceTokenBucket:
    """The insertion-rate limit, refilled on every call."""

    def __init__(self, rate_per_s: float):
        self.rate = rate_per_s
        self.burst = max(1.0, rate_per_s)
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


class ReferenceFlowCache:
    """Exact-match LRU cache: key -> recorded effect, in an OrderedDict."""

    def __init__(self, capacity: int, insertion_limit_pps=None):
        self.capacity = capacity
        self._store: OrderedDict[Hashable, Effect] = OrderedDict()
        self._limiter = (
            ReferenceTokenBucket(insertion_limit_pps)
            if insertion_limit_pps
            else None
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, key: Hashable) -> Optional[Effect]:
        effect = self._store.get(key)
        if effect is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return effect

    def insert(self, key: Hashable, effect: Effect, now_s: float) -> bool:
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
        count = len(self._store)
        self._store.clear()
        if count:
            self.stats.invalidations += 1
        return count

    def items(self):
        for key, effect in self._store.items():
            yield key_values(key), effect


#: Key rows: small int64 values (so keys repeat), the int64 extremes,
#: and one value past int64 — a key that stays a tuple.
KEYS = st.tuples(
    st.sampled_from([0, 1, 2, 3, -1, 2**63 - 1, -(2**63), 2**63]),
    st.integers(min_value=0, max_value=2),
).map(cache_key)

EFFECTS = st.sampled_from(
    [(), (("drop", ()),), (("forward", (1,)),), (("forward", (2,)),)]
)


class FlowCacheMatchesReference(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(min_value=1, max_value=5),
        limit=st.sampled_from([None, 1.0, 3.0, 1e6]),
    )
    def build(self, capacity, limit):
        self.cache = FlowCache(capacity, insertion_limit_pps=limit)
        self.reference = ReferenceFlowCache(capacity, limit)
        self.now_s = 0.0

    @rule(key=KEYS)
    def lookup(self, key):
        assert self.cache.lookup(key) == self.reference.lookup(key)

    @rule(
        key=KEYS,
        effect=EFFECTS,
        gap=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
    )
    def insert(self, key, effect, gap):
        self.now_s += gap
        assert self.cache.insert(key, effect, self.now_s) == (
            self.reference.insert(key, effect, self.now_s)
        )

    @rule(keys=st.lists(KEYS, max_size=12), effect=EFFECTS)
    def burst(self, keys, effect):
        """What a packet does at a cache, several times between two
        looks at the contents: the eviction snapshot goes stale."""
        for key in keys:
            self.now_s += 0.25
            hit = self.cache.lookup(key)
            assert hit == self.reference.lookup(key)
            if hit is None:
                assert self.cache.insert(key, effect, self.now_s) == (
                    self.reference.insert(key, effect, self.now_s)
                )

    @rule()
    def invalidate_all(self):
        assert self.cache.invalidate_all() == self.reference.invalidate_all()

    @invariant()
    def same_state(self):
        assert len(self.cache) == len(self.reference)
        assert self.cache.stats == self.reference.stats
        assert list(self.cache.items()) == list(self.reference.items())
        if self.reference._limiter is not None:
            assert vars(self.cache._limiter) == vars(self.reference._limiter)


FlowCacheMatchesReference.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None
)
TestFlowCacheMatchesReference = FlowCacheMatchesReference.TestCase


def test_byte_keys_round_trip():
    assert key_values(cache_key((1, -2, 2**63 - 1))) == (1, -2, 2**63 - 1)
    assert cache_key((2**63, 0)) == (2**63, 0)  # stays a tuple
    assert key_values(cache_key(())) == ()


@pytest.mark.parametrize("width", [0, 1, 2, 8])
def test_a_key_matrix_row_is_its_tuple_key(width):
    """What the columnar tier probes with is what the interpreter
    inserts: ``row_keys`` of a matrix equals ``cache_key`` per row."""
    rows = np.array(
        [[-(2**63), -1, 0, 1, 2**63 - 1, 7, 8, 9][:width]] * 2
        + [list(range(width))],
        dtype=np.int64,
    ).reshape(3, width)
    assert row_keys(rows) == [cache_key(tuple(r)) for r in rows.tolist()]
    assert row_keys(rows[:, ::-1]) == [
        cache_key(tuple(r)) for r in rows[:, ::-1].tolist()
    ]
