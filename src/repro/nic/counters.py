"""P4-style packet counters with optional sampling.

Pipeleon instruments every table action and conditional branch with a
counter (§4.1.2). Counter updates are not free on SmartNICs — Figure 12
quantifies the cost — so Pipeleon samples a fraction of traffic (1/1024)
and scales the counts when computing probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

CounterKey = tuple[str, ...]


def action_counter(table: str, action: str) -> CounterKey:
    return ("action", table, action)


def branch_counter(conditional: str, taken: bool) -> CounterKey:
    return ("branch", conditional, "true" if taken else "false")


def cache_counter(cache: str, hit: bool) -> CounterKey:
    return ("cache", cache, "hit" if hit else "miss")


@dataclass
class Counter:
    packets: int = 0
    bytes: int = 0

    def bump(self, size_bytes: int) -> None:
        self.packets += 1
        self.bytes += size_bytes


class CounterBank:
    """A named collection of counters plus the sampling discipline.

    ``sample_stride`` of N means only every Nth packet updates counters
    (deterministic striding keeps tests reproducible); reads through
    :meth:`scaled_packets` multiply back by N so probabilities stay
    unbiased.
    """

    def __init__(self, sample_stride: int = 1):
        if sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        self.sample_stride = sample_stride
        self._counters: dict[CounterKey, Counter] = {}
        self._packet_index = 0

    # -- per-packet lifecycle -------------------------------------------------

    def begin_packet(self) -> bool:
        """Advance the stride; True if this packet should be counted."""
        sampled = self._packet_index % self.sample_stride == 0
        self._packet_index += 1
        return sampled

    def bump(self, key: CounterKey, size_bytes: int = 0) -> None:
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        counter.bump(size_bytes)

    def bump_block(
        self, key: CounterKey, packets: int, total_bytes: int
    ) -> None:
        """Fold a batch of ``packets`` sampled hits into one counter.

        Counter totals are plain integer sums, so committing a block at
        once is exactly equivalent to ``packets`` individual bumps.
        """
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        counter.packets += packets
        counter.bytes += total_bytes

    def advance(self, n_packets: int) -> None:
        """Advance the sampling stride by ``n_packets`` at once."""
        self._packet_index += n_packets

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "CounterBank") -> "CounterBank":
        """Fold another bank's counts into this one (associative).

        Shards of a replay each own a bank; merging their banks yields
        the same counts as one bank observing the unsplit stream,
        provided ``sample_stride`` is 1 (with a coarser stride, which
        packets get sampled depends on the global packet order, which
        sharding does not preserve).
        """
        if other.sample_stride != self.sample_stride:
            raise ValueError(
                "Cannot merge counter banks with different sample "
                f"strides ({self.sample_stride} vs {other.sample_stride})"
            )
        counters = self._counters
        for key, counter in other._counters.items():
            mine = counters.get(key)
            if mine is None:
                mine = counters[key] = Counter()
            mine.packets += counter.packets
            mine.bytes += counter.bytes
        self._packet_index += other._packet_index
        return self

    # -- reads ------------------------------------------------------------------

    def packets(self, key: CounterKey) -> int:
        counter = self._counters.get(key)
        return counter.packets if counter else 0

    def scaled_packets(self, key: CounterKey) -> int:
        return self.packets(key) * self.sample_stride

    @property
    def packets_seen(self) -> int:
        """Packets that passed the sampler since the last reset,
        sampled or not."""
        return self._packet_index

    def keys(self) -> Iterable[CounterKey]:
        return self._counters.keys()

    def snapshot(self) -> dict[CounterKey, int]:
        """Sampling-corrected packet counts for every counter."""
        return {
            key: counter.packets * self.sample_stride
            for key, counter in self._counters.items()
        }

    def reset(self) -> None:
        self._counters.clear()
        self._packet_index = 0
