"""Latency/throughput aggregation for emulator runs.

``RunStats`` is *mergeable*: a run can be split across shards (the
sharded replay engine partitions traffic by flow hash) and the per-shard
stats recombined with :meth:`RunStats.merge` into exactly the aggregate a
single-core run would have produced. A packet's modeled latency and busy
time are set by its path, so a replay yields few distinct values:
``RunStats`` keeps a value -> count map per series, and its totals are
exact sums over the counts (correctly rounded, so order-independent).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.ir.tables import Pipeline
from repro.nic.targets import TargetModel


@dataclass
class PacketResult:
    """Per-packet outcome from the emulator."""

    latency_ns: float
    dropped: bool
    egress_port: int | None
    migrations: int = 0
    busy_ns: dict[Pipeline, float] = field(default_factory=dict)
    path: tuple[str, ...] = ()


class RunStats:
    """Aggregates packet results and converts them to Gbps.

    Throughput model: each core pool is a set of run-to-completion
    processors; a pool's capacity is ``cores / mean busy time per packet``
    and the NIC's capacity is the bottleneck pool, capped at line rate.
    This is the natural model for the paper's architecture (Figure 1) and
    reduces to ``cores / mean latency`` for homogeneous programs.

    Latencies and per-pool busy times are value -> count maps (read
    with :meth:`value_counts`), so :meth:`merge`-ing the stats of any
    partition of a packet stream yields the same aggregates as
    recording the unsplit stream, in a size set by distinct values.
    """

    def __init__(self) -> None:
        self.packets = 0
        self.dropped = 0
        self.migrations = 0
        self.total_bytes = 0
        #: Packets whose results died with a degraded shard worker
        #: (sharded replay under ``recovery="degraded"`` only); always
        #: 0 for single-core and fault-free runs.
        self.lost_packets = 0
        self._latency_counts: Counter[float] = Counter()
        self._busy_counts: defaultdict[Pipeline, Counter[float]] = (
            defaultdict(Counter)
        )

    def record(self, result: PacketResult, size_bytes: int) -> None:
        self.packets += 1
        self.total_bytes += size_bytes
        self.migrations += result.migrations
        if result.dropped:
            self.dropped += 1
        self._latency_counts[result.latency_ns] += 1
        pools = self._busy_counts
        for pipeline, busy in result.busy_ns.items():
            pools[pipeline][busy] += 1

    def record_block(
        self,
        latencies: np.ndarray,
        total_bytes: int,
        dropped: int,
        migrations: int,
        asic_busy: Optional[np.ndarray] = None,
        cpu_busy: Optional[np.ndarray] = None,
    ) -> None:
        """Record a contiguous block of packets at once.

        ``latencies`` and the busy arrays carry the per-packet values a
        sequence of :meth:`record` calls would have counted (the busy
        arrays only the packets that used that pool), so the resulting
        stats are bit-identical.
        """
        self.packets += len(latencies)
        self.total_bytes += total_bytes
        self.migrations += migrations
        self.dropped += dropped
        _count_array(self._latency_counts, latencies)
        for pipeline, busy in (
            (Pipeline.ASIC, asic_busy),
            (Pipeline.CPU, cpu_busy),
        ):
            if busy is not None and len(busy):
                _count_array(self._busy_counts[pipeline], busy)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "RunStats") -> "RunStats":
        """Fold ``other`` into this stats object (associative).

        Every aggregate is an integer sum or a function of the value
        counts, which add, so merging the stats of any split of a
        packet stream reproduces the unsplit stream's aggregates
        exactly.
        """
        self.packets += other.packets
        self.dropped += other.dropped
        self.migrations += other.migrations
        self.total_bytes += other.total_bytes
        self.lost_packets += other.lost_packets
        self._latency_counts.update(other._latency_counts)
        for pipeline, counts in other._busy_counts.items():
            self._busy_counts[pipeline].update(counts)
        return self

    # -- latency -------------------------------------------------------------

    def value_counts(
        self, pipeline: Optional[Pipeline] = None
    ) -> list[tuple[float, int]]:
        """``(value, packets)`` pairs in ascending value order: the
        per-packet latencies, or with ``pipeline`` the busy times of
        the packets that used that pool."""
        if pipeline is None:
            counts = self._latency_counts
        else:
            counts = self._busy_counts.get(pipeline, {})
        return sorted(counts.items())

    @property
    def total_latency_ns(self) -> float:
        return _exact_sum(self._latency_counts)

    @property
    def _busy_ns(self) -> dict[Pipeline, float]:
        """Per-pool busy totals (exact sums over the value counts)."""
        return {
            pipeline: _exact_sum(counts)
            for pipeline, counts in self._busy_counts.items()
        }

    @property
    def mean_latency_ns(self) -> float:
        if not self.packets:
            return 0.0
        return self.total_latency_ns / self.packets

    def percentile_latency_ns(self, percentile: float) -> float:
        counts = self._latency_counts
        if not counts:
            return 0.0
        total = counts.total()
        rank = min(
            total - 1,
            max(0, math.ceil(percentile / 100.0 * total) - 1),
        )
        for value, n in sorted(counts.items()):
            rank -= n
            if rank < 0:
                return value

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.packets if self.packets else 0.0

    @property
    def mean_packet_bytes(self) -> float:
        return self.total_bytes / self.packets if self.packets else 0.0

    def mean_busy_ns(self, pipeline: Pipeline) -> float:
        if not self.packets:
            return 0.0
        return self._busy_ns.get(pipeline, 0.0) / self.packets

    # -- throughput -------------------------------------------------------------

    def capacity_pps(self, target: TargetModel) -> float:
        """Sustainable packets/second given per-pool busy times."""
        if not self.packets:
            return 0.0
        capacities = []
        for pipeline, total_busy in self._busy_ns.items():
            mean_busy_ns = total_busy / self.packets
            if mean_busy_ns <= 0:
                continue
            cores = target.n_cores(pipeline)
            if cores <= 0:
                # Work assigned to a pool the target doesn't have: treat a
                # single borrowed core as the bottleneck.
                cores = 1
            capacities.append(cores / (mean_busy_ns * 1e-9))
        if not capacities:
            return math.inf
        return min(capacities)

    def throughput_gbps(self, target: TargetModel) -> float:
        """Offered-load processing rate in Gbps, capped at line rate."""
        if not self.packets:
            return 0.0
        pps = self.capacity_pps(target)
        if math.isinf(pps):
            return target.line_rate_gbps
        gbps = pps * self.mean_packet_bytes * 8 / 1e9
        return min(target.line_rate_gbps, gbps)

    def summary(self, target: TargetModel | None = None) -> dict[str, float]:
        data = {
            "packets": float(self.packets),
            "mean_latency_ns": self.mean_latency_ns,
            "p99_latency_ns": self.percentile_latency_ns(99.0),
            "drop_rate": self.drop_rate,
            "migrations": float(self.migrations),
        }
        if self.lost_packets:
            data["lost_packets"] = float(self.lost_packets)
        if target is not None:
            data["throughput_gbps"] = self.throughput_gbps(target)
        return data


def _count_array(counts: Counter[float], values: np.ndarray) -> None:
    """Add one count per element of ``values`` to ``counts``.

    A block of one nonzero value is counted in one pass; a NaN (equal
    to nothing), a zero (whose sign ``np.unique`` picks) or a mixed
    block goes through ``np.unique``.
    """
    if len(values):
        first = values[0]
        if first != 0 and (values == first).all():
            counts[float(first)] += len(values)
            return
    keys, hits = np.unique(values, return_counts=True)
    counts.update(dict(zip(keys.tolist(), hits.tolist())))


def _exact_sum(counts: Counter[float]) -> float:
    """The correctly rounded sum of the multiset ``counts`` holds: what
    :func:`math.fsum` returns for it in any order (unless one of its
    partial sums overflows), ``OverflowError`` where the sum rounds past
    the largest float. Non-finite values go through ``fsum`` itself."""
    if all(map(math.isfinite, counts)):
        return float(sum(Fraction(value) * n for value, n in counts.items()))
    return math.fsum(counts.elements())
