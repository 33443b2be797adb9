"""Latency/throughput aggregation for emulator runs.

``RunStats`` is *mergeable*: a run can be split across shards (the
sharded replay engine partitions traffic by flow hash) and the per-shard
stats recombined with :meth:`RunStats.merge` into exactly the aggregate a
single-core run would have produced. To make that exact, order-sensitive
accumulation is avoided: totals are computed with :func:`math.fsum` over
the per-packet samples, which is correctly rounded and therefore
independent of the order packets were recorded in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    Per-packet latency and busy samples are retained; totals are derived
    with ``math.fsum`` (exactly rounded, hence permutation-invariant), so
    :meth:`merge`-ing the stats of any partition of a packet stream
    yields the same aggregates as recording the unsplit stream.
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
        self._latencies: list[float] = []
        self._busy_samples: dict[Pipeline, list[float]] = {}
        # Memoized fsum results, invalidated by packet-count change.
        self._total_cache: tuple[int, float] = (-1, 0.0)
        self._busy_cache: tuple[int, dict[Pipeline, float]] = (-1, {})

    def record(self, result: PacketResult, size_bytes: int) -> None:
        self.packets += 1
        self.total_bytes += size_bytes
        self.migrations += result.migrations
        if result.dropped:
            self.dropped += 1
        self._latencies.append(result.latency_ns)
        samples = self._busy_samples
        for pipeline, busy in result.busy_ns.items():
            bucket = samples.get(pipeline)
            if bucket is None:
                bucket = samples[pipeline] = []
            bucket.append(busy)

    def record_block(
        self,
        latencies,
        total_bytes: int,
        dropped: int,
        migrations: int,
        asic_busy=None,
        cpu_busy=None,
    ) -> None:
        """Record a contiguous block of packets at once.

        ``latencies`` and the busy sequences must carry the same
        per-packet values, in the same order, that a sequence of
        :meth:`record` calls would have appended — the lists are
        simply extended, so the resulting stats are bit-identical.
        """
        self.packets += len(latencies)
        self.total_bytes += total_bytes
        self.migrations += migrations
        self.dropped += dropped
        self._latencies.extend(latencies)
        samples = self._busy_samples
        if asic_busy is not None and len(asic_busy):
            bucket = samples.get(Pipeline.ASIC)
            if bucket is None:
                bucket = samples[Pipeline.ASIC] = []
            bucket.extend(asic_busy)
        if cpu_busy is not None and len(cpu_busy):
            bucket = samples.get(Pipeline.CPU)
            if bucket is None:
                bucket = samples[Pipeline.CPU] = []
            bucket.extend(cpu_busy)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "RunStats") -> "RunStats":
        """Fold ``other`` into this stats object (associative).

        Because every aggregate is either an integer sum or an
        ``fsum``/order-insensitive reduction over per-packet samples,
        merging the stats of any split of a packet stream reproduces
        the unsplit stream's aggregates exactly.
        """
        self.packets += other.packets
        self.dropped += other.dropped
        self.migrations += other.migrations
        self.total_bytes += other.total_bytes
        # getattr: stats pickled by an older worker may predate the field.
        self.lost_packets += getattr(other, "lost_packets", 0)
        self._latencies.extend(other._latencies)
        samples = self._busy_samples
        for pipeline, values in other._busy_samples.items():
            bucket = samples.get(pipeline)
            if bucket is None:
                samples[pipeline] = list(values)
            else:
                bucket.extend(values)
        return self

    # -- latency -------------------------------------------------------------

    @property
    def total_latency_ns(self) -> float:
        cached_at, value = self._total_cache
        if cached_at != self.packets:
            value = math.fsum(self._latencies)
            self._total_cache = (self.packets, value)
        return value

    @property
    def _busy_ns(self) -> dict[Pipeline, float]:
        """Per-pool busy totals (fsum over per-packet samples)."""
        cached_at, totals = self._busy_cache
        if cached_at != self.packets:
            totals = {
                pipeline: math.fsum(values)
                for pipeline, values in self._busy_samples.items()
            }
            self._busy_cache = (self.packets, totals)
        return totals

    @property
    def mean_latency_ns(self) -> float:
        if not self.packets:
            return 0.0
        return self.total_latency_ns / self.packets

    def percentile_latency_ns(self, percentile: float) -> float:
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        rank = min(
            len(ordered) - 1,
            max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1),
        )
        return ordered[rank]

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
