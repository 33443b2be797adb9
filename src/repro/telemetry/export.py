"""Bridges from existing runtime stats objects into the metrics registry.

The emulator already aggregates everything worth knowing — ``RunStats``,
``CounterBank``, per-cache ``CacheStats``, the tracer's node histograms —
in its own mergeable containers. These helpers project those containers
into a :class:`~repro.telemetry.metrics.MetricsRegistry` at export time,
so the hot path never touches the registry and the Prometheus/JSON view
is a pure read-side artifact.
"""

from __future__ import annotations

from typing import Optional

from repro.nic.flow_cache import CacheStats
from repro.nic.stats import RunStats
from repro.nic.targets import TargetModel
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import PacketTracer


def export_run_stats(
    registry: MetricsRegistry,
    stats: RunStats,
    target: Optional[TargetModel] = None,
    **labels: object,
) -> None:
    """Project a replay's RunStats into counters/gauges/histograms."""
    registry.inc(
        "pipeleon_packets_total",
        stats.packets,
        help="Packets processed by the emulator",
        **labels,
    )
    registry.inc(
        "pipeleon_packets_dropped_total",
        stats.dropped,
        help="Packets dropped by the program",
        **labels,
    )
    registry.inc(
        "pipeleon_migrations_total",
        stats.migrations,
        help="ASIC<->CPU pipeline migrations",
        **labels,
    )
    registry.inc(
        "pipeleon_bytes_total",
        stats.total_bytes,
        help="Bytes processed by the emulator",
        **labels,
    )
    hist = registry.histogram(
        "pipeleon_packet_latency_ns",
        help="Per-packet end-to-end latency (ns)",
        **labels,
    )
    for latency, packets in stats.value_counts():
        hist.observe(latency, packets)
    registry.set_gauge(
        "pipeleon_mean_latency_ns",
        stats.mean_latency_ns,
        help="Mean per-packet latency (ns)",
        **labels,
    )
    if target is not None:
        registry.set_gauge(
            "pipeleon_throughput_gbps",
            stats.throughput_gbps(target),
            help="Modelled sustainable throughput (Gbps)",
            **labels,
        )


def export_counter_bank(registry: MetricsRegistry, bank) -> None:
    """Project the emulator's P4 counters (sampling-corrected)."""
    for key, packets in bank.snapshot().items():
        kind, name, detail = (
            key if len(key) == 3 else (key[0], key[1], "")
        )
        registry.inc(
            "pipeleon_p4_counter_packets_total",
            packets,
            help="P4 instrumentation counters (sampling-corrected)",
            kind=kind,
            node=name,
            detail=detail,
        )


def export_cache_stats(
    registry: MetricsRegistry, cache: str, stats: CacheStats
) -> None:
    """Project one flow cache's hit/miss/churn stats."""
    for field, value in (
        ("hits", stats.hits),
        ("misses", stats.misses),
        ("insertions", stats.insertions),
        ("rejected_insertions", stats.rejected_insertions),
        ("evictions", stats.evictions),
        ("invalidations", stats.invalidations),
    ):
        registry.inc(
            "pipeleon_cache_events_total",
            value,
            help="Flow-cache lifecycle events",
            cache=cache,
            event=field,
        )
    registry.set_gauge(
        "pipeleon_cache_hit_rate",
        stats.hit_rate,
        help="Flow-cache hit rate over the run",
        cache=cache,
    )


def export_tracer(registry: MetricsRegistry, tracer: PacketTracer) -> None:
    """Project the tracer's sampling counters and node histograms."""
    registry.inc(
        "pipeleon_trace_packets_seen_total",
        tracer.seen,
        help="Packets considered by the trace sampler",
    )
    registry.inc(
        "pipeleon_trace_packets_sampled_total",
        tracer.sampled,
        help="Packets actually traced (1-in-N)",
    )
    registry.set_gauge(
        "pipeleon_trace_sample_interval",
        tracer.sample_interval,
        help="Trace sampling interval N",
    )
    for node, hist in tracer.node_ns.items():
        registry.histogram(
            "pipeleon_node_latency_ns",
            help="Traced per-node latency (ns)",
            buckets=hist.buckets,
            node=node,
        ).merge(hist)


def export_columnar(
    registry: MetricsRegistry, emulator, **labels: object
) -> None:
    """Project the columnar tier's demotion/retirement accounting.

    Called at export time with the emulator (one core, or the sharded
    merge: same attribute names) that owns the cumulative counts — the
    hot path never touches the registry.
    """
    for reason, count in sorted(emulator.columnar_demotions.items()):
        registry.inc(
            "pipeleon_columnar_demotions_total",
            count,
            help=(
                "Packets the columnar tier demoted to the "
                "interpreter, by reason"
            ),
            reason=reason,
            **labels,
        )
    registry.inc(
        "pipeleon_columnar_packets_total",
        emulator.columnar_packets,
        help="Packets fully retired by the columnar batch kernels",
        **labels,
    )
    registry.inc(
        "pipeleon_columnar_partitions_total",
        emulator.columnar_partitions,
        help=(
            "Flow-key partitions the batch kernels resolved (one "
            "table lookup each); partitions/packets near 1 means the "
            "partition-count bottleneck has eaten the batch win"
        ),
        **labels,
    )
    for table, count in sorted(emulator.columnar_scalar_lookups.items()):
        registry.inc(
            "pipeleon_columnar_scalar_lookups_total",
            count,
            help=(
                "Unique key rows a table resolved one MatchEngine.lookup "
                "at a time (its entries have no exact int64 array form)"
            ),
            table=table,
            **labels,
        )
    for metric, counts, what in (
        (
            "pipeleon_columnar_cache_arrivals_total",
            emulator.columnar_cache_arrivals,
            "Packets that arrived at a cache step",
        ),
        (
            "pipeleon_columnar_cache_replayed_total",
            emulator.columnar_cache_replayed,
            "Packets a cache step replayed one by one, in order (their "
            "key was absent or within an eviction's reach)",
        ),
    ):
        for cache, count in sorted(counts.items()):
            registry.inc(metric, count, help=what, cache=cache, **labels)
    for metric, counts, what in (
        (
            "pipeleon_columnar_memo_hits_total",
            emulator.columnar_memo_hits,
            "Packets whose plan (match node) or cache slot (cache step) "
            "the node's flow memo served",
        ),
        (
            "pipeleon_columnar_memo_misses_total",
            emulator.columnar_memo_misses,
            "Packets whose plan or cache slot the node had to resolve "
            "(no flow set, a row not memoised yet, or a stale one)",
        ),
        (
            "pipeleon_columnar_memo_guard_failures_total",
            emulator.columnar_memo_guard_failures,
            "Packets whose key was not the row their flow's headers "
            "give (a field was written upstream)",
        ),
    ):
        for node, count in sorted(counts.items()):
            registry.inc(metric, count, help=what, node=node, **labels)


def export_event_log(registry: MetricsRegistry, events) -> None:
    """Project an EventLog's bookkeeping counters.

    Ring rotation used to be silent: ``emitted`` kept counting while
    old events fell off the deque, and a dead JSONL sink swallowed
    writes without a trace. Both are now first-class series so a scrape
    can alarm on history loss.
    """
    registry.inc(
        "pipeleon_events_emitted_total",
        events.emitted,
        help="Structured events ever emitted",
    )
    registry.inc(
        "pipeleon_events_dropped_total",
        events.dropped,
        help="Events that fell off the bounded in-memory ring",
    )
    registry.inc(
        "pipeleon_event_sink_failures_total",
        events.sink_failures,
        help="Event JSONL sink writes that failed",
    )


def export_emulator(registry: MetricsRegistry, emulator) -> None:
    """Project an emulator's counters and cache stats (one core's
    own, or a shard fleet's merged view as of its last collection)."""
    export_counter_bank(registry, emulator.counters)
    for name, stats in emulator.cache_stats.items():
        export_cache_stats(registry, name, stats)
    if emulator.native_cache_stats is not None:
        export_cache_stats(
            registry, "__native__", emulator.native_cache_stats
        )
    export_columnar(registry, emulator)
