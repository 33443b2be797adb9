"""Property tests: merge() is exact under any split of a stream.

The sharded engine's correctness rests on one algebraic fact: for
RunStats, CounterBank and CacheStats, recording a packet stream in one
place and recording an arbitrary partition of it in k places then
merging produce identical aggregates. Hypothesis drives random streams
and random partitions at both. A fleet's profile is computed from the
pooled CounterBank (``tests/test_core_sharded.py`` pins it ``==`` one
core's), so there is no per-shard profile merge to check.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.tables import Pipeline
from repro.nic.counters import CounterBank, action_counter
from repro.nic.flow_cache import CacheStats
from repro.nic.stats import PacketResult, RunStats

# One recorded packet: latency, size, dropped, migrations, asic, cpu.
packet_samples = st.tuples(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(64, 1500),
    st.booleans(),
    st.integers(0, 3),
    st.one_of(
        st.none(),
        st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
    ),
    st.one_of(
        st.none(),
        st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),
    ),
)

streams = st.lists(packet_samples, max_size=60)


def record_stream(stats: RunStats, stream) -> RunStats:
    for latency, size, dropped, migrations, asic, cpu in stream:
        busy = {}
        if asic is not None:
            busy[Pipeline.ASIC] = asic
        if cpu is not None:
            busy[Pipeline.CPU] = cpu
        stats.record(
            PacketResult(latency, dropped, None, migrations, busy), size
        )
    return stats


def stats_fingerprint(stats: RunStats) -> tuple:
    return (
        stats.packets,
        stats.dropped,
        stats.migrations,
        stats.total_bytes,
        stats.total_latency_ns,
        stats._busy_ns,
        stats.mean_latency_ns,
        stats.value_counts(),
    )


class TestRunStatsMerge:
    @settings(max_examples=60)
    @given(
        stream=streams,
        assignment=st.lists(st.integers(0, 3), max_size=60),
    )
    def test_any_split_merges_to_whole(self, stream, assignment):
        whole = record_stream(RunStats(), stream)
        shards = [RunStats() for _ in range(4)]
        for index, sample in enumerate(stream):
            shard = (
                assignment[index] if index < len(assignment) else 0
            )
            record_stream(shards[shard], [sample])
        merged = RunStats()
        for shard in shards:
            merged.merge(shard)
        assert stats_fingerprint(merged) == stats_fingerprint(whole)

    @settings(max_examples=30)
    @given(stream=streams)
    def test_merge_is_order_independent(self, stream):
        half = len(stream) // 2
        left = record_stream(RunStats(), stream[:half])
        right = record_stream(RunStats(), stream[half:])
        forward = RunStats().merge(left).merge(right)
        backward = (
            RunStats()
            .merge(record_stream(RunStats(), stream[half:]))
            .merge(record_stream(RunStats(), stream[:half]))
        )
        # Exact sums are correctly rounded, hence permutation-invariant.
        assert forward.total_latency_ns == backward.total_latency_ns
        assert forward._busy_ns == backward._busy_ns

    def test_lost_packets_accumulate_across_merges(self):
        # Degraded-mode accounting: lost_packets is an integer sum like
        # every other aggregate.
        left, right = RunStats(), RunStats()
        left.lost_packets = 32
        right.lost_packets = 7
        merged = RunStats().merge(left).merge(right)
        assert merged.lost_packets == 39

    def test_lost_packets_in_summary_only_when_nonzero(self):
        stats = RunStats()
        assert "lost_packets" not in stats.summary()
        stats.lost_packets = 5
        assert stats.summary()["lost_packets"] == 5.0

    def test_merge_after_read_invalidates_memo(self):
        stats = record_stream(
            RunStats(), [(100.0, 512, False, 0, 10.0, None)]
        )
        assert stats.total_latency_ns == 100.0  # populate memo
        stats.merge(
            record_stream(
                RunStats(), [(50.0, 512, False, 0, None, 5.0)]
            )
        )
        assert stats.total_latency_ns == 150.0
        assert stats._busy_ns[Pipeline.ASIC] == 10.0
        assert stats._busy_ns[Pipeline.CPU] == 5.0


KEYS = [action_counter(f"t{i}", f"a{j}") for i in range(3) for j in range(2)]


class TestCounterBankMerge:
    @settings(max_examples=60)
    @given(
        bumps=st.lists(
            st.tuples(
                st.integers(0, len(KEYS) - 1), st.integers(64, 1500)
            ),
            max_size=80,
        ),
        assignment=st.lists(st.integers(0, 3), max_size=80),
    )
    def test_any_split_merges_to_whole(self, bumps, assignment):
        whole = CounterBank()
        shards = [CounterBank() for _ in range(4)]
        for index, (key_index, size) in enumerate(bumps):
            whole.begin_packet()
            whole.bump(KEYS[key_index], size)
            shard = shards[
                assignment[index] if index < len(assignment) else 0
            ]
            shard.begin_packet()
            shard.bump(KEYS[key_index], size)
        merged = CounterBank()
        for shard in shards:
            merged.merge(shard)
        assert merged.snapshot() == whole.snapshot()
        assert merged._packet_index == whole._packet_index

    def test_stride_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample stride"):
            CounterBank(1).merge(CounterBank(2))

    def test_byte_counts_merge(self):
        a, b = CounterBank(), CounterBank()
        a.bump(KEYS[0], 100)
        b.bump(KEYS[0], 200)
        a.merge(b)
        assert a._counters[KEYS[0]].bytes == 300


class TestCacheStatsMerge:
    @settings(max_examples=40)
    @given(
        parts=st.lists(
            st.tuples(*[st.integers(0, 50)] * 6), max_size=6
        )
    )
    def test_merge_sums_fields(self, parts):
        merged = CacheStats()
        for hits, misses, ins, rej, ev, inv in parts:
            merged.merge(
                CacheStats(hits, misses, ins, rej, ev, inv)
            )
        assert merged.hits == sum(p[0] for p in parts)
        assert merged.misses == sum(p[1] for p in parts)
        assert merged.insertions == sum(p[2] for p in parts)
        assert merged.rejected_insertions == sum(p[3] for p in parts)
        assert merged.evictions == sum(p[4] for p in parts)
        assert merged.invalidations == sum(p[5] for p in parts)
        assert merged.lookups == merged.hits + merged.misses
