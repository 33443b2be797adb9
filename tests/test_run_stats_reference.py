"""``RunStats`` against the per-packet lists it replaced.

``ListRunStats`` is that implementation, kept here as the model: one
list entry per packet per series, totals by :func:`math.fsum` over the
lists and the percentile by rank in the sorted list. ``RunStats`` keeps
value -> count maps instead. A hypothesis test draws float multisets
(subnormals, magnitudes up to the largest float, repeated values, ±0.0,
packets on the ASIC pool, the CPU pool, both or neither), records them
into ``RunStats`` split into parts merged in any order, and checks
every aggregate against the unsplit list reference to the last bit,
including the exception where ``fsum`` raises one.

The per-packet *order* checks of the columnar tier against the
interpreter (``tests/test_columnar.py``,
``tests/test_fastpath_midstream.py``) record both sides into
``ListRunStats``.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.tables import Pipeline
from repro.nic.stats import PacketResult, RunStats
from repro.nic.targets import AGILIO_CX, BLUEFIELD2, EMULATED_NIC
from repro.service.session import stats_payload


class ListRunStats(RunStats):
    """Per-packet latency and busy lists; totals are ``fsum``s over them.
    ``latencies`` is the list itself, in record order.

    The throughput model, the means and ``summary`` are
    ``RunStats``' own: they read only the totals and the percentile,
    which this class overrides.
    """

    def __init__(self) -> None:
        super().__init__()
        self.latencies: list[float] = []
        self._busy_samples: dict[Pipeline, list[float]] = {}

    def record(self, result: PacketResult, size_bytes: int) -> None:
        self.packets += 1
        self.total_bytes += size_bytes
        self.migrations += result.migrations
        if result.dropped:
            self.dropped += 1
        self.latencies.append(result.latency_ns)
        for pipeline, busy in result.busy_ns.items():
            self._busy_samples.setdefault(pipeline, []).append(busy)

    def record_block(
        self,
        latencies: np.ndarray,
        total_bytes: int,
        dropped: int,
        migrations: int,
        asic_busy: Optional[np.ndarray] = None,
        cpu_busy: Optional[np.ndarray] = None,
    ) -> None:
        self.packets += len(latencies)
        self.total_bytes += total_bytes
        self.migrations += migrations
        self.dropped += dropped
        self.latencies.extend(latencies.tolist())
        for pipeline, busy in (
            (Pipeline.ASIC, asic_busy),
            (Pipeline.CPU, cpu_busy),
        ):
            if busy is not None and len(busy):
                self._busy_samples.setdefault(pipeline, []).extend(
                    busy.tolist()
                )

    def merge(self, other: "ListRunStats") -> "ListRunStats":
        self.packets += other.packets
        self.dropped += other.dropped
        self.migrations += other.migrations
        self.total_bytes += other.total_bytes
        self.lost_packets += other.lost_packets
        self.latencies.extend(other.latencies)
        for pipeline, values in other._busy_samples.items():
            self._busy_samples.setdefault(pipeline, []).extend(values)
        return self

    def value_counts(
        self, pipeline: Optional[Pipeline] = None
    ) -> list[tuple[float, int]]:
        if pipeline is None:
            values = self.latencies
        else:
            values = self._busy_samples.get(pipeline, [])
        return sorted(Counter(values).items())

    @property
    def total_latency_ns(self) -> float:
        return math.fsum(self.latencies)

    @property
    def _busy_ns(self) -> dict[Pipeline, float]:
        return {
            pipeline: math.fsum(values)
            for pipeline, values in self._busy_samples.items()
        }

    def percentile_latency_ns(self, percentile: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(
            len(ordered) - 1,
            max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1),
        )
        return ordered[rank]


TARGETS = (BLUEFIELD2, AGILIO_CX, EMULATED_NIC)
LARGEST = 1.7976931348623157e308
SPECIAL = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0]

#: Signed values: at most 1e300 in magnitude, so no sum of a few
#: hundred of them can overflow and ``fsum`` never raises.
signed_values = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from(SPECIAL + [-v for v in SPECIAL] + [1e300, -1e300]),
)
#: Non-negative values up to the largest float: sums overflow, and
#: ``fsum`` raises for the list in any order exactly when the rounded
#: sum overflows.
huge_values = st.one_of(
    st.floats(0.0, LARGEST),
    st.sampled_from(SPECIAL + [LARGEST, LARGEST / 2, 1e308]),
)


@st.composite
def partitioned_streams(draw):
    """A packet stream over a few distinct values, a split of it into
    parts, the order the parts merge in and how each is recorded."""
    values = draw(
        st.lists(
            st.one_of(signed_values, huge_values)
            if draw(st.booleans())
            else signed_values,
            min_size=1,
            max_size=6,
        )
    )
    if 0.0 in values:
        # One sign of zero per draw: with both, the list reference's
        # own percentile sign depends on record order (``sorted``
        # keeps equal keys in record order). See
        # ``test_zeros_of_both_signs_compare_equal``.
        zero = draw(st.sampled_from([0.0, -0.0]))
        values = [zero if v == 0.0 else v for v in values]
    pick = st.integers(0, len(values) - 1)
    busy = st.one_of(st.none(), pick)
    stream = draw(
        st.lists(
            st.tuples(
                pick, busy, busy, st.integers(64, 1500), st.booleans()
            ),
            max_size=80,
        )
    )
    packets = [
        (
            values[lat],
            None if asic is None else values[asic],
            None if cpu is None else values[cpu],
            size,
            dropped,
        )
        for lat, asic, cpu, size, dropped in stream
    ]
    parts = draw(st.integers(1, 4))
    owner = draw(
        st.lists(
            st.integers(0, parts - 1),
            min_size=len(packets),
            max_size=len(packets),
        )
    )
    order = draw(st.permutations(range(parts)))
    blocks = draw(
        st.lists(st.booleans(), min_size=parts, max_size=parts)
    )
    return packets, owner, order, blocks


def result(latency, asic, cpu, dropped) -> PacketResult:
    busy = {}
    if asic is not None:
        busy[Pipeline.ASIC] = asic
    if cpu is not None:
        busy[Pipeline.CPU] = cpu
    return PacketResult(latency, dropped, None, 0, busy)


def record(stats: RunStats, packets, block: bool) -> RunStats:
    """Record ``packets`` one by one, or as one columnar block."""
    if not block:
        for latency, asic, cpu, size, dropped in packets:
            stats.record(result(latency, asic, cpu, dropped), size)
        return stats
    stats.record_block(
        np.array([p[0] for p in packets], dtype=float),
        sum(p[3] for p in packets),
        sum(p[4] for p in packets),
        0,
        np.array([p[1] for p in packets if p[1] is not None], dtype=float),
        np.array([p[2] for p in packets if p[2] is not None], dtype=float),
    )
    return stats


def outcome(read):
    """``read()`` to the last bit, or the type of what it raised (a
    subnormal mean busy time makes ``capacity_pps`` divide by zero)."""
    try:
        value = read()
    except (OverflowError, ValueError, ZeroDivisionError) as error:
        return type(error)
    return repr(value)


def aggregates(stats: RunStats) -> dict:
    reads = {
        "total_latency_ns": lambda: stats.total_latency_ns,
        "mean_latency_ns": lambda: stats.mean_latency_ns,
        "summary": stats.summary,
        "fingerprint": lambda: stats_payload(stats)["fingerprint"],
        "value_counts": stats.value_counts,
    }
    for percentile in (0.0, 50.0, 99.0, 100.0):
        reads[f"p{percentile}"] = (
            lambda p=percentile: stats.percentile_latency_ns(p)
        )
    for pool in Pipeline:
        reads[f"mean_busy_ns/{pool}"] = (
            lambda pool=pool: stats.mean_busy_ns(pool)
        )
        reads[f"value_counts/{pool}"] = (
            lambda pool=pool: stats.value_counts(pool)
        )
    for target in TARGETS:
        reads[f"capacity_pps/{target.name}"] = (
            lambda t=target: stats.capacity_pps(t)
        )
        reads[f"throughput_gbps/{target.name}"] = (
            lambda t=target: stats.throughput_gbps(t)
        )
        reads[f"summary/{target.name}"] = (
            lambda t=target: stats.summary(t)
        )
    return {name: outcome(read) for name, read in reads.items()}


class TestAgainstListReference:
    @settings(max_examples=300, deadline=None)
    @given(case=partitioned_streams())
    def test_any_split_and_merge_order_is_the_list(self, case):
        packets, owner, order, blocks = case
        reference = record(ListRunStats(), packets, block=False)
        parts = [
            record(
                RunStats(),
                [p for p, o in zip(packets, owner) if o == part],
                blocks[part],
            )
            for part in range(len(blocks))
        ]
        merged = RunStats()
        for part in order:
            merged.merge(parts[part])
        assert aggregates(merged) == aggregates(reference)

    def test_overflow_raises_like_fsum(self):
        stats = record(
            RunStats(), [(LARGEST, LARGEST, None, 64, False)] * 2, False
        )
        with pytest.raises(OverflowError):
            math.fsum([LARGEST] * 2)
        with pytest.raises(OverflowError):
            stats.total_latency_ns
        with pytest.raises(OverflowError):
            stats.capacity_pps(BLUEFIELD2)

    def test_non_finite_values_go_through_fsum(self):
        inf = math.inf

        def latencies(*values) -> RunStats:
            packets = [(v, None, None, 64, False) for v in values]
            return record(RunStats(), packets, block=False)

        assert latencies(1.0, inf, inf).total_latency_ns == inf
        assert latencies(-inf, 2.0).total_latency_ns == -inf
        assert math.isnan(latencies(math.nan, 1.0).total_latency_ns)
        with pytest.raises(ValueError):
            math.fsum([inf, -inf])
        with pytest.raises(ValueError):
            latencies(inf, -inf).total_latency_ns

    def test_zeros_of_both_signs_compare_equal(self):
        """``sorted`` ranks 0.0 and -0.0 as equals, so the list's
        percentile returns whichever was recorded first among them,
        and merging in another order changes its sign. Counts keep one
        zero key: the percentile equals the list's by value, and every
        sum is +0.0 like ``fsum``'s."""
        packets = [(z, z, None, 64, False) for z in (-0.0, 0.0, -0.0)]
        stats = record(RunStats(), packets, block=False)
        reference = record(ListRunStats(), packets, block=False)
        for percentile in (0.0, 50.0, 100.0):
            assert stats.percentile_latency_ns(
                percentile
            ) == reference.percentile_latency_ns(percentile)
        assert repr(stats.total_latency_ns) == "0.0"
        assert repr(reference.total_latency_ns) == "0.0"
        assert stats._busy_ns == reference._busy_ns


class TestConstantBlocks:
    """``record_block`` counts a block of one value in one pass; a
    block of zeros or NaNs still goes through ``np.unique``. Each must
    read like the list reference fed the same packets one by one."""

    @pytest.mark.parametrize(
        "value", [812.5, -0.0, 0.0, math.nan, math.inf], ids=repr
    )
    def test_block_of_one_value_is_the_list(self, value):
        packets = [(value, value, value, 64, False)] * 5
        block = record(RunStats(), packets, block=True)
        reference = record(ListRunStats(), packets, block=False)
        assert aggregates(block) == aggregates(reference)

    def test_constant_block_adds_to_earlier_counts(self):
        stats = record(RunStats(), [(7.0, None, None, 64, False)], False)
        record(stats, [(7.0, 7.0, None, 64, False)] * 3, block=True)
        assert stats.value_counts() == [(7.0, 4)]
        assert stats.value_counts(Pipeline.ASIC) == [(7.0, 3)]


class TestPickleSize:
    """The stats' size is the number of distinct values, not of
    packets: a replay 10 or 100 times longer pickles to the same length
    but for its counts' wider ints (a per-packet list would grow by
    ~9 bytes a packet)."""

    SLACK = 32

    VALUES = np.array([812.5, 1024.0, 3071.25])

    def recorded(self, packets: int) -> RunStats:
        stats = RunStats()
        values = np.resize(self.VALUES, packets)
        stats.record_block(values, 64 * packets, 0, 0, values, values[::2])
        return stats

    def test_one_core_stats(self):
        small = len(pickle.dumps(self.recorded(10_000)))
        large = len(pickle.dumps(self.recorded(1_000_000)))
        assert abs(large - small) <= self.SLACK, (small, large)

    def test_fleet_merged_stats(self):
        from repro.apps import l2l3_acl
        from repro.core import Deployment
        from repro.traffic import TrafficGenerator, synth_flows

        fleet = Deployment(
            l2l3_acl.build_program(), BLUEFIELD2, jobs=2, batch=512
        )
        l2l3_acl.install_base_entries(fleet.control_plane)
        sizes = []
        try:
            for packets in (2_000, 20_000):
                stats = fleet.replay(
                    TrafficGenerator(3).stream(synth_flows(64), packets)
                )
                assert stats.packets == packets
                sizes.append(len(pickle.dumps(stats)))
        finally:
            fleet.close()
        assert abs(sizes[1] - sizes[0]) <= self.SLACK, sizes
