"""Tests for the traffic substrate (flows, generators, scenarios)."""

import collections

import numpy as np
import pytest

from repro.nic.packet import DEFAULT_PACKET_BYTES
from repro.traffic import (
    Scenario,
    TrafficGenerator,
    drop_rate_stream,
    synth_flow,
    synth_flows,
)
from repro.traffic.generator import zipf_guide


class TestFlows:
    def test_synth_flows_distinct(self):
        flows = synth_flows(100)
        assert len({(f.src, f.sport) for f in flows}) == 100

    def test_flow_packet_fields(self):
        flow = synth_flow(3, dport=443)
        packet = flow.packet()
        assert packet.get("l4.dport") == 443
        assert packet.get("ipv4.src") == flow.src
        assert packet.size_bytes == DEFAULT_PACKET_BYTES

    def test_with_fields(self):
        flow = synth_flow(0).with_fields(**{"ipv4.tos": 3})
        assert flow.packet().get("ipv4.tos") == 3
        # Original five-tuple untouched.
        assert flow.dport == synth_flow(0).dport


class TestGenerator:
    def test_deterministic_per_seed(self):
        flows = synth_flows(10)
        a = [
            p.flow_key()
            for p in TrafficGenerator(5).stream(flows, 50)
        ]
        b = [
            p.flow_key()
            for p in TrafficGenerator(5).stream(flows, 50)
        ]
        assert a == b

    def test_uniform_covers_flows(self):
        flows = synth_flows(5)
        keys = {
            p.flow_key()
            for p in TrafficGenerator(1).stream(flows, 300)
        }
        assert len(keys) == 5

    def test_zipf_concentrates(self):
        flows = synth_flows(50)
        generator = TrafficGenerator(2)
        counts = collections.Counter(
            p.flow_key()
            for p in generator.stream(
                flows, 1000, locality="zipf", zipf_skew=1.5
            )
        )
        top = counts.most_common(5)
        top_share = sum(c for _k, c in top) / 1000
        assert top_share > 0.5  # heavy concentration

    def test_round_robin(self):
        flows = synth_flows(3)
        packets = list(
            TrafficGenerator(0).stream(
                flows, 6, locality="round_robin"
            )
        )
        keys = [p.flow_key() for p in packets]
        assert keys[0] == keys[3]
        assert keys[1] == keys[4]

    def test_unknown_locality(self):
        with pytest.raises(ValueError):
            list(
                TrafficGenerator(0).stream(
                    synth_flows(2), 5, locality="fractal"
                )
            )

    def test_empty_flows_yields_nothing(self):
        assert list(TrafficGenerator(0).stream([], 10)) == []

    def test_mixed_stream_respects_weights(self):
        group_a = synth_flows(4, dport=1111)
        group_b = synth_flows(4, dport=2222)
        packets = list(
            TrafficGenerator(3).mixed_stream(
                [(group_a, 0.9), (group_b, 0.1)], 1000
            )
        )
        share_a = sum(
            1 for p in packets if p.get("l4.dport") == 1111
        ) / len(packets)
        assert 0.85 < share_a < 0.95

    def test_drop_rate_stream_rate(self):
        from repro.apps.microbench import DENY_PORT

        packets = list(
            drop_rate_stream(TrafficGenerator(4), 1000, 0.25)
        )
        droppable = sum(
            1 for p in packets if p.get("l4.dport") == 6666
        )
        assert 0.2 < droppable / 1000 < 0.3

    def test_drop_rate_validation(self):
        with pytest.raises(ValueError):
            list(drop_rate_stream(TrafficGenerator(0), 10, 1.5))


class TestScenario:
    def make(self):
        return (
            Scenario("s")
            .add_phase("a", 3, lambda n: [])
            .add_phase("b", 2, lambda n: [])
        )

    def test_total_duration(self):
        assert self.make().total_duration_s == 5

    def test_phase_at(self):
        scenario = self.make()
        assert scenario.phase_at(0.0).name == "a"
        assert scenario.phase_at(2.9).name == "a"
        assert scenario.phase_at(3.0).name == "b"
        assert scenario.phase_at(10.0) is None

    def test_ticks_one_per_second(self):
        ticks = list(self.make().ticks())
        assert [t for t, _p in ticks] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [p.name for _t, p in ticks] == ["a", "a", "a", "b", "b"]

    def test_empty_scenario(self):
        scenario = Scenario("empty")
        assert scenario.total_duration_s == 0
        assert scenario.phase_at(0.0) is None
        assert list(scenario.ticks()) == []

    def test_fractional_durations_tick_boundaries(self):
        # Ticks land on whole seconds; a phase owns the ticks that fall
        # strictly before its cumulative end. With 1.5s + 0.5s the
        # second phase starts mid-second, so the tick at t=2.0 is its
        # only one. The end boundary is explicit: exactly
        # total_duration_s belongs to the last real phase, not to None.
        scenario = (
            Scenario("frac")
            .add_phase("a", 1.5, lambda n: [])
            .add_phase("b", 0.5, lambda n: [])
        )
        assert scenario.total_duration_s == 2.0
        assert scenario.phase_at(1.4).name == "a"
        assert scenario.phase_at(1.5).name == "b"
        assert scenario.phase_at(2.0).name == "b"
        assert scenario.phase_at(2.0001) is None
        ticks = [(t, p.name) for t, p in scenario.ticks()]
        assert ticks == [(0.0, "a"), (1.0, "a"), (2.0, "b")]

    def test_zero_duration_phase_never_ticks(self):
        scenario = (
            Scenario("z")
            .add_phase("a", 1, lambda n: [])
            .add_phase("burst", 0, lambda n: [])
            .add_phase("b", 1, lambda n: [])
        )
        assert [p.name for _t, p in scenario.ticks()] == ["a", "b"]
        # phase_at skips the zero-length phase too: no instant belongs
        # to it.
        assert scenario.phase_at(1.0).name == "b"

    def test_control_action_passthrough(self):
        calls = []
        scenario = Scenario("c").add_phase(
            "a",
            2,
            lambda n: [f"pkt@{n}"],
            control_action=lambda cp, t: calls.append((cp, t)),
        )
        for time_s, phase in scenario.ticks():
            assert phase.stream_factory(int(time_s)) == [
                f"pkt@{int(time_s)}"
            ]
            if phase.control_action is not None:
                phase.control_action("cp", time_s)
        assert calls == [("cp", 0.0), ("cp", 1.0)]


class TestGeneratorEdges:
    def test_zipf_skew_zero_is_uniform(self):
        flows = synth_flows(8)
        counts = collections.Counter(
            p.get("ipv4.src")
            for p in TrafficGenerator(5).stream(
                flows, 4000, locality="zipf", zipf_skew=0.0
            )
        )
        assert len(counts) == 8
        # rank^0 weights are all equal: no flow should dominate.
        assert max(counts.values()) / 4000 < 0.25

    def test_zipf_high_skew_concentrates_on_top_flow(self):
        flows = synth_flows(8)
        counts = collections.Counter(
            p.get("ipv4.src")
            for p in TrafficGenerator(5).stream(
                flows, 2000, locality="zipf", zipf_skew=6.0
            )
        )
        top_share = counts[flows[0].packet().get("ipv4.src")] / 2000
        assert top_share > 0.95

    def test_single_flow_all_localities(self):
        flows = synth_flows(1)
        for locality in ("uniform", "zipf", "round_robin"):
            packets = list(
                TrafficGenerator(0).stream(flows, 10, locality=locality)
            )
            assert len(packets) == 10
            assert {p.get("ipv4.src") for p in packets} == {
                flows[0].packet().get("ipv4.src")
            }

    def test_zero_packets(self):
        assert list(TrafficGenerator(0).stream(synth_flows(4), 0)) == []

    def test_mixed_stream_skips_empty_groups(self):
        group = synth_flows(2, dport=1111)
        packets = list(
            TrafficGenerator(1).mixed_stream(
                [([], 0.9), (group, 0.1)], 50
            )
        )
        assert len(packets) == 50
        assert all(p.get("l4.dport") == 1111 for p in packets)

    def test_mixed_stream_all_groups_empty(self):
        assert list(TrafficGenerator(1).mixed_stream([([], 1.0)], 5)) == []


class TestZipfGuide:
    """The guide table draws exactly what a search of the CDF draws."""

    @pytest.mark.parametrize("skew", [0.8, 1.2])
    @pytest.mark.parametrize("n_flows", [1, 7, 1024, 20000])
    def test_equals_searchsorted(self, n_flows, skew):
        guide = zipf_guide(n_flows, skew)
        cdf = guide.cdf
        u = np.random.default_rng(n_flows).random(200_000)
        # Bucket edges (every one, or 60 000 evenly spread), the float
        # just below each, and CDF points (each inside a bucket).
        step = -(-guide.buckets // 60_000)
        edges = np.arange(0, guide.buckets, step) / guide.buckets
        below = np.nextafter(edges[1:], 0.0)
        points = cdf[cdf < 1.0][:60_000]
        probes = np.concatenate([edges, below, points])
        u[: len(probes)] = probes
        assert guide.buckets & (guide.buckets - 1) == 0
        np.testing.assert_array_equal(
            guide(u), cdf.searchsorted(u, side="right")
        )

    def test_stream_draws_the_search_would(self):
        generator = TrafficGenerator(9)
        drawn = generator.zipf_indices(5000, 4096, 1.2)
        twin = np.random.default_rng(9)
        cdf = zipf_guide(5000, 1.2).cdf
        np.testing.assert_array_equal(
            drawn, cdf.searchsorted(twin.random(4096), side="right")
        )
