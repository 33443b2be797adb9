"""Tests for the observability subsystem (metrics, events, tracing).

Unit coverage for each collector plus the two integration contracts
that make telemetry safe to leave wired in: tracing never perturbs
replay statistics (traced and untraced runs are bit-identical on every
aggregate), and per-worker telemetry merges back into exactly what a
single collector would have recorded.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import EXAMPLE_APPS
from repro.core import Deployment
from repro.core.costmodel import CostModel
from repro.ir import exact_entry, linear_program
from repro.nic.control_plane import ControlPlane, SimClock
from repro.nic.packet import Packet, make_packet
from repro.nic.targets import EMULATED_NIC
from repro.telemetry import (
    LATENCY_BUCKETS_NS,
    PARSER_STEP,
    EventLog,
    Histogram,
    MetricsRegistry,
    PacketTracer,
    Telemetry,
    export_cache_stats,
    export_emulator,
    export_run_stats,
    export_tracer,
)
from repro.telemetry.report import format_report, measured_vs_predicted
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator


def app_packets(seed: int, n: int = 400) -> list[Packet]:
    generator = TrafficGenerator(seed)
    flows = synth_flows(48) + synth_flows(16, dport=6666)
    return list(generator.stream(flows, n, locality="zipf"))


def make_deployment(app: str = "l2l3_acl", telemetry=None) -> Deployment:
    build, install = EXAMPLE_APPS[app]
    deployment = Deployment(
        build(), EMULATED_NIC, telemetry=telemetry
    )
    install(deployment.control_plane)
    return deployment


#: Latencies as the emulator produces them (sums of scalar charges,
#: so any float), plus exact bucket edges and out-of-range values.
_OBSERVATIONS = st.one_of(
    st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    st.sampled_from(LATENCY_BUCKETS_NS),
    st.sampled_from([0.0, 1e-9, 0.1 + 0.2, 1e12]),
)


class TestHistogram:
    def test_observe_and_mean(self):
        hist = Histogram([10.0, 100.0])
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 555.0
        assert hist.mean == 185.0
        assert hist.counts == [1, 1, 1]

    def test_boundary_lands_in_le_bucket(self):
        # Prometheus `le` semantics: a value equal to a bound belongs
        # to that bound's bucket.
        hist = Histogram([10.0, 100.0])
        hist.observe(10.0)
        assert hist.counts == [1, 0, 0]

    def test_quantile_is_bucket_upper_bound(self):
        hist = Histogram([10.0, 100.0, 1000.0])
        for _ in range(90):
            hist.observe(5.0)
        for _ in range(10):
            hist.observe(500.0)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(0.99) == 1000.0
        assert hist.quantile(0.0) == 10.0

    def test_quantile_overflow_is_inf(self):
        hist = Histogram([10.0])
        hist.observe(99.0)
        assert hist.quantile(0.99) == math.inf

    def test_merge_is_elementwise(self):
        a = Histogram([10.0, 100.0])
        b = Histogram([10.0, 100.0])
        a.observe(5.0)
        b.observe(50.0)
        b.observe(5000.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == 5055.0

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            Histogram([1.0]).merge(Histogram([2.0]))

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram([10.0, 5.0])
        with pytest.raises(ValueError):
            Histogram([5.0, 5.0])

    def test_default_buckets_are_log_spaced(self):
        hist = Histogram()
        assert hist.buckets == LATENCY_BUCKETS_NS
        ratios = {
            b / a
            for a, b in zip(LATENCY_BUCKETS_NS, LATENCY_BUCKETS_NS[1:])
        }
        assert ratios == {2.0}

    @settings(max_examples=150, deadline=None)
    @given(
        first=st.lists(
            st.tuples(_OBSERVATIONS, st.integers(0, 10_000)), max_size=20
        ),
        second=st.lists(
            st.tuples(_OBSERVATIONS, st.integers(0, 10_000)), max_size=20
        ),
    )
    def test_observe_count_is_the_observe_loop(self, first, second):
        """Counts and count equal ``count`` repeated ``observe`` calls,
        also on a histogram that already holds observations, for values
        on bucket edges, below the first bucket and in the overflow
        slot; the sum adds ``value * count`` once per call."""
        looped, weighted = Histogram(), Histogram()
        expected_sum = 0.0
        for pairs in (first, second, []):
            for value, count in pairs:
                for _ in range(count):
                    looped.observe(value)
                weighted.observe(value, count)
                expected_sum += value * count
            assert weighted.counts == looped.counts
            assert weighted.count == looped.count
            assert weighted.sum == expected_sum
        assert all(type(hits) is int for hits in weighted.counts)
        assert type(weighted.sum) is float
        assert type(weighted.count) is int


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", 2.0, table="a")
        registry.inc("hits_total", 3.0, table="a")
        registry.inc("hits_total", 7.0, table="b")
        assert registry.value("hits_total", table="a") == 5.0
        assert registry.value("hits_total", table="b") == 7.0
        assert registry.value("hits_total", table="missing") == 0.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().inc("x_total", -1.0)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="counter"):
            registry.set_gauge("x", 1.0)

    def test_gauge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("temp", 1.0)
        registry.set_gauge("temp", 9.0)
        assert registry.value("temp") == 9.0

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c_total", 1.0)
        b.inc("c_total", 2.0)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 5.0)
        a.observe("h_ns", 10.0)
        b.observe("h_ns", 20.0)
        a.merge(b)
        assert a.value("c_total") == 3.0
        assert a.value("g") == 5.0  # last-observation-wins
        assert a.histogram("h_ns").count == 2
        # Merge is usable as a fresh-into-empty fold too.
        merged = MetricsRegistry().merge(a)
        assert merged.value("c_total") == 3.0

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        registry.inc("pkts_total", 3.0, help="Packets", app="demo")
        registry.set_gauge("rate", 0.5)
        registry.observe("lat_ns", 20.0, buckets=[16.0, 32.0])
        text = registry.to_prometheus()
        assert "# HELP pkts_total Packets\n" in text
        assert "# TYPE pkts_total counter\n" in text
        assert 'pkts_total{app="demo"} 3\n' in text
        assert "# TYPE rate gauge\n" in text
        assert "rate 0.5\n" in text
        assert "# TYPE lat_ns histogram\n" in text
        assert 'lat_ns_bucket{le="16"} 0\n' in text
        assert 'lat_ns_bucket{le="32"} 1\n' in text
        assert 'lat_ns_bucket{le="+Inf"} 1\n' in text
        assert "lat_ns_sum 20\n" in text
        assert "lat_ns_count 1" in text

    def test_prometheus_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (1.0, 20.0, 20.0, 999.0):
            registry.observe("h", value, buckets=[16.0, 32.0])
        lines = registry.to_prometheus().splitlines()
        buckets = [l for l in lines if l.startswith("h_bucket")]
        assert buckets == [
            'h_bucket{le="16"} 1',
            'h_bucket{le="32"} 3',
            'h_bucket{le="+Inf"} 4',
        ]

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.inc("x_total", 1.0, path='a"b\\c\nd')
        text = registry.to_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 2.0, app="x")
        registry.observe("h_ns", 5.0)
        payload = json.loads(json.dumps(registry.to_json()))
        assert payload["c_total"]["type"] == "counter"
        assert payload["c_total"]["series"][0]["value"] == 2.0
        assert payload["h_ns"]["series"][0]["count"] == 1

    def test_reset_and_names(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        assert registry.names() == ["a", "b"]
        registry.reset()
        assert len(registry) == 0
        assert registry.to_prometheus() == ""


class TestEventLog:
    def test_emit_stamps_sequence_and_clock(self):
        clock = SimClock()
        log = EventLog(clock=clock)
        first = log.emit("boot")
        clock.advance(2.5)
        second = log.emit("tick", n=7)
        assert first == {"seq": 0, "ts_s": 0.0, "kind": "boot"}
        assert second["seq"] == 1
        assert second["ts_s"] == 2.5
        assert second["n"] == 7
        assert log.emitted == 2

    def test_ring_rotates_but_emitted_total_does_not(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("e", i=i)
        assert log.emitted == 5
        assert [e["i"] for e in log.events()] == [2, 3, 4]
        assert log.last()["i"] == 4
        assert log.last("missing") is None

    def test_kind_filter(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert len(log.events("a")) == 2
        assert log.last("b")["kind"] == "b"

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.emit("x", value=1)
        log.emit("y", value=2)
        parsed = EventLog.parse_jsonl(log.to_jsonl())
        assert parsed == log.events()

    def test_file_sink_keeps_full_history(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(capacity=2, sink_path=str(path)) as log:
            for i in range(5):
                log.emit("e", i=i)
            assert len(log) == 2  # ring rotated
        on_disk = EventLog.parse_jsonl(path.read_text())
        assert [e["i"] for e in on_disk] == [0, 1, 2, 3, 4]

    def test_merge_orders_by_timestamp(self):
        mine = EventLog()
        mine.emit("late")
        mine._events[0]["ts_s"] = 5.0
        foreign = [{"seq": 0, "ts_s": 1.0, "kind": "early"}]
        mine.merge(foreign)
        assert [e["kind"] for e in mine.events()] == ["late", "early"][
            ::-1
        ]

    def test_merge_is_idempotent(self):
        # Regression: merging the same shard's log after every
        # collect() used to duplicate its entire history on each merge
        # (and never advanced `emitted`). An event already present —
        # same (ts_s, seq, source) — must be skipped.
        mine = EventLog()
        mine.emit("local")
        foreign = [
            {"seq": 0, "ts_s": 1.0, "kind": "remote", "source": "s0"},
            {"seq": 1, "ts_s": 2.0, "kind": "remote", "source": "s0"},
        ]
        mine.merge(foreign)
        assert len(mine) == 3
        assert mine.emitted == 3
        mine.merge(foreign)  # repeat merge: no duplicates
        mine.merge(list(foreign))
        assert len(mine) == 3
        assert mine.emitted == 3
        # A genuinely new event from the same source still lands.
        mine.merge(
            [{"seq": 2, "ts_s": 3.0, "kind": "remote", "source": "s0"}]
        )
        assert len(mine) == 4 and mine.emitted == 4

    def test_merge_distinguishes_sources(self):
        # Two emitters can collide on (ts_s, seq); the source stamp
        # keeps their events distinct.
        mine = EventLog()
        mine.merge([{"seq": 0, "ts_s": 0.0, "kind": "a", "source": "s0"}])
        mine.merge([{"seq": 0, "ts_s": 0.0, "kind": "b", "source": "s1"}])
        assert sorted(e["kind"] for e in mine.events()) == ["a", "b"]

    def test_source_stamped_into_emitted_events(self):
        log = EventLog(source="shard-3")
        event = log.emit("boot")
        assert event["source"] == "shard-3"
        assert EventLog().emit("boot").get("source") is None

    def test_observe_control_plane_records_mutations(self):
        program = linear_program("ev", 2)
        control_plane = ControlPlane(program, SimClock())
        log = EventLog()
        assert log.observe_control_plane(control_plane)
        # Idempotent: a second subscription is refused.
        assert not log.observe_control_plane(control_plane)
        table = program.table("ev_t0")
        action = next(iter(table.actions))
        entry_id = control_plane.insert_entry(
            "ev_t0", exact_entry(1, action)
        )
        control_plane.delete_entry("ev_t0", entry_id)
        kinds = [e["op"] for e in log.events("control_update")]
        assert kinds == ["insert", "delete"]
        assert log.events("control_update")[0]["table"] == "ev_t0"


class TestPacketTracer:
    def test_sampling_cadence_first_packet_always_sampled(self):
        tracer = PacketTracer(sample_interval=4)
        picks = [tracer.try_begin() is not None for _ in range(9)]
        assert picks == [
            True, False, False, False,
            True, False, False, False,
            True,
        ]
        assert tracer.seen == 9
        assert tracer.sampled == 3

    def test_interval_one_samples_everything(self):
        tracer = PacketTracer(sample_interval=1)
        assert all(tracer.try_begin() is not None for _ in range(5))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PacketTracer(sample_interval=0)
        with pytest.raises(ValueError):
            PacketTracer(max_traces=0)

    def test_span_latencies_sum_to_total(self):
        tracer = PacketTracer(1)
        trace = tracer.try_begin(ts_s=1.0)
        trace.enter("parser", "parser", 0.0)
        trace.enter("t0", "table", 10.0)
        trace.note("act_fwd")
        trace.enter("t1", "table", 35.0)
        tracer.finish(trace, 60.0, dropped=False, egress_port=3)
        assert trace.verdict == "forward:3"
        assert [s.latency_ns for s in trace.steps] == [10.0, 25.0, 25.0]
        assert sum(s.latency_ns for s in trace.steps) == trace.latency_ns
        assert trace.path() == ("parser", "t0", "t1")
        assert trace.steps[1].detail == "act_fwd"
        assert tracer.node_visits("t0") == 1
        assert tracer.node_mean_ns("t1") == 25.0
        assert tracer.node_total_ns("parser") == 10.0

    def test_drop_verdict(self):
        tracer = PacketTracer(1)
        trace = tracer.try_begin()
        trace.enter("t0", "table", 0.0)
        tracer.finish(trace, 5.0, dropped=True, egress_port=None)
        assert trace.verdict == "drop"
        assert trace.to_json()["steps"][0]["node"] == "t0"

    def test_merge_sums_and_interval_mismatch_raises(self):
        a, b = PacketTracer(4), PacketTracer(4)
        for tracer in (a, b):
            trace = tracer.try_begin()
            trace.enter("t0", "table", 0.0)
            tracer.finish(trace, 8.0, False, None)
            tracer.try_begin()
        a.merge(b)
        assert a.seen == 4
        assert a.sampled == 2
        assert a.node_visits("t0") == 2
        assert len(a.traces) == 2
        with pytest.raises(ValueError, match="sample intervals"):
            a.merge(PacketTracer(8))

    def test_reset_and_spawn_empty(self):
        tracer = PacketTracer(sample_interval=2, max_traces=9)
        trace = tracer.try_begin()
        tracer.finish(trace, 1.0, False, None)
        tracer.reset()
        assert (tracer.seen, tracer.sampled) == (0, 0)
        assert not tracer.traces and not tracer.node_ns
        twin = tracer.spawn_empty()
        assert twin.sample_interval == 2
        assert twin.max_traces == 9
        assert twin is not tracer


class TestTelemetryHub:
    def test_default_is_tracing_off(self):
        telemetry = Telemetry()
        assert telemetry.tracer is None
        assert not telemetry.tracing

    def test_trace_interval_enables_tracer(self):
        telemetry = Telemetry(trace_interval=8)
        assert telemetry.tracing
        assert telemetry.tracer.sample_interval == 8
        with pytest.raises(ValueError):
            Telemetry(trace_interval=-1)

    def test_events_path_opens_sink(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with Telemetry(events_path=str(path)) as telemetry:
            telemetry.events.emit("hello")
        assert EventLog.parse_jsonl(path.read_text())[0]["kind"] == (
            "hello"
        )

    def test_bind_clock_restamps_events(self):
        telemetry = Telemetry()
        clock = SimClock()
        clock.advance(4.0)
        telemetry.bind_clock(clock)
        assert telemetry.events.emit("t")["ts_s"] == 4.0


class TestExportHelpers:
    def test_export_run_stats(self):
        deployment = make_deployment()
        stats = deployment.run(app_packets(3, 200))
        registry = MetricsRegistry()
        export_run_stats(registry, stats, EMULATED_NIC, app="demo")
        assert registry.value(
            "pipeleon_packets_total", app="demo"
        ) == 200
        hist = registry.histogram(
            "pipeleon_packet_latency_ns", app="demo"
        )
        assert hist.count == 200
        assert registry.value(
            "pipeleon_throughput_gbps", app="demo"
        ) > 0

    def test_export_emulator_and_caches(self):
        deployment = make_deployment()
        deployment.run(app_packets(3, 200))
        registry = MetricsRegistry()
        export_emulator(registry, deployment.emulator)
        text = registry.to_prometheus()
        assert "pipeleon_p4_counter_packets_total" in text
        for name, cache in deployment.emulator.flow_caches.items():
            looked_up = registry.value(
                "pipeleon_cache_events_total", cache=name, event="hits"
            ) + registry.value(
                "pipeleon_cache_events_total", cache=name, event="misses"
            )
            assert looked_up == cache.stats.lookups

    def test_export_cache_stats_hit_rate_gauge(self):
        from repro.nic.flow_cache import CacheStats

        stats = CacheStats()
        stats.hits, stats.misses = 3, 1
        registry = MetricsRegistry()
        export_cache_stats(registry, "c0", stats)
        assert registry.value(
            "pipeleon_cache_hit_rate", cache="c0"
        ) == 0.75

    def test_export_tracer(self):
        tracer = PacketTracer(2)
        trace = tracer.try_begin()
        trace.enter("t0", "table", 0.0)
        tracer.finish(trace, 10.0, False, None)
        tracer.try_begin()
        registry = MetricsRegistry()
        export_tracer(registry, tracer)
        assert registry.value("pipeleon_trace_packets_seen_total") == 2
        assert registry.value(
            "pipeleon_trace_packets_sampled_total"
        ) == 1
        assert registry.histogram(
            "pipeleon_node_latency_ns", node="t0"
        ).count == 1


class TracedRunMixin:
    """Shared assertion: tracing must not perturb replay statistics."""

    @staticmethod
    def aggregates(deployment, stats):
        emulator = deployment.emulator
        return (
            stats.packets,
            stats.dropped,
            stats.total_latency_ns,
            stats.total_bytes,
            stats._busy_ns,
            emulator.counters.snapshot()
            if hasattr(emulator, "counters")
            else None,
        )


class TestTracedDeployment(TracedRunMixin):
    def test_tracing_does_not_perturb_replay(self):
        plain = make_deployment()
        traced = make_deployment(
            telemetry=Telemetry(trace_interval=16)
        )
        plain_stats = plain.replay(app_packets(5, 400))
        traced_stats = traced.replay(app_packets(5, 400))
        assert self.aggregates(plain, plain_stats) == self.aggregates(
            traced, traced_stats
        )
        tracer = traced.tracer
        assert tracer.seen == 400
        assert tracer.sampled == 25
        # Every retained trace is internally consistent.
        for trace in tracer.traces:
            assert trace.steps[0].node == PARSER_STEP
            assert trace.verdict
            assert sum(
                s.latency_ns for s in trace.steps
            ) == pytest.approx(trace.latency_ns)

    def test_interpreter_and_auto_trace_identically(self):
        """With a tracer attached ``auto`` interprets whole batches
        (demotion reason ``traced``): same samples, same spans."""
        interp = make_deployment(
            telemetry=Telemetry(trace_interval=8)
        )
        auto = make_deployment(telemetry=Telemetry(trace_interval=8))
        interp.replay(app_packets(7, 200), engine="interp")
        auto.replay(app_packets(7, 200), engine="auto")
        assert auto.emulator.columnar_demotions == {"traced": 200}
        a, b = interp.tracer, auto.tracer
        assert a.sampled == b.sampled
        assert [t.path() for t in a.traces] == [
            t.path() for t in b.traces
        ]
        assert [t.latency_ns for t in a.traces] == [
            t.latency_ns for t in b.traces
        ]
        assert {
            node: (hist.counts, hist.sum, hist.count)
            for node, hist in a.node_ns.items()
        } == {
            node: (hist.counts, hist.sum, hist.count)
            for node, hist in b.node_ns.items()
        }

    def test_attaching_tracer_recompiles_kernels(self):
        deployment = make_deployment()
        emulator = deployment.emulator
        engine = emulator.columnar
        emulator.tracer = PacketTracer(4)
        assert engine.stale()
        assert emulator.columnar is not engine
        emulator.replay(app_packets(2, 40))
        assert emulator.tracer.sampled == 10

    def test_report_joins_measured_and_predicted(self):
        telemetry = Telemetry(trace_interval=8)
        deployment = make_deployment(telemetry=telemetry)
        deployment.replay(app_packets(9, 800))
        profile = deployment.profile(offered_pps=1e6)
        model = CostModel.for_target(EMULATED_NIC)
        report = measured_vs_predicted(
            deployment.program, profile, model, telemetry.tracer
        )
        assert report.traced_packets == 100
        assert report.rows
        assert report.measured_total_ns > 0
        assert report.predicted_total_ns > 0
        measured_rows = [
            row for row in report.rows if row.traced_packets
        ]
        assert measured_rows
        for row in measured_rows:
            assert row.measured_ns > 0
            assert row.error_pct is not None
        text = format_report(report)
        assert "pipelet" in text and "error" in text
        for row in report.rows:
            assert row.pipelet_id in text
        assert "program" in text
        payload = report.to_json()
        assert len(payload["rows"]) == len(report.rows)

    def test_control_plane_mutations_land_in_event_log(self):
        telemetry = Telemetry()
        deployment = make_deployment(telemetry=telemetry)
        inserts = telemetry.events.events("control_update")
        assert inserts  # base entries were installed after wiring
        assert all(e["op"] == "insert" for e in inserts)
        deployment.control_plane.flush_caches()
        assert telemetry.events.last("control_update")["op"] == "flush"


class TestShardedTracing(TracedRunMixin):
    def test_sharded_merge_matches_single_core_aggregates(self):
        build, install = EXAMPLE_APPS["l2l3_acl"]
        sharded = Deployment(
            build(),
            EMULATED_NIC,
            jobs=2,
            telemetry=Telemetry(trace_interval=16),
        )
        try:
            install(sharded.control_plane)
            stats = sharded.replay(app_packets(11, 400))
            assert stats.packets == 400
            tracer = sharded.tracer
            assert tracer is not None
            assert tracer.seen == 400
            # Each worker samples its own shard stream's first packet,
            # so the merged sample count is >= the single-core count.
            assert tracer.sampled >= 400 // 16
            assert tracer.node_ns
            for trace in tracer.traces:
                assert trace.steps[0].node == PARSER_STEP
            registry = MetricsRegistry()
            export_tracer(registry, tracer)
            assert registry.value(
                "pipeleon_trace_packets_seen_total"
            ) == 400
        finally:
            sharded.close()

    def test_telemetry_survives_worker_collect_cycles(self):
        build, install = EXAMPLE_APPS["l2l3_acl"]
        sharded = Deployment(
            build(),
            EMULATED_NIC,
            jobs=2,
            telemetry=Telemetry(trace_interval=8),
        )
        try:
            install(sharded.control_plane)
            sharded.replay(app_packets(13, 200))
            first = sharded.tracer.seen
            sharded.replay(app_packets(14, 200))
            assert sharded.tracer.seen == first + 200
        finally:
            sharded.close()
