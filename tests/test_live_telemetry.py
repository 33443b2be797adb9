"""Live telemetry plane: streaming snapshots, flight recorder, SLOs.

The contract under test (DESIGN.md §16): a running sharded replay is
observable *while it runs* —

* shard workers stream snapshots over per-shard sidecar pipes, merged
  by a background :class:`LiveAggregator` into flight-recorder rows and
  a scrapeable metrics registry;
* the ``/metrics`` endpoint serves strictly conformant Prometheus
  exposition text mid-replay, and the live packet counters converge
  exactly to the final summary once the forced end-of-replay snapshot
  lands;
* under the deterministic packet-count cadence, per-shard rows are a
  pure function of the traffic — bit-stable across runs once
  :meth:`FlightRecorder.canonical` strips wall clocks;
* a worker kill under the respawn policy produces exactly one
  ``slo_breach`` and one ``slo_clear`` heartbeat episode (latched, not
  per-interval), deterministically — the respawn counter, not a wall
  clock, witnesses the death;
* an SLO breach schedules an immediate controller re-optimization.
"""

import json
import re
import time
import urllib.request

import pytest

from repro.apps import l2l3_acl
from repro.cli import main
from repro.core import Deployment
from repro.nic.emulator import DEFAULT_BATCH
from repro.nic.faults import AUTO_PACKET_SPAN, FaultPlan, FaultSpec
from repro.nic.sharding import SupervisorOptions
from repro.nic.targets import EMULATED_NIC
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.export import export_event_log
from repro.telemetry.live import (
    LiveAggregator,
    LiveOptions,
    LivePlane,
    MetricsServer,
    render_top,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import (
    SloRule,
    SloWatchdog,
    load_slo_rules,
)
from repro.telemetry.timeseries import WALL_FIELDS, FlightRecorder
from tests.test_nic_sharding import app_packets

pytestmark = pytest.mark.tier1


def make_live(
    n_workers: int = 2,
    live: LiveOptions = None,
    fault_plan=None,
    supervisor=None,
    telemetry=None,
    batch: int = DEFAULT_BATCH,
) -> Deployment:
    """A fleet adopted into its own started plane (``.live_plane``);
    tear both down with :func:`close_live`."""
    plane = LivePlane(live, telemetry=telemetry).start()
    sharded = Deployment(
        l2l3_acl.build_program(),
        EMULATED_NIC,
        jobs=n_workers,
        live_plane=plane,
        fault_plan=fault_plan,
        supervisor=supervisor,
        telemetry=telemetry,
        batch=batch,
    )
    l2l3_acl.install_base_entries(sharded.control_plane)
    return sharded


def close_live(sharded: Deployment) -> None:
    try:
        sharded.close()
    finally:
        sharded.live_plane.stop()


def wait_for(predicate, timeout_s: float = 5.0, tick_s: float = 0.01):
    """Poll ``predicate`` until truthy; the aggregator is a thread."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(tick_s)
    return predicate()


# ---------------------------------------------------------------------------
# Prometheus exposition conformance (satellite: scrape format)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{([^}]*)\})?"  # optional label set
    r" (-?(?:[0-9.e+-]+|\+Inf|-Inf|NaN))$"  # value
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str):
    """Strictly parse Prometheus text format 0.0.4.

    Returns ``(types, samples)`` where ``types`` maps family name ->
    declared type and ``samples`` is a list of
    ``(name, labels_dict, value)``. Asserts structural conformance on
    the way: HELP/TYPE declared exactly once per family, HELP before
    TYPE before that family's samples, no undeclared samples, and no
    unparseable lines.
    """
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    sampled: set[str] = set()
    samples = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in helps, f"duplicate HELP for {name}"
            assert name not in sampled, f"HELP after samples for {name}"
            assert help_text, f"empty HELP for {name}"
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name not in types, f"duplicate TYPE for {name}"
            assert name in helps, f"TYPE before HELP for {name}"
            assert name not in sampled, f"TYPE after samples for {name}"
            assert kind in {"counter", "gauge", "histogram", "summary"}
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, labels_text, value = match.groups()
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        declared = name if name in types else family
        assert declared in types, f"sample {name} has no TYPE"
        if name != declared:
            assert types[declared] == "histogram", (
                f"{name}: _bucket/_sum/_count on non-histogram family"
            )
        sampled.add(declared)
        labels = dict(_LABEL_RE.findall(labels_text or ""))
        samples.append((name, labels, float(value)))
    return types, samples


def check_histograms(types: dict, samples: list) -> int:
    """Conformance of every histogram family; returns series checked.

    Cumulative buckets must be monotone non-decreasing, end at
    ``le="+Inf"``, and agree with the family's ``_count``; ``_sum``
    must exist for every series.
    """
    checked = 0
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series: dict[tuple, dict] = {}
        for name, labels, value in samples:
            if not name.startswith(family):
                continue
            suffix = name[len(family):]
            key = tuple(
                sorted(
                    (k, v) for k, v in labels.items() if k != "le"
                )
            )
            record = series.setdefault(
                key, {"buckets": [], "sum": None, "count": None}
            )
            if suffix == "_bucket":
                record["buckets"].append((labels["le"], value))
            elif suffix == "_sum":
                record["sum"] = value
            elif suffix == "_count":
                record["count"] = value
        assert series, f"histogram family {family} has no samples"
        for key, record in series.items():
            buckets = record["buckets"]
            assert buckets, f"{family}{dict(key)}: no buckets"
            assert buckets[-1][0] == "+Inf", (
                f"{family}{dict(key)}: buckets must end at le=+Inf"
            )
            counts = [value for _, value in buckets]
            assert counts == sorted(counts), (
                f"{family}{dict(key)}: cumulative buckets not monotone"
            )
            bounds = [float(le) for le, _ in buckets[:-1]]
            assert bounds == sorted(bounds), (
                f"{family}{dict(key)}: bucket bounds out of order"
            )
            assert record["count"] == counts[-1], (
                f"{family}{dict(key)}: _count != +Inf bucket"
            )
            assert record["sum"] is not None, (
                f"{family}{dict(key)}: missing _sum"
            )
            checked += 1
    return checked


class TestPrometheusConformance:
    def test_live_exposition_is_conformant(self):
        """A real live replay's scrape passes the strict parser."""
        sharded = make_live(
            n_workers=2, live=LiveOptions(every_packets=64)
        )
        try:
            sharded.replay(app_packets(3, 600))
            # Every worker's forced end-of-replay snapshot is in its
            # sidecar pipe by now: flush, don't poll for the first one.
            aggregator = sharded.live_plane.aggregator
            aggregator.flush()
            text = aggregator.prometheus()
        finally:
            close_live(sharded)
        types, samples = parse_exposition(text)
        assert types["pipeleon_live_packets_total"] == "counter"
        assert types["pipeleon_live_worker_alive"] == "gauge"
        assert types["pipeleon_live_latency_ns"] == "histogram"
        assert types["pipeleon_events_dropped_total"] == "counter"
        assert check_histograms(types, samples) >= 2  # one per shard
        shards = {
            labels["shard"]
            for name, labels, _ in samples
            if name == "pipeleon_live_packets_total"
        }
        assert shards == {"0", "1"}

    def test_batch_registry_also_conformant(self):
        """The parser generalises: PR 3's batch export passes too."""
        registry = MetricsRegistry()
        registry.inc("x_total", 3.0, help="X", job="a")
        hist = registry.histogram("lat_ns", help="Latency")
        for value in (10, 100, 1000):
            hist.observe(value)
        types, samples = parse_exposition(registry.to_prometheus())
        assert check_histograms(types, samples) == 1


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_window_rotation_counts_dropped(self):
        recorder = FlightRecorder(window=3)
        for i in range(5):
            recorder.append({"kind": "interval", "i": i})
        assert recorder.appended == 5
        assert len(recorder) == 3
        assert recorder.dropped == 2
        assert [r["i"] for r in recorder.rows()] == [2, 3, 4]
        # The monotone row stamp survives rotation.
        assert [r["row"] for r in recorder.rows()] == [2, 3, 4]

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            FlightRecorder(window=0)

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        with FlightRecorder(window=2, sink_path=str(path)) as recorder:
            for i in range(4):
                recorder.append({"kind": "shard", "i": i})
        rows = FlightRecorder.parse_jsonl(path.read_text())
        # The sink keeps the full history even after the window rotates.
        assert [r["i"] for r in rows] == [0, 1, 2, 3]
        assert [r["row"] for r in rows] == [0, 1, 2, 3]

    def test_sink_failures_counted_not_raised(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(sink_path=str(path))
        recorder._sink.close()  # simulate a revoked fd
        recorder.append({"kind": "interval"})
        recorder.append({"kind": "interval"})
        assert recorder.appended == 2  # rows still recorded in-memory
        assert recorder.sink_failures == 2
        recorder._sink = None  # already closed; skip double-close

    def test_strip_wall_recurses(self):
        row = {
            "kind": "interval",
            "wall_s": 1.0,
            "packets": 7,
            "shards": [{"shard": 0, "age_s": 0.2, "packets": 7}],
        }
        stripped = FlightRecorder.strip_wall(row)
        assert stripped == {
            "kind": "interval",
            "packets": 7,
            "shards": [{"shard": 0, "packets": 7}],
        }
        assert "wall_s" in row  # original untouched

    def test_canonical_orders_and_drops_row_stamp(self):
        rows = [
            {"kind": "shard", "shard": 1, "seq": 0, "row": 0,
             "mono_s": 0.1, "packets": 5},
            {"kind": "shard", "shard": 0, "seq": 1, "row": 1,
             "mono_s": 0.2, "packets": 9},
            {"kind": "shard", "shard": 0, "seq": 0, "row": 2,
             "mono_s": 0.3, "packets": 4},
        ]
        canonical = FlightRecorder.canonical(rows)
        assert canonical == [
            {"kind": "shard", "shard": 0, "seq": 0, "packets": 4},
            {"kind": "shard", "shard": 0, "seq": 1, "packets": 9},
            {"kind": "shard", "shard": 1, "seq": 0, "packets": 5},
        ]

    def test_last_filters_by_kind(self):
        recorder = FlightRecorder()
        recorder.append({"kind": "shard", "seq": 0})
        recorder.append({"kind": "interval", "packets": 3})
        assert recorder.last("shard")["seq"] == 0
        assert recorder.last("interval")["packets"] == 3
        assert recorder.last("missing") is None


# ---------------------------------------------------------------------------
# SLO rules and watchdog
# ---------------------------------------------------------------------------


class TestSloRule:
    def test_auto_name_and_bound(self):
        rule = SloRule(metric="p99_latency_ns", max=1000.0)
        assert rule.name == "p99_latency_ns_max"
        assert rule.bound == 1000.0
        assert not rule.per_shard
        floor = SloRule(metric="cache_hit_rate", min=0.5)
        assert floor.name == "cache_hit_rate_min"

    def test_violated_semantics(self):
        ceiling = SloRule(metric="ring_stall_rate", max=0.05)
        assert ceiling.violated(0.06)
        assert not ceiling.violated(0.05)  # bound itself holds
        assert not ceiling.violated(None)  # no data holds
        floor = SloRule(metric="cache_hit_rate", min=0.9)
        assert floor.violated(0.5)
        assert not floor.violated(0.95)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="Unknown SLO metric"):
            SloRule(metric="cpu_temperature", max=1.0)

    def test_exactly_one_bound_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            SloRule(metric="cache_hit_rate")
        with pytest.raises(ValueError, match="exactly one"):
            SloRule(metric="cache_hit_rate", max=1.0, min=0.0)

    def test_json_round_trip(self):
        rule = SloRule(metric="heartbeat_staleness_s", max=2.0)
        assert SloRule.from_json(rule.to_json()) == rule
        with pytest.raises(ValueError, match="Unknown SLO rule keys"):
            SloRule.from_json({"metric": "cache_hit_rate", "ceil": 1})

    def test_load_rules_file_forms(self, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(
            json.dumps([{"metric": "p99_latency_ns", "max": 5000.0}])
        )
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(
            json.dumps(
                {"rules": [{"metric": "cache_hit_rate", "min": 0.5}]}
            )
        )
        assert load_slo_rules(str(bare))[0].metric == "p99_latency_ns"
        assert load_slo_rules(str(wrapped))[0].min == 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        assert load_slo_rules(str(bad)) == ()
        notalist = tmp_path / "notalist.json"
        notalist.write_text(json.dumps("rules"))
        with pytest.raises(ValueError, match="expected a rule list"):
            load_slo_rules(str(notalist))


class TestSloWatchdog:
    def test_breaches_latch_into_episodes(self):
        events = EventLog()
        watchdog = SloWatchdog(
            [SloRule(metric="p99_latency_ns", max=100.0)], events=events
        )
        # Three breaching samples, then two healthy ones: one episode.
        for value in (150.0, 200.0, 300.0):
            watchdog.evaluate({"p99_latency_ns": value})
        assert watchdog.breaches == 1
        assert watchdog.active_breaches == ["p99_latency_ns_max"]
        for value in (50.0, 40.0):
            watchdog.evaluate({"p99_latency_ns": value})
        assert (watchdog.breaches, watchdog.clears) == (1, 1)
        assert watchdog.active_breaches == []
        kinds = [e["kind"] for e in events.events()]
        assert kinds == ["slo_breach", "slo_clear"]
        assert events.events("slo_breach")[0]["value"] == 150.0

    def test_per_shard_rule_uses_forced_stale(self):
        watchdog = SloWatchdog(
            [SloRule(metric="heartbeat_staleness_s", max=10.0)]
        )
        healthy = {"heartbeat_staleness_s": 0.1, "forced_stale": False}
        # Fresh heartbeat but a death was observed: still a breach.
        stale = {"heartbeat_staleness_s": 0.1, "forced_stale": True}
        emitted = watchdog.evaluate({"shards": {0: stale, 1: healthy}})
        assert [e["kind"] for e in emitted] == ["slo_breach"]
        assert emitted[0]["shard"] == 0
        assert watchdog.active_breaches == [
            "heartbeat_staleness_s_max:0"
        ]
        emitted = watchdog.evaluate({"shards": {0: healthy, 1: healthy}})
        assert [e["kind"] for e in emitted] == ["slo_clear"]

    def test_subscribers_see_every_event(self):
        seen = []
        watchdog = SloWatchdog(
            [SloRule(metric="cache_hit_rate", min=0.9)]
        )
        watchdog.subscribe(seen.append)
        watchdog.evaluate({"cache_hit_rate": 0.2})
        watchdog.evaluate({"cache_hit_rate": 0.99})
        assert [e["kind"] for e in seen] == ["slo_breach", "slo_clear"]

    def test_missing_data_holds(self):
        watchdog = SloWatchdog(
            [SloRule(metric="p99_latency_ns", max=1.0)]
        )
        assert watchdog.evaluate({}) == []
        assert watchdog.breaches == 0


# ---------------------------------------------------------------------------
# EventLog accounting (satellite: drop/sink-failure counters)
# ---------------------------------------------------------------------------


class TestEventLogAccounting:
    def test_ring_rotation_reported_as_dropped(self):
        events = EventLog(capacity=3)
        for i in range(5):
            events.emit("tick", i=i)
        assert events.emitted == 5
        assert events.dropped == 2

    def test_sink_failures_counted_not_raised(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = EventLog(sink_path=str(path))
        events.emit("ok")
        events._sink.close()  # simulate disk revocation mid-run
        events.emit("lost")
        assert events.emitted == 2
        assert events.sink_failures == 1
        events._sink = None

    def test_export_event_log_metrics(self):
        events = EventLog(capacity=2)
        for i in range(4):
            events.emit("tick", i=i)
        events.sink_failures = 3
        registry = MetricsRegistry()
        export_event_log(registry, events)
        assert registry.value("pipeleon_events_emitted_total") == 4.0
        assert registry.value("pipeleon_events_dropped_total") == 2.0
        assert (
            registry.value("pipeleon_event_sink_failures_total") == 3.0
        )


# ---------------------------------------------------------------------------
# Live options
# ---------------------------------------------------------------------------


class TestLiveOptions:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval_s"):
            LiveOptions(interval_s=0.0)
        with pytest.raises(ValueError, match="every_packets"):
            LiveOptions(every_packets=0)
        with pytest.raises(ValueError, match="window"):
            LiveOptions(window=0)
        with pytest.raises(ValueError, match="serve_port"):
            LiveOptions(serve_port=70000)
        with pytest.raises(TypeError, match="SloRule"):
            LiveOptions(rules=[{"metric": "cache_hit_rate", "min": 1}])

    def test_rules_coerced_to_tuple(self):
        rule = SloRule(metric="cache_hit_rate", min=0.5)
        assert LiveOptions(rules=[rule]).rules == (rule,)


# ---------------------------------------------------------------------------
# End-to-end: live replay, HTTP scrape, convergence, bit-stability
# ---------------------------------------------------------------------------


def scrape(port: int, path: str = "/metrics") -> tuple[int, str, str]:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, "", ""


class TestLiveReplayEndToEnd:
    def test_scrape_converges_to_summary(self, tmp_path):
        """4-worker replay: served live counters match the final stats.

        The forced end-of-replay snapshot plus one aggregator tick make
        the live registry exact, not approximate, once the replay
        returns — the acceptance bound of "within one snapshot
        interval" with margin to spare.
        """
        flight = tmp_path / "flight.jsonl"
        sharded = make_live(
            n_workers=4,
            live=LiveOptions(
                interval_s=0.05,
                flight_path=str(flight),
                serve_port=0,
                rules=(SloRule(metric="cache_hit_rate", min=0.0),),
            ),
        )
        try:
            port = sharded.live_plane.port
            assert port and port > 0  # ephemeral port resolved
            stats = sharded.replay(app_packets(11, 2000))

            def converged():
                _, _, text = scrape(port)
                _, samples = parse_exposition(text)
                return sum(
                    value
                    for name, _, value in samples
                    if name == "pipeleon_live_packets_total"
                ) == stats.packets
            assert wait_for(converged, timeout_s=5.0)

            status, content_type, text = scrape(port)
            assert status == 200
            assert content_type.startswith("text/plain")
            types, samples = parse_exposition(text)
            check_histograms(types, samples)
            alive = [
                (labels["shard"], value)
                for name, labels, value in samples
                if name == "pipeleon_live_worker_alive"
            ]
            assert sorted(alive) == [(str(s), 1.0) for s in range(4)]

            status, content_type, body = scrape(port, "/health")
            assert status == 200 and content_type == "application/json"
            health = json.loads(body)
            assert health["status"] == "ok"
            assert len(health["shards"]) == 4

            assert scrape(port, "/nope")[0] == 404
        finally:
            close_live(sharded)
        # The flight sink survives close() and ends on a final row.
        rows = FlightRecorder.parse_jsonl(flight.read_text())
        finals = [r for r in rows if r.get("final")]
        assert len(finals) == 1
        assert finals[0]["packets"] == stats.packets
        assert finals[0] == rows[-1]

    def test_packet_cadence_rows_bit_stable(self):
        """Deterministic cadence: same traffic -> identical shard rows."""

        def run_once():
            sharded = make_live(
                n_workers=2, live=LiveOptions(every_packets=64)
            )
            try:
                sharded.replay(app_packets(5, 800))
                plane = sharded.live_plane
                assert wait_for(
                    lambda: len(plane.recorder.rows("shard")) > 0
                )
                plane.aggregator.stop()
                return FlightRecorder.canonical(
                    plane.recorder.rows("shard")
                )
            finally:
                close_live(sharded)

        first = run_once()
        second = run_once()
        assert first, "no shard rows recorded"
        assert first == second
        for row in first:
            assert not WALL_FIELDS & set(row)
            assert "row" not in row
        # Per-shard end totals fold to the full replay.
        last_per_shard = {}
        for row in first:
            last_per_shard[row["shard"]] = row["packets"]
        assert sum(last_per_shard.values()) == 800

    def test_interval_rows_carry_fleet_state(self):
        sharded = make_live(
            n_workers=2, live=LiveOptions(interval_s=0.05)
        )
        try:
            sharded.replay(app_packets(7, 600))
            sharded.live_plane.aggregator.stop()
            row = sharded.live_plane.recorder.last("interval")
            assert row["packets"] == 600
            assert row["dropped"] >= 0
            assert len(row["shards"]) == 2
            assert all(s["alive"] for s in row["shards"])
            assert row["p99_ns"] is not None
            # Ring gauges ride along from the shm transport.
            assert all(
                s["ring_occupancy"] is not None for s in row["shards"]
            )
        finally:
            close_live(sharded)


    def test_feedless_replay_never_enters_the_live_plane(
        self, monkeypatch
    ):
        """One core without a plane carries no feed, and its replays
        (and redeploys) never call into :mod:`repro.telemetry.live`."""
        from repro.nic.emulator import ENGINES
        from repro.telemetry import live

        def poisoned(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a feedless replay reached the plane")

        for name in ("__init__", "observe", "beat", "end", "snapshot"):
            monkeypatch.setattr(live.LiveFeed, name, poisoned)
        monkeypatch.setattr(live.LiveAggregator, "ingest", poisoned)
        deployment = Deployment(l2l3_acl.build_program(), EMULATED_NIC)
        l2l3_acl.install_base_entries(deployment.control_plane)
        for engine in ENGINES:
            stats = deployment.replay(app_packets(3, 300), engine=engine)
            assert stats.packets == 300
        deployment = Deployment(
            l2l3_acl.build_program(), EMULATED_NIC, previous=deployment
        )
        assert deployment.emulator.live_feed is None
        assert deployment.replay(app_packets(4, 300)).packets == 300


# ---------------------------------------------------------------------------
# Fault interaction: one kill, one breach episode, one clear
# ---------------------------------------------------------------------------


class TestFaultSloInteraction:
    def test_kill_produces_exactly_one_breach_and_clear(self):
        """Satellite contract: kill -> 1 slo_breach + 1 slo_clear.

        The heartbeat bound is set absurdly high (30s), so wall-clock
        staleness can never trip it — only the respawn-counter latch
        (``forced_stale``) can, which is what makes the episode count
        deterministic under a fixed fault seed.
        """
        telemetry = Telemetry()
        rule = SloRule(metric="heartbeat_staleness_s", max=30.0)
        sharded = make_live(
            n_workers=2,
            live=LiveOptions(interval_s=0.03, rules=(rule,)),
            fault_plan=FaultPlan([FaultSpec("kill", shard=0)], seed=7),
            supervisor=SupervisorOptions(
                recovery="respawn", heartbeat_interval_s=0.01
            ),
            telemetry=telemetry,
        )
        try:
            # Shard 0 takes about 2/3 of the flows: 2 * AUTO_PACKET_SPAN
            # packets carry it past an auto-placed kill wherever it lands.
            packets = 2 * AUTO_PACKET_SPAN
            stats = sharded.replay(app_packets(13, packets))
            assert stats.packets == packets  # respawn recovered the shard
            assert sharded.emulator.respawns == [1, 0]
            watchdog = sharded.live_plane.watchdog
            assert wait_for(
                lambda: watchdog.breaches >= 1 and watchdog.clears >= 1
            ), "breach/clear episode never surfaced"
            # Give the aggregator a few more intervals: the counts must
            # STAY at one each (latched episode, not one per interval).
            time.sleep(0.2)
            assert (watchdog.breaches, watchdog.clears) == (1, 1)
            assert watchdog.active_breaches == []
        finally:
            close_live(sharded)
        breaches = telemetry.events.events("slo_breach")
        clears = telemetry.events.events("slo_clear")
        assert len(breaches) == 1 and len(clears) == 1
        assert breaches[0]["shard"] == 0
        assert breaches[0]["rule"] == "heartbeat_staleness_s_max"
        # Worker-fault events share the same log: the timeline is whole.
        kinds = {e["kind"] for e in telemetry.events.events()}
        assert "worker_respawned" in kinds or "worker_fault" in kinds

    def test_respawn_never_rolls_live_counters_back(self):
        """A respawned worker rebuilds its lifetime totals from the
        journal, which holds every earlier replay's ``begin`` but never
        its ``end``: each replay must still count exactly once."""
        sharded = make_live(
            n_workers=2,
            live=LiveOptions(interval_s=0.05),
            fault_plan=FaultPlan([FaultSpec("kill", shard=0, at_batch=20)]),
            supervisor=SupervisorOptions(
                recovery="respawn", heartbeat_interval_s=0.01
            ),
            # Six batches a shard per replay: the kill fires in the
            # fourth replay.
            batch=256,
        )
        try:
            aggregator = sharded.live_plane.aggregator
            for replay in range(1, 5):
                stats = sharded.replay(app_packets(replay, 3000))
                assert stats.packets == 3000
                aggregator.flush()
                sample = aggregator.sample()
                assert sample["packets"] == 3000 * replay, replay
                assert sample["hist"].count == 3000 * replay, replay
            assert sharded.emulator.respawns == [1, 0]
        finally:
            close_live(sharded)

    def test_respawn_from_a_checkpoint_keeps_live_totals(
        self, monkeypatch
    ):
        """With every barrier checkpointing, the respawned worker
        restores its lifetime totals and latency histogram from the
        last checkpoint instead of rebuilding them from the journal."""
        from repro.nic import sharding

        monkeypatch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", 1)
        telemetry = Telemetry()
        sharded = make_live(
            n_workers=2,
            live=LiveOptions(interval_s=0.05),
            fault_plan=FaultPlan([FaultSpec("kill", shard=0, at_batch=20)]),
            supervisor=SupervisorOptions(
                recovery="respawn", heartbeat_interval_s=0.01
            ),
            telemetry=telemetry,
            batch=256,
        )
        try:
            aggregator = sharded.live_plane.aggregator
            for replay in range(1, 5):
                stats = sharded.replay(app_packets(replay, 3000))
                assert stats.packets == 3000
                aggregator.flush()
                sample = aggregator.sample()
                assert sample["packets"] == 3000 * replay, replay
                assert sample["hist"].count == 3000 * replay, replay
            assert sharded.emulator.respawns == [1, 0]
            respawned = telemetry.events.last("worker_respawned")
            assert respawned["checkpoint_epoch"] > 0
        finally:
            close_live(sharded)


# ---------------------------------------------------------------------------
# Controller: breach-triggered re-optimization
# ---------------------------------------------------------------------------


class TestControllerSloTrigger:
    def make_controller(self):
        from repro.core import PipeleonController, ResourceBudget
        from repro.core.controller import ControllerOptions
        from repro.core.search import SearchOptions
        from repro.ir import linear_program
        from repro.ir.tables import MatchType

        return PipeleonController(
            linear_program("p", 6, MatchType.TERNARY),
            EMULATED_NIC,
            budget=ResourceBudget(memory_bytes=1e6, update_pps=1e5),
            search=SearchOptions(k=1.0),
            # Periodic profiling would not fire inside the scenario:
            # only the SLO trigger can cause a replan.
            options=ControllerOptions(profile_period_s=1000.0),
        )

    def test_breach_schedules_immediate_reoptimize(self):
        from repro.nic.packet import make_packet
        from repro.traffic import Scenario

        controller = self.make_controller()
        watchdog = SloWatchdog(
            [SloRule(metric="p99_latency_ns", max=1.0)]
        )
        controller.attach_slo_watchdog(watchdog)
        watchdog.evaluate({"p99_latency_ns": 50.0})  # breach now
        assert controller.slo_breaches_seen == 1
        scenario = Scenario("slo").add_phase(
            "steady",
            2.0,
            lambda n: [make_packet() for _ in range(n)],
        )
        timeline = controller.run_scenario(scenario, packets_per_tick=30)
        # Tick 1 replans off the pending breach; tick 2 is back to the
        # (far-future) periodic schedule. The trigger is one-shot.
        assert [p.reoptimized for p in timeline] == [True, False]
        assert controller.reoptimizations == 1

    def test_clear_events_do_not_trigger(self):
        controller = self.make_controller()
        watchdog = SloWatchdog(
            [SloRule(metric="cache_hit_rate", min=0.9)]
        )
        controller.attach_slo_watchdog(watchdog)
        watchdog.evaluate({"cache_hit_rate": 0.1})  # breach
        assert controller.consume_slo_trigger()
        watchdog.evaluate({"cache_hit_rate": 0.99})  # clear
        assert not controller.consume_slo_trigger()
        assert controller.slo_breaches_seen == 1


# ---------------------------------------------------------------------------
# Terminal view and CLI plumbing
# ---------------------------------------------------------------------------


class TestRenderTop:
    def test_empty_rows(self):
        frame = render_top([], path="x.jsonl")
        assert "x.jsonl" in frame
        assert "no interval rows yet" in frame

    def test_renders_shards_and_breaches(self):
        rows = [
            {
                "kind": "interval",
                "row": 3,
                "mono_s": 1.5,
                "packets": 900,
                "dropped": 1,
                "p50_ns": 400.0,
                "p99_ns": 900.0,
                "cache_hit_rate": 0.875,
                "ring_stalls": 2,
                "events_emitted": 10,
                "events_dropped": 0,
                "slo_breaches": 1,
                "slo_clears": 0,
                "slo_active": ["heartbeat_staleness_s_max:1"],
                "shards": [
                    {"shard": 0, "packets": 500, "dropped": 0,
                     "alive": True, "respawns": 0, "heartbeats": 4,
                     "ring_occupancy": 0.25, "ring_stalls": 2,
                     "p50_ns": 400.0, "p99_ns": 900.0,
                     "cache_hit_rate": 0.9},
                    {"shard": 1, "packets": 400, "dropped": 1,
                     "alive": False, "respawns": 1, "heartbeats": 3,
                     "ring_occupancy": None, "ring_stalls": 0,
                     "p50_ns": None, "p99_ns": None,
                     "cache_hit_rate": None},
                ],
            }
        ]
        frame = render_top(rows)
        assert "packets 900" in frame
        assert "SLO BREACHED: heartbeat_staleness_s_max:1" in frame
        assert "(respawned)" in frame
        assert "NO" in frame  # dead shard flagged


class TestCli:
    def _replay(self, capsys, *args):
        code = main(["replay", *args])
        return code, capsys.readouterr()

    def test_live_flags_at_one_core(self, capsys, tmp_path):
        """Every live flag works at ``--jobs 1``: the in-process feed
        is shard 0, alive, with no ring and no heartbeat age."""
        flight = tmp_path / "flight.jsonl"
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps([{"metric": "heartbeat_staleness_s", "max": 1e-9}])
        )
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "600",
            "--jobs", "1",
            "--target", "emulated_nic",
            "--serve-metrics", "0",
            "--flight-out", str(flight),
            "--slo", str(rules),
        )
        assert code == 0, captured.err
        live = json.loads(captured.out)["live"]
        assert live["rows"] > 0
        assert live["metrics_port"] > 0
        # An idle one-core feed never reads as a missed heartbeat.
        assert live["slo_breaches"] == 0
        final = FlightRecorder.parse_jsonl(flight.read_text())[-1]
        assert final["final"] and final["packets"] == 600
        (shard,) = final["shards"]
        assert shard["alive"] and shard["packets"] == 600
        assert shard["age_s"] is None and shard["ring_occupancy"] is None

    def test_bad_slo_file_rejected(self, capsys, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"metric": "bogus", "max": 1}]))
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "100",
            "--jobs", "2",
            "--target", "emulated_nic",
            "--slo", str(rules),
        )
        assert code == 2
        assert "Unknown SLO metric" in captured.err

    def test_replay_with_live_plane_and_top(self, capsys, tmp_path):
        flight = tmp_path / "flight.jsonl"
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps([{"metric": "p99_latency_ns", "max": 1e12}])
        )
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "600",
            "--jobs", "2",
            "--target", "emulated_nic",
            "--live-interval", "0.05",
            "--slo", str(rules),
            "--flight-out", str(flight),
            "--serve-metrics", "0",
        )
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["packets"] == 600
        live = summary["live"]
        assert live["rows"] >= 1
        assert live["slo_rules"] == 1
        assert live["slo_breaches"] == 0
        assert live["slo_active"] == []
        assert live["flight_out"] == str(flight)
        assert live["metrics_port"] > 0
        rows = FlightRecorder.parse_jsonl(flight.read_text())
        assert rows[-1]["final"] and rows[-1]["packets"] == 600

        code = main(
            ["top", str(flight), "--iterations", "2", "--no-clear"]
        )
        assert code == 0
        frames = capsys.readouterr().out
        assert frames.count("repro top") == 2
        assert "packets 600" in frames
        assert "\x1b[2J" not in frames  # --no-clear means no ANSI

    def test_top_missing_file(self, capsys, tmp_path):
        code = main(
            ["top", str(tmp_path / "nope.jsonl"), "--iterations", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_cadence_flag(self, capsys, tmp_path):
        flight = tmp_path / "flight.jsonl"
        code, captured = self._replay(
            capsys,
            "--app", "l2l3_acl",
            "--packets", "400",
            "--jobs", "2",
            "--target", "emulated_nic",
            "--live-every-packets", "64",
            "--flight-out", str(flight),
        )
        assert code == 0
        rows = FlightRecorder.parse_jsonl(flight.read_text())
        shard_rows = [r for r in rows if r.get("kind") == "shard"]
        assert shard_rows, "packet cadence must record shard rows"
        per_shard = {}
        for row in shard_rows:
            per_shard[row["shard"]] = row["packets"]
        assert sum(per_shard.values()) == 400


# ---------------------------------------------------------------------------
# Aggregator units against a fake emulator (no processes)
# ---------------------------------------------------------------------------


class FakeEmulator:
    """Duck-typed stand-in: canned sidecar pipes + shard status."""

    def __init__(self, n_workers=1):
        self.n_workers = n_workers
        self.live_conns = [None] * n_workers
        self.status = [
            {
                "shard": s,
                "alive": True,
                "dead": False,
                "respawns": 0,
                "ring_occupancy": 0.0,
                "ring_stalls": 0,
                "pushed_batches": 0,
            }
            for s in range(n_workers)
        ]

    def live_shard_status(self):
        return [dict(entry) for entry in self.status]


class TestAggregatorUnits:
    def snapshot(self, shard=0, seq=0, packets=10, **extra):
        base = {
            "shard": shard,
            "seq": seq,
            "mono_s": 0.0,
            "packets": packets,
            "dropped": 0,
            "hist": None,
            "caches": {},
            "native": None,
            "demotions": {},
            "columnar_packets": 0,
            "epoch": 0,
            "dropped_snapshots": 0,
        }
        base.update(extra)
        return base

    def feed(self, aggregator, snapshot):
        """Inject a snapshot as if it arrived over the sidecar pipe."""
        shard = snapshot["shard"]
        aggregator._snapshots[shard] = snapshot
        aggregator._last_seen[shard] = time.monotonic()
        aggregator._heartbeats[shard] = (
            aggregator._heartbeats.get(shard, 0) + 1
        )
        aggregator._forced_stale[shard] = False

    def test_respawn_bump_latches_forced_stale(self):
        emulator = FakeEmulator(n_workers=1)
        aggregator = LiveAggregator(emulator)  # never start()ed
        self.feed(aggregator, self.snapshot())
        sample = aggregator.sample()
        assert not sample["shards"][0]["forced_stale"]
        # Supervisor observed a death: respawns bumps, latch sets even
        # though the worker never missed a wall-clock heartbeat.
        emulator.status[0]["respawns"] = 1
        sample = aggregator.sample()
        assert sample["shards"][0]["forced_stale"]
        # Still latched until a FRESH heartbeat arrives...
        sample = aggregator.sample()
        assert sample["shards"][0]["forced_stale"]
        self.feed(aggregator, self.snapshot(seq=1))
        sample = aggregator.sample()
        assert not sample["shards"][0]["forced_stale"]

    def test_dead_shard_stays_forced_stale(self):
        emulator = FakeEmulator(n_workers=1)
        aggregator = LiveAggregator(emulator)
        self.feed(aggregator, self.snapshot())
        emulator.status[0]["dead"] = True
        self.feed(aggregator, self.snapshot(seq=1))  # stale pipe data
        assert aggregator.sample()["shards"][0]["forced_stale"]

    def test_sample_merges_caches_and_native(self):
        emulator = FakeEmulator(n_workers=2)
        aggregator = LiveAggregator(emulator)
        self.feed(
            aggregator,
            self.snapshot(shard=0, caches={"c": (8, 2)}),
        )
        self.feed(
            aggregator,
            self.snapshot(shard=1, caches={"c": (5, 5)}, native=(9, 1)),
        )
        sample = aggregator.sample()
        assert sample["packets"] == 20
        assert sample["cache_hit_rate"] == pytest.approx(22 / 30)
        assert sample["shards"][0]["cache_hit_rate"] == pytest.approx(
            0.8
        )

    def test_stop_is_idempotent_and_appends_final_row(self):
        aggregator = LiveAggregator(FakeEmulator()).start()
        aggregator.stop()
        rows = aggregator.recorder.rows("interval")
        assert rows and rows[-1]["final"]
        before = aggregator.recorder.appended
        aggregator.stop()
        assert aggregator.recorder.appended == before
