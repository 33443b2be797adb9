"""Differential tests: columnar batch kernels vs. the interpreter.

The columnar tier is only allowed to exist because it is bit-identical
to ``NicEmulator.process`` on RunStats, counter banks, flow-cache
contents and per-packet results — and on top of that it must account
for every packet it could *not* express as a batch kernel (the
per-reason demotion counters). These tests replay
identical traffic through twin deployments and compare everything
observable, including under mid-stream control-plane updates, over
random synthesized programs, and across the sharded shm transport.
"""

import copy
import functools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nic.columnar as columnar
from repro.apps import (
    acl_chain,
    dash_routing,
    l2l3_acl,
    load_balancer,
    migration,
    nf_composition,
)
from repro.core import Deployment, Pipeleon
from repro.core.pipelets import find_groups, partition
from repro.core.transform.cache import apply_cache, apply_group_cache
from repro.errors import EmulationError, TransformError
from repro.ir import exact_entry
from repro.ir.actions import Action, Param, drop_action, prim
from repro.ir.builder import ProgramBuilder
from repro.ir.entries import ExactValue, LpmValue, TableEntry
from repro.ir.tables import MatchType
from repro.nic.columnar import ColumnBatch
from repro.nic.control_plane import ControlPlane
from repro.nic.emulator import NicEmulator
from repro.nic.flow_cache import FlowCache, TokenBucket
from repro.nic.match_engine import ExactEngine, LpmEngine, TernaryEngine
from repro.nic.packet import Packet, ipv4, make_packet
from repro.nic.stats import RunStats
from repro.nic.targets import AGILIO_CX, BLUEFIELD2, EMULATED_NIC
from repro.synthesis import ProgramSynthesizer, SynthesisConfig
from repro.traffic.flows import FlowSpec, synth_flows
from repro.traffic.generator import TrafficGenerator

#: The five example applications plus the migration benchmark (which
#: exercises navigation/migration nodes the others don't).
APPS = {
    "l2l3_acl": (l2l3_acl.build_program, l2l3_acl.install_base_entries),
    "acl_chain": (
        acl_chain.build_program,
        acl_chain.install_acl_entries,
    ),
    "dash_routing": (
        dash_routing.build_program,
        dash_routing.install_base_entries,
    ),
    "load_balancer": (
        load_balancer.build_program,
        load_balancer.install_base_entries,
    ),
    "nf_composition": (
        nf_composition.build_program,
        nf_composition.install_base_entries,
    ),
    "migration": (migration.build_program, lambda control_plane: None),
}

TARGETS = [BLUEFIELD2, AGILIO_CX, EMULATED_NIC]


def app_packets(seed: int, n: int = 300) -> list[Packet]:
    generator = TrafficGenerator(seed)
    flows = synth_flows(48) + synth_flows(16, dport=6666)
    return list(generator.stream(flows, n, locality="zipf"))


def stats_fingerprint(stats: RunStats) -> tuple:
    return (
        stats.packets,
        stats.dropped,
        stats.migrations,
        stats.total_latency_ns,
        stats.total_bytes,
        stats._latencies,
        stats._busy_ns,
    )


def make_twin_deployments(
    app: str, target, optimize: bool = False, **deployment_knobs
):
    build, install = APPS[app]
    # One search for both twins: a plan names tables, not objects.
    plan = Pipeleon(target).optimize(build()) if optimize else None
    deployments = []
    for _ in range(2):
        deployment = Deployment(
            build(), target, plan=plan, **deployment_knobs
        )
        install(deployment.control_plane)
        deployments.append(deployment)
    return deployments


def cache_state(cache) -> tuple:
    """Everything observable about a cache: LRU order, not just
    membership; the whole ``CacheStats``; the token bucket's floats."""
    limiter = cache._limiter
    return (
        list(cache.items()),
        cache.stats,
        None if limiter is None else (limiter._tokens, limiter._last),
    )


def assert_emulators_identical(em_a: NicEmulator, em_b: NicEmulator):
    assert em_a.counters.snapshot() == em_b.counters.snapshot()
    assert em_a.explicit_counters == em_b.explicit_counters
    assert em_a.flow_caches.keys() == em_b.flow_caches.keys()
    for name, cache in em_a.flow_caches.items():
        assert cache_state(cache) == cache_state(em_b.flow_caches[name])
    assert (em_a.native_cache is None) == (em_b.native_cache is None)
    if em_a.native_cache is not None:
        assert cache_state(em_a.native_cache) == cache_state(
            em_b.native_cache
        )


def assert_per_packet_identical(interp, col, make_packets) -> None:
    """One ``auto`` batch on ``col`` vs. ``process`` packet by packet
    on ``interp``: latency, verdict and egress port."""
    outcome = col.emulator.replay_batch(
        make_packets(), RunStats(), engine="auto"
    )
    for i, packet in enumerate(make_packets()):
        result = interp.emulator.process(packet)
        assert outcome.latencies[i] == result.latency_ns, i
        assert bool(outcome.dropped[i]) == result.dropped, i
        assert outcome.egress[i] == (
            -1 if result.egress_port is None else result.egress_port
        ), i


#: Every legal demotion reason (keep in sync with repro.nic.columnar).
DEMOTION_REASONS = {
    "migrated",
    "unsupported",
    "traced",
    "input",
    "cascade",
}


def overflowing_packets(seed: int, n: int, every: int = 50) -> list:
    """``app_packets`` with every ``every``-th TTL at int64's minimum,
    where l2l3_acl's ``add_to_field ipv4.ttl -1`` leaves int64: the one
    thing in the example apps a column kernel cannot express."""
    packets = app_packets(seed, n=n)
    for packet in packets[every - 1 :: every]:
        packet.set("ipv4.ttl", -(2**63))
    return packets


def assert_demotions_accounted(emulator, total_packets: int) -> None:
    """Columnar retirements + demotions must cover every packet."""
    demoted = sum(emulator.columnar_demotions.values())
    assert set(emulator.columnar_demotions) <= DEMOTION_REASONS
    assert emulator.columnar_packets + demoted == total_packets


class TestColumnarDifferential:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
    def test_apps_bit_identical(self, app, target):
        interp, col = make_twin_deployments(app, target)
        reference = interp.run(app_packets(11), offered_pps=1e6)
        replayed = col.replay(
            app_packets(11), offered_pps=1e6, batch=37, engine="auto"
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)
        assert_demotions_accounted(col.emulator, reference.packets)

    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
    def test_optimized_apps_bit_identical(self, app, target):
        interp, col = make_twin_deployments(app, target, optimize=True)
        reference = interp.run(app_packets(12), offered_pps=1e6)
        replayed = col.replay(
            app_packets(12), offered_pps=1e6, batch=37, engine="auto"
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)
        assert_demotions_accounted(col.emulator, reference.packets)

    def test_batch_outcome_matches_per_packet_results(self):
        interp, col = make_twin_deployments("l2l3_acl", BLUEFIELD2)
        stats = RunStats()
        outcome = col.emulator.replay_batch(
            app_packets(3, n=120), stats, engine="auto"
        )
        for i, packet in enumerate(app_packets(3, n=120)):
            result = interp.emulator.process(packet)
            assert outcome.latencies[i] == result.latency_ns
            assert bool(outcome.dropped[i]) == result.dropped
            expected = (
                -1 if result.egress_port is None else result.egress_port
            )
            assert outcome.egress[i] == expected

    def test_auto_engine_is_columnar(self):
        """``engine="auto"`` resolves to the columnar tier."""
        _, col = make_twin_deployments("l2l3_acl", BLUEFIELD2)
        col.replay(app_packets(4, n=90), batch=30)  # deployment default
        assert_demotions_accounted(col.emulator, 90)
        assert col.emulator.columnar_packets == 90

    def test_tracer_demotes_whole_batches(self):
        """A bound tracer interprets every batch (reason "traced")."""
        from repro.telemetry import Telemetry

        def traced_twin():
            build, install = APPS["l2l3_acl"]
            deployment = Deployment(
                build(), BLUEFIELD2, telemetry=Telemetry(trace_interval=8)
            )
            install(deployment.control_plane)
            return deployment

        interp, col = traced_twin(), traced_twin()
        reference = interp.run(app_packets(7, n=96), offered_pps=1e6)
        replayed = col.replay(
            app_packets(7, n=96), offered_pps=1e6, batch=32,
            engine="auto",
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert col.emulator.columnar_demotions == {"traced": 96}
        assert col.emulator.columnar_packets == 0


class TestMidstreamUpdates:
    """Control-plane updates between batches recompile the kernels."""

    @pytest.mark.parametrize(
        "target", [BLUEFIELD2, EMULATED_NIC], ids=lambda t: t.name
    )
    def test_updates_between_batches_stay_identical(self, target):
        interp, col = make_twin_deployments("l2l3_acl", target)

        def both_phases(seed):
            reference = interp.run(
                app_packets(seed, n=150), offered_pps=1e6
            )
            replayed = col.replay(
                app_packets(seed, n=150),
                offered_pps=1e6,
                batch=32,
                engine="auto",
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )

        both_phases(21)
        deny = TableEntry((ExactValue(80),), "acl_deny")
        inserted = [
            deployment.insert_entry("l2l3_acl", deny.clone())
            for deployment in (interp, col)
        ]
        both_phases(22)
        for deployment, entry_id in zip((interp, col), inserted):
            deployment.delete_entry("l2l3_acl", entry_id)
        both_phases(23)
        for deployment in (interp, col):
            deployment.control_plane.flush_caches()
        both_phases(24)
        assert_emulators_identical(interp.emulator, col.emulator)
        assert_demotions_accounted(col.emulator, 600)

    def test_optimized_updates_recompile_kernels(self):
        """Cache invalidation mid-stream must recompile the kernels."""
        interp, col = make_twin_deployments(
            "l2l3_acl", EMULATED_NIC, optimize=True
        )

        def both_phases(seed):
            reference = interp.run(
                app_packets(seed, n=150), offered_pps=1e6
            )
            replayed = col.replay(
                app_packets(seed, n=150),
                offered_pps=1e6,
                batch=32,
                engine="auto",
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )

        both_phases(25)
        engine_before = col.emulator._columnar
        deny = TableEntry((ExactValue(80),), "acl_deny")
        for deployment in (interp, col):
            deployment.insert_entry("l2l3_acl", deny.clone())
        both_phases(26)
        assert col.emulator._columnar is not engine_before  # recompiled
        assert_emulators_identical(interp.emulator, col.emulator)


class TestNoPerPacketObjects:
    """The satellite contract: a columnar-accepted shm batch must never
    materialise per-packet objects (the whole point of the tier)."""

    @staticmethod
    def _matrix_batch(n=128, packets=None):
        packets = packets or app_packets(9, n=n)
        names = tuple(packets[0].fields)
        values = np.array(
            [[p.fields[name] for p in packets] for name in names],
            dtype=np.int64,
        )
        sizes = np.array([p.size_bytes for p in packets], dtype=np.int32)
        return names, values, sizes

    def test_matrix_replay_builds_no_packets(self, monkeypatch):
        _, col = make_twin_deployments("l2l3_acl", BLUEFIELD2)
        names, values, sizes = self._matrix_batch()
        pristine = values.copy()
        warm = ColumnBatch(names, values, sizes)
        col.emulator.replay_batch(warm, RunStats(), engine="auto")

        def poisoned(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "columnar path materialised a per-packet object"
            )

        monkeypatch.setattr(Packet, "__init__", poisoned)
        stats = RunStats()
        batch = ColumnBatch(names, values, sizes)
        outcome = col.emulator.replay_batch(
            batch, stats, engine="auto"
        )
        assert outcome.demoted == 0
        assert stats.packets == batch.n
        # Copy-on-write: the base columns (the shm ring slot) stay
        # byte-identical even though the program rewrites fields.
        assert np.array_equal(values, pristine)

    def test_demoted_packets_materialise_from_base_columns(self):
        """A TTL decrement that leaves int64 is ``unsupported``: those
        packets (and only those) may build Packets, from the untouched
        base data — here inside Agilio's open native-cache recordings,
        so the prefix commits replay only the cache ops below each cut."""
        interp, col = make_twin_deployments("l2l3_acl", AGILIO_CX)
        names, values, sizes = self._matrix_batch(
            packets=overflowing_packets(9, 128)
        )
        pristine = values.copy()
        stats = RunStats()
        batch = ColumnBatch(names, values, sizes)
        col.emulator.replay_batch(batch, stats, engine="auto")
        assert col.emulator.columnar_demotions == {"unsupported": 2}
        assert np.array_equal(values, pristine)
        reference = interp.run(overflowing_packets(9, 128))
        assert stats_fingerprint(stats) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)


class TestShardedColumnar:
    def test_shm_workers_consume_in_place(self):
        """Sharded columnar over shm: multiset-identical to single-core,
        every ring batch accepted columnar with zero demotions."""
        build, install = APPS["l2l3_acl"]
        single = Deployment(build(), BLUEFIELD2)
        install(single.control_plane)
        reference = single.emulator.run(
            app_packets(5, n=600), offered_pps=1e6
        )
        sharded = Deployment(
            build(),
            BLUEFIELD2,
            jobs=3,
            batch=64,
            engine="auto",
        )
        install(sharded.control_plane)
        try:
            # The stream itself: its flow indices ride the ring.
            replayed = sharded.replay(
                TrafficGenerator(5).stream(
                    synth_flows(48) + synth_flows(16, dport=6666),
                    600,
                    locality="zipf",
                ),
                offered_pps=1e6
            )
            assert sorted(replayed._latencies) == sorted(
                reference._latencies
            )
            assert (
                replayed.packets,
                replayed.dropped,
                replayed.total_latency_ns,
                replayed.total_bytes,
            ) == (
                reference.packets,
                reference.dropped,
                reference.total_latency_ns,
                reference.total_bytes,
            )
            assert replayed._busy_ns == reference._busy_ns
            assert sharded.emulator.columnar_packets == 600
            assert sharded.emulator.columnar_demotions == {}
            totals = sharded.emulator.transport_stats()["totals"]
            assert totals["pushed_batches"] > 0
            assert totals["pushed_packets"] == 600
        finally:
            sharded.close()

    def test_sharded_engine_validation(self):
        with pytest.raises(ValueError, match="Unknown engine"):
            build, _ = APPS["l2l3_acl"]
            Deployment(build(), BLUEFIELD2, jobs=2, engine="warp")

    def test_sharded_demotions_merge_back(self):
        """Worker-side demotions (int64 overflow) surface in the parent."""
        build, install = APPS["l2l3_acl"]
        sharded = Deployment(
            build(), AGILIO_CX, jobs=2, batch=64
        )
        install(sharded.control_plane)
        try:
            stats = sharded.replay(overflowing_packets(6, 400, every=7))
            demoted = sum(sharded.emulator.columnar_demotions.values())
            assert demoted > 0
            assert set(sharded.emulator.columnar_demotions) <= DEMOTION_REASONS
            assert sharded.emulator.columnar_packets + demoted == stats.packets
        finally:
            sharded.close()


def marked_packets(seed: int, n: int) -> list:
    """``app_packets`` with preset metadata on two of them: their
    batches are not SoA-uniform (reason ``input``), the rest are."""
    packets = app_packets(seed, n=n)
    for packet in packets[5::90]:
        packet.set("meta.mark", 1)
    return packets


#: The apps that decrement the TTL of this traffic (see
#: ``overflowing_packets``).
TTL_APPS = ("dash_routing", "l2l3_acl")

#: ``migration`` after the naive ASIC/CPU split: its packets cross the
#: navigation tables more than once, i.e. jump backwards in topo order.
DEMOTION_APPS = {
    **APPS,
    "migration_partitioned": (
        migration.partitioned_program,
        lambda control_plane: None,
    ),
}

#: reason -> (apps it can be provoked on, packets(seed, n), a lowered
#: MAX_WALKS_PER_BATCH or None). ``traced`` also attaches a tracer.
DEMOTION_CASES = {
    "traced": (tuple(sorted(APPS)), app_packets, None),
    "input": (tuple(sorted(APPS)), marked_packets, None),
    "unsupported": (
        TTL_APPS,
        lambda seed, n: overflowing_packets(seed, n, every=25),
        None,
    ),
    "migrated": (("migration_partitioned",), app_packets, None),
    "cascade": (
        TTL_APPS + ("migration_partitioned",),
        lambda seed, n: overflowing_packets(seed, n, every=7),
        1,
    ),
}

DEMOTION_PARAMS = [
    (reason, app)
    for reason, (apps, _, _) in DEMOTION_CASES.items()
    for app in apps
]


class TestDemotionIsInterpretation:
    """Every demotion reason, under every way the sim clock is driven,
    against a pure-interpreter twin: a demoted packet runs through
    ``NicEmulator.process`` in order, at its own clock value."""

    N = 120

    @staticmethod
    def _knobs(reason: str, target) -> dict:
        from repro.telemetry import Telemetry

        knobs = {}
        if reason == "traced":
            knobs["telemetry"] = Telemetry(trace_interval=8)
        if target is EMULATED_NIC:
            knobs["native_cache"] = True  # a cache for every packet
        return knobs

    @staticmethod
    def _drive(emulator, packets, clock_mode: str, engine: str) -> RunStats:
        if clock_mode != "timestamps":
            pps = 1e6 if clock_mode == "offered_pps" else None
            return emulator.replay(
                packets, offered_pps=pps, batch=37, engine=engine
            )
        # What a shard worker does: one explicit clock value a packet.
        stats = RunStats()
        for start in range(0, len(packets), 37):
            chunk = packets[start : start + 37]
            emulator.replay_batch(
                chunk,
                stats,
                timestamps=[
                    2e-6 * (start + i) for i in range(len(chunk))
                ],
                engine=engine,
            )
        return stats

    @pytest.mark.parametrize("reason, app", DEMOTION_PARAMS)
    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
    def test_one_core(self, monkeypatch, reason, app, target):
        _, make_packets, max_walks = DEMOTION_CASES[reason]
        if max_walks is not None:
            monkeypatch.setattr(columnar, "MAX_WALKS_PER_BATCH", max_walks)
        build, install = DEMOTION_APPS[app]
        for clock_mode in ("offered_pps", "timestamps", "unpaced"):
            twins = []
            for engine in ("interp", "auto"):
                deployment = Deployment(
                    build(), target, **self._knobs(reason, target)
                )
                install(deployment.control_plane)
                stats = self._drive(
                    deployment.emulator,
                    make_packets(13, self.N),
                    clock_mode,
                    engine,
                )
                twins.append((deployment.emulator, stats))
            (interp, reference), (col, replayed) = twins
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            ), clock_mode
            assert_emulators_identical(interp, col)
            assert col.clock.now_s == interp.clock.now_s, clock_mode
            assert col.columnar_demotions.get(reason), clock_mode
            assert_demotions_accounted(col, self.N)
            assert interp.columnar_demotions == {}

    @pytest.mark.parametrize(
        "reason, app, target",
        # Every reason x app, the targets taking turns.
        [
            pytest.param(*case, TARGETS[i % 3], id="-".join(case))
            for i, case in enumerate(DEMOTION_PARAMS)
        ],
    )
    def test_two_worker_fleet(self, monkeypatch, reason, app, target):
        """The fleet stamps every packet with an explicit clock value;
        merged stats, counters, per-worker cache contents and the
        final clock equal an all-interpreter fleet's."""
        _, make_packets, max_walks = DEMOTION_CASES[reason]
        if max_walks is not None:  # before the fork: workers inherit it
            monkeypatch.setattr(columnar, "MAX_WALKS_PER_BATCH", max_walks)
        build, install = DEMOTION_APPS[app]
        observed = []
        for engine in ("interp", "auto"):
            fleet = Deployment(
                build(),
                target,
                jobs=2,
                batch=32,
                engine=engine,
                **self._knobs(reason, target),
            )
            install(fleet.control_plane)
            try:
                stats = fleet.replay(
                    make_packets(13, self.N), offered_pps=1e6
                )
                sharded = fleet.emulator
                observed.append(
                    (
                        stats_fingerprint(stats),
                        sharded.counters.snapshot(),
                        sharded.explicit_counters,
                        sharded.cache_stats,
                        sharded.native_cache_stats,
                        [
                            (stores, native)
                            for stores, native, _ in sharded.dump_caches()
                        ],
                        fleet.clock.now_s,
                    )
                )
                if engine == "auto":
                    assert sharded.columnar_demotions.get(reason)
                    assert_demotions_accounted(sharded, self.N)
            finally:
                fleet.close()
        assert observed[0] == observed[1]


class TestTwoTiers:
    """The closure tier is gone, not aliased: naming it fails loudly."""

    GONE = "fastpath"

    def test_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.nic.{self.GONE}")

    def test_engines(self):
        from repro.nic.emulator import ENGINES

        assert ENGINES == ("auto", "interp")
        _, col = make_twin_deployments("l2l3_acl", BLUEFIELD2)
        with pytest.raises(ValueError, match="Unknown engine"):
            col.replay(app_packets(1, n=4), engine=self.GONE)
        with pytest.raises(ValueError, match="Unknown engine"):
            Deployment(
                APPS["l2l3_acl"][0](),
                BLUEFIELD2,
                jobs=2,
                engine=self.GONE,
            )

    @pytest.mark.parametrize("command", ["replay", "dse", "serve"])
    def test_cli_rejects_it(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([command, "--engine", self.GONE])
        assert exit_info.value.code == 2
        assert "invalid choice: 'fastpath'" in capsys.readouterr().err

    def test_dse_spec_and_session_config_reject_it(self):
        from repro.dse import Axis, SweepSpec
        from repro.service.session import SessionConfig

        with pytest.raises(ValueError, match="engine='fastpath'"):
            SweepSpec("old", axes=(Axis("engine", ("auto", self.GONE)),))
        with pytest.raises(ValueError, match="engine='fastpath'"):
            SweepSpec("old", base={"engine": self.GONE})
        with pytest.raises(ValueError, match="engine='fastpath'"):
            SessionConfig(engine=self.GONE)


def cache_twins(
    app="dash_routing",
    target=BLUEFIELD2,
    capacity=4096,
    limit=10000.0,
    native_cache=None,
):
    """Interpreter and columnar twins of ``app``'s optimized plan, every
    flow cache with ``capacity`` slots and a ``limit``/s token bucket
    (0 = no limiter)."""
    twins = make_twin_deployments(
        app,
        target,
        optimize=True,
        cache_capacity=capacity,
        cache_insertion_limit_pps=limit,
        native_cache=native_cache,
    )
    assert all(twin.emulator.flow_caches for twin in twins)
    return twins


def zipf_packets(seed: int, n: int, flows: int = 300) -> list:
    return list(
        TrafficGenerator(seed).stream(
            synth_flows(flows), n, locality="zipf"
        )
    )


def flow_packets(flows, pattern) -> list:
    return [flows[i].packet() for i in pattern]


def only_cache(deployment) -> FlowCache:
    (cache,) = deployment.emulator.flow_caches.values()
    return cache


def assert_no_demotion_twin(interp, col, make_packets, pps=None, batch=256):
    """Replay through both twins: everything observable identical and
    every packet retired by the batch kernels."""
    reference = interp.run(make_packets(), offered_pps=pps)
    replayed = col.replay(
        make_packets(), offered_pps=pps, batch=batch, engine="auto"
    )
    assert stats_fingerprint(replayed) == stats_fingerprint(reference)
    assert_emulators_identical(interp.emulator, col.emulator)
    assert col.emulator.columnar_demotions == {}
    assert col.emulator.columnar_packets == reference.packets
    return reference


class TestCacheStep:
    """The in-walk cache step in its degenerate regimes, each against
    the interpreter twin with ``columnar_demotions == {}``."""

    @pytest.mark.parametrize("capacity", [1, 2, 7])
    def test_tiny_capacities(self, capacity):
        interp, col = cache_twins(capacity=capacity, limit=0)
        assert_no_demotion_twin(
            interp, col, lambda: zipf_packets(capacity, 900), pps=1e6
        )
        assert only_cache(col).stats.evictions > 100

    def test_key_evicted_and_missed_again_in_one_batch(self):
        interp, col = cache_twins(capacity=1, limit=0)
        flows = synth_flows(2)
        pattern = [0, 1, 0, 1, 0, 0, 1, 1, 0]
        assert_no_demotion_twin(
            interp, col, lambda: flow_packets(flows, pattern)
        )
        stats = only_cache(col).stats
        assert (stats.hits, stats.misses, stats.evictions) == (2, 7, 6)

    def test_token_bucket_runs_dry_mid_batch_static_clock(self):
        """No ``offered_pps``: the clock stands still, so the bucket
        never refills — its burst is admitted, then nothing is."""
        interp, col = cache_twins(limit=5.0)
        assert_no_demotion_twin(
            interp, col, lambda: zipf_packets(3, 600), batch=200
        )
        stats = only_cache(col).stats
        assert stats.insertions == 5
        assert stats.rejected_insertions > 100

    def test_token_bucket_refills_between_packet_timestamps(self):
        """Per-packet timestamps: a tenth of a token per packet, so a
        miss is admitted or not by the bucket at its own ``now_s``."""
        interp, col = cache_twins(limit=5.0)
        timestamps = [0.02 * i for i in range(400)]
        reference, replayed = RunStats(), RunStats()
        interp.emulator.replay_batch(
            zipf_packets(4, 400),
            reference,
            timestamps=timestamps,
            engine="interp",
        )
        col.emulator.replay_batch(
            zipf_packets(4, 400),
            replayed,
            timestamps=np.array(timestamps),
            engine="auto",
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)
        assert col.emulator.columnar_demotions == {}
        assert col.emulator.clock.now_s == interp.emulator.clock.now_s
        stats = only_cache(col).stats
        assert stats.insertions > 20 and stats.rejected_insertions > 20

    def test_leader_dropped_by_covered_acl(self):
        """The leader never reaches ``hit_next``: its recording commits
        when it terminates (insert billed last), and its same-batch
        followers replay the drop."""
        interp, col = cache_twins()
        denied = FlowSpec(src=ipv4(10, 66, 0, 1), dst=ipv4(192, 168, 1, 9))
        flows = [denied, *synth_flows(3)]
        pattern = [1, 0, 2, 0, 0, 3, 1, 0]
        reference = assert_no_demotion_twin(
            interp, col, lambda: flow_packets(flows, pattern)
        )
        assert reference.dropped == 4
        cache = only_cache(col)
        assert sum(("drop", ()) in e for _, e in cache.items()) == 1
        assert (cache.stats.hits, cache.stats.misses) == (4, 4)

    def test_several_followers_of_one_leader(self):
        interp, col = cache_twins()
        flows = synth_flows(1)
        assert_no_demotion_twin(
            interp, col, lambda: flow_packets(flows, [0] * 10)
        )
        stats = only_cache(col).stats
        assert (stats.hits, stats.misses, stats.insertions) == (9, 1, 1)

    def test_unsupported_packet_between_two_misses(self):
        """The prefix commit must replay only the cache ops below the
        cut; the demoted packet then does its own, interpreted, and
        the re-walk starts from the cache as it left it."""
        interp, col = cache_twins(capacity=2, limit=0)
        flows = synth_flows(4)
        pattern = [0, 0, 2, 1, 0, 2, 1, 3, 0]

        def packets():
            built = flow_packets(flows, pattern)
            built[2].set("ipv4.ttl", -(2**63))  # routing's ttl - 1
            return built

        reference = interp.run(packets())
        replayed = col.replay(packets(), batch=16, engine="auto")
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)
        assert col.emulator.columnar_demotions == {"unsupported": 1}
        assert col.emulator.columnar_packets == len(pattern) - 1

    @pytest.mark.parametrize("batch", [37, 4096])
    def test_batch_size_does_not_matter(self, batch):
        interp, col = cache_twins(capacity=64, limit=5000.0)
        assert_no_demotion_twin(
            interp,
            col,
            lambda: zipf_packets(8, 5000, flows=2000),
            pps=1e6,
            batch=batch,
        )

    @pytest.mark.parametrize(
        "app, target",
        [
            ("dash_routing", BLUEFIELD2),
            ("nf_composition", AGILIO_CX),  # a cache with no hit_next
            ("migration", BLUEFIELD2),  # cache and hit_next pools differ
            ("l2l3_acl", EMULATED_NIC),
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_per_packet_add_order(self, app, target):
        """Latency is a float sum, so equal per-packet latencies pin the
        add order: lookup, sampled counter, effect primitives, and the
        insert billed to the cache's pool before ``hit_next``'s
        migration and cost — or last, when the leader ends early."""
        interp, col = cache_twins(app, target, capacity=7, limit=0)
        outcome = col.emulator.replay_batch(
            zipf_packets(5, 400), RunStats(), engine="auto"
        )
        assert outcome.demoted == 0
        for i, packet in enumerate(zipf_packets(5, 400)):
            result = interp.emulator.process(packet)
            assert outcome.latencies[i] == result.latency_ns, i
            assert bool(outcome.dropped[i]) == result.dropped
        assert_emulators_identical(interp.emulator, col.emulator)

    def test_native_cache_records_everything_and_bills_first(self):
        """``covers == {"*"}`` over a plan with a flow cache: the flow
        cache's hit effects feed the native recording, and a packet
        closing both recordings is billed native first."""
        interp, col = cache_twins(
            "l2l3_acl", AGILIO_CX, capacity=64, limit=0, native_cache=True
        )
        for deployment in (interp, col):
            deployment.emulator.native_cache = FlowCache(capacity=5)
        outcome = col.emulator.replay_batch(
            zipf_packets(6, 500), RunStats(), engine="auto"
        )
        assert outcome.demoted == 0
        for i, packet in enumerate(zipf_packets(6, 500)):
            result = interp.emulator.process(packet)
            assert outcome.latencies[i] == result.latency_ns, i
        assert_emulators_identical(interp.emulator, col.emulator)
        native = col.emulator.native_cache.stats
        assert native.hits and native.evictions and only_cache(col).stats.hits

    def test_walk_mutates_no_shared_state(self):
        _, col = cache_twins(capacity=7, limit=50.0)
        emulator = col.emulator
        col.replay(zipf_packets(1, 300), batch=100, engine="auto")

        def shared_state():
            cache = only_cache(col)
            return (
                cache_state(cache),
                dict(cache.stats.__dict__),
                emulator.counters.snapshot(),
                emulator.counters._packet_index,
                dict(emulator.explicit_counters),
                emulator.clock.now_s,
                emulator.columnar_packets,
            )

        before = shared_state()
        batch = ColumnBatch.from_packets(zipf_packets(2, 300))
        walk = emulator.columnar._walk(batch, 0, None)
        assert walk.cache_steps[0].codes  # misses, inserts, evictions
        assert shared_state() == before

    def test_warm_cache_takes_no_per_packet_loop(self, monkeypatch):
        """Every key present: no simulation, and commit is one
        ``touch`` per key rather than one ``lookup`` per packet."""
        interp, col = cache_twins()
        for deployment in (interp, col):
            deployment.replay(zipf_packets(7, 500), engine="interp")

        def poisoned(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("per-packet cache work on a warm cache")

        reference = interp.run(zipf_packets(7, 500))
        monkeypatch.setattr(columnar, "_simulate", poisoned)
        monkeypatch.setattr(FlowCache, "lookup", poisoned)
        monkeypatch.setattr(FlowCache, "insert", poisoned)
        replayed = col.replay(
            zipf_packets(7, 500), batch=500, engine="auto"
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)

    @pytest.mark.parametrize(
        "predicted, doctored",
        [
            (columnar._MISS_INSERTED, columnar._MISS_REJECTED),
            (columnar._HIT, columnar._MISS_REJECTED),
            (columnar._MISS_INSERTED, columnar._HIT),
        ],
    )
    def test_doctored_simulation_makes_commit_raise(
        self, monkeypatch, predicted, doctored
    ):
        _, col = cache_twins(capacity=7, limit=0)
        col.replay(zipf_packets(9, 200), engine="auto")  # warm
        simulate = columnar._simulate

        def doctor(*args):
            codes = simulate(*args)
            codes[codes.index(predicted)] = doctored
            return codes

        monkeypatch.setattr(columnar, "_simulate", doctor)
        with pytest.raises(EmulationError, match="diverged"):
            col.replay(zipf_packets(9, 200), batch=200, engine="auto")


    # -- the reach bound: which packets the step replays one by one ----

    #: capacity 4, warmed to LRU order [0, 1, 2, 3] (0 is evicted first).
    REACH_CASES = {
        # Two absent packets, two untouched keys at the LRU head: the
        # bound is met exactly, flow 3 is out of every eviction's reach.
        "evictions == untouched prefix": ([4, 5, 3, 3], None, 2),
        "one eviction more": ([4, 5, 6, 3, 3], None, 3),
        # Flow 1 sits in the prefix and is asked for again after 5 has
        # evicted it: no prefix has enough untouched keys.
        "evicted prefix key asked for again": ([4, 5, 1, 3, 3], None, 5),
        # ... and with two tokens its re-insert is rejected, so flow 1
        # is absent when the closing pass reaches it.
        "rejected re-insert": ([4, 5, 1, 3, 1], (1e-9, 2.0), 5),
        "free slots cover the misses": ([3, 2, 3], None, 0),
    }

    @pytest.mark.parametrize("case", REACH_CASES)
    def test_reach_bound(self, case):
        pattern, bucket, replayed = self.REACH_CASES[case]
        interp, col = plan_twins(capacity=4)
        flows = synth_flows(7)
        for deployment in (interp, col):
            deployment.replay(
                flow_packets(flows, [0, 1, 2, 3]), engine="interp"
            )
            if bucket is not None:
                only_cache(deployment)._limiter = TokenBucket(*bucket)
        assert_no_demotion_twin(
            interp, col, lambda: flow_packets(flows, pattern)
        )
        (name,) = col.emulator.flow_caches
        assert col.emulator.columnar_cache_arrivals == {name: len(pattern)}
        assert col.emulator.columnar_cache_replayed == (
            {name: replayed} if replayed else {}
        )

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_nested_caches_replay_a_part(self, seed):
        def build():
            deployment = Deployment(
                nested_and_diamond_caches(seed, 7, 0.0),
                EMULATED_NIC,
                native_cache=False,
            )
            install_random_entries(deployment, seed)
            return deployment

        interp, col = build(), build()
        assert len(col.emulator.flow_caches) >= 2
        assert_no_demotion_twin(
            interp, col, lambda: random_packets(seed, 400), batch=100
        )
        arrivals = col.emulator.columnar_cache_arrivals
        replayed = col.emulator.columnar_cache_replayed
        assert sum(replayed.values()) < sum(arrivals.values())
        assert all(replayed.get(name, 0) <= arrivals[name] for name in arrivals)

    def test_scalar_cache_calls_are_the_replayed_packets(self, monkeypatch):
        """Commit calls ``lookup`` once per replayed packet and
        ``insert`` once per miss among them, and nothing per key: the
        closing pass is one ``promote``."""
        interp, col = plan_twins(capacity=4096)
        flows = synth_flows(20_000)

        def stream():
            return TrafficGenerator(5).stream(
                flows, 12_288, locality="zipf", zipf_skew=1.2
            )

        interp.replay(stream(), engine="interp")
        calls = {"lookup": 0, "insert": 0}
        for method in calls:
            real = getattr(FlowCache, method)

            def counted(cache, *args, _real=real, _method=method):
                calls[_method] += 1
                return _real(cache, *args)

            monkeypatch.setattr(FlowCache, method, counted)
        col.replay(stream(), batch=4096, engine="auto")
        monkeypatch.undo()
        assert_emulators_identical(interp.emulator, col.emulator)
        assert col.emulator.columnar_demotions == {}
        (name,) = col.emulator.flow_caches
        replayed = col.emulator.columnar_cache_replayed[name]
        assert calls == {
            "lookup": replayed,
            "insert": only_cache(col).stats.misses,
        }
        assert 0 < replayed < col.emulator.columnar_cache_arrivals[name]


def test_unique_matrix_falls_back_when_two_rows_pack_alike():
    """``(a, b)`` and ``(a + 1, b - M mod 2**64)`` share a packed word:
    the exact check sees it and the lexsort partitions them apart."""
    from repro.nic.match_engine import _PACK_MULTIPLIER, _pack

    twin = (2 - _PACK_MULTIPLIER) % 2**64
    twin -= 2**64 if twin >= 2**63 else 0
    keymat = np.array(
        [[1, 2], [2, twin], [1, 2], [5, 5], [2, twin], [5, 5]],
        dtype=np.int64,
    )
    assert len(set(_pack(keymat).tolist())) == 2
    rows, kid = columnar._unique_matrix(keymat)
    assert sorted(map(tuple, rows.tolist())) == [(1, 2), (2, twin), (5, 5)]
    assert (rows[kid] == keymat).all()
    assert kid[0] == kid[2] and kid[1] == kid[4] and kid[3] == kid[5]


class TestNoScalarEngineLookup:
    """A columnar replay resolves exact, LPM and ternary tables from
    the engines' arrays: with the scalar ``lookup`` of all three
    poisoned (the interpreter twin, its caller, runs first) the replay
    still completes, bit-identical to that twin."""

    PACKETS = 16_000

    @staticmethod
    def poisoned(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("columnar replay made a scalar engine lookup")

    def assert_identical_without_scalar_lookups(
        self, monkeypatch, interp, col, flows, locality
    ):
        def stream(deployment, engine):
            return deployment.replay(
                TrafficGenerator(5).stream(
                    flows, self.PACKETS, locality=locality, zipf_skew=1.2
                ),
                batch=4096,
                engine=engine,
            )

        reference = stream(interp, "interp")
        for engine in (ExactEngine, LpmEngine, TernaryEngine):
            monkeypatch.setattr(engine, "lookup", self.poisoned)
        replayed = stream(col, "auto")
        monkeypatch.undo()
        assert stats_fingerprint(replayed) == stats_fingerprint(reference)
        assert_emulators_identical(interp.emulator, col.emulator)
        assert col.emulator.columnar_demotions == {}
        assert col.emulator.columnar_packets == self.PACKETS
        assert col.emulator.columnar_scalar_lookups == {}

    def test_200k_flows_over_a_50k_entry_lpm_table(self, monkeypatch):
        flows = synth_flows(200_000)
        routes = (
            [(flow.src, 32) for flow in flows[:100_000:2]]
            + [(ipv4(10, 1, third, 0), 24) for third in range(256)]
            + [(ipv4(10, 2, 0, 0), 16)]
        )

        def build():
            builder = ProgramBuilder("big")
            builder.table(
                "route",
                [("ipv4.src", MatchType.LPM)],
                [
                    Action("set_nhop", (prim("forward", Param(0)),)),
                    drop_action("route_miss"),
                ],
                default_action="route_miss",
                size=65536,
            )
            program = builder.build(root="route")
            # Filled before a deployment listens: an insert into a live
            # one mirrors the whole table each time.
            control_plane = ControlPlane(program)
            for i, (value, prefix_len) in enumerate(routes):
                control_plane.insert_entry(
                    "route",
                    TableEntry(
                        (LpmValue(value, prefix_len),), "set_nhop", (i % 4,)
                    ),
                )
            return Deployment(program, BLUEFIELD2, control_plane=control_plane)

        interp, col = build(), build()
        assert len(col.emulator.runtime_tables["route"]) == len(routes) > 50_000
        self.assert_identical_without_scalar_lookups(
            monkeypatch, interp, col, flows, "uniform"
        )

    def test_optimized_dash_routing_at_20k_flows(self, monkeypatch):
        interp, col = plan_twins(capacity=4096)
        self.assert_identical_without_scalar_lookups(
            monkeypatch, interp, col, synth_flows(20_000), "zipf"
        )
        (name,) = col.emulator.flow_caches
        replayed = col.emulator.columnar_cache_replayed[name]
        assert 0 < replayed < col.emulator.columnar_cache_arrivals[name]


@functools.lru_cache(maxsize=None)
def dash_plan():
    return Pipeleon(BLUEFIELD2).optimize(dash_routing.build_program())


def plan_twins(capacity: int):
    """``cache_twins("dash_routing")`` without the search per call and
    with no limiter (a test attaches its own after warming up)."""
    twins = []
    for _ in range(2):
        deployment = Deployment(
            dash_routing.build_program(),
            BLUEFIELD2,
            plan=dash_plan(),
            cache_capacity=capacity,
            cache_insertion_limit_pps=0,
        )
        dash_routing.install_base_entries(deployment.control_plane)
        twins.append(deployment)
    return twins


@st.composite
def cache_step_cases(draw):
    n_flows = draw(st.integers(min_value=1, max_value=24))
    flow = st.integers(min_value=0, max_value=n_flows - 1)
    hot = draw(st.lists(flow, min_size=1, max_size=3))
    pattern = draw(
        st.lists(
            st.one_of(st.sampled_from(hot), flow), min_size=1, max_size=60
        )
    )
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.001, 0.02]),
            min_size=len(pattern),
            max_size=len(pattern),
        )
    )
    return {
        "capacity": draw(st.integers(min_value=1, max_value=16)),
        "n_flows": n_flows,
        # Interpreted first: leaves the store empty, partly full or
        # full, in this LRU order.
        "warm": draw(st.lists(flow, max_size=40)),
        # Off, generous, starving: (rate per second, burst).
        "bucket": draw(
            st.sampled_from([None, (1e6, None), (50.0, 1.0), (50.0, 3.0)])
        ),
        "pattern": pattern,
        "timestamps": list(np.cumsum(gaps)),
        # Packets the kernels cannot express: each ends a commit early.
        "cuts": draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pattern) - 1),
                max_size=2,
                unique=True,
            )
        ),
    }


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cache_step_cases())
def test_property_cache_step_is_a_sequential_flow_cache(case):
    """The reduced cache step against one ``lookup``/``insert`` per
    packet: first the walk's outcome codes (against ``_simulate`` over
    every position and against a sequential twin cache), then whole and
    partial commits against the interpreter — store order and values,
    all of ``CacheStats`` and the token bucket's floats."""
    interp, col = plan_twins(case["capacity"])
    flows = synth_flows(case["n_flows"])
    for deployment in (interp, col):
        deployment.replay(flow_packets(flows, case["warm"]), engine="interp")
        if case["bucket"] is not None:
            only_cache(deployment)._limiter = TokenBucket(*case["bucket"])

    def packets():
        built = flow_packets(flows, case["pattern"])
        for cut in case["cuts"]:
            built[cut].set("ipv4.ttl", -(2**63))  # routing's ttl - 1
        return built

    timestamps = case["timestamps"]
    walk = col.emulator.columnar._walk(
        ColumnBatch.from_packets(packets()), 0, timestamps
    )
    (step,) = walk.cache_steps
    n = len(timestamps)
    assert step.idx.tolist() == list(range(n))
    codes = [columnar._HIT] * n
    for position, code in zip(step.replayed.tolist(), step.codes):
        codes[position] = code
    cache = only_cache(col)
    assert codes == columnar._simulate(
        cache,
        columnar._lru_keys(cache, step.slots),
        range(n),
        step.kid.tolist(),
        timestamps,
    )
    sequential = copy.deepcopy(cache)
    for k, now_s, code in zip(step.kid.tolist(), timestamps, codes):
        if sequential.lookup(step.keys[k]) is not None:
            assert code == columnar._HIT or code >= 0
        elif sequential.insert(step.keys[k], (), now_s):
            assert code == columnar._MISS_INSERTED
        else:
            assert code == columnar._MISS_REJECTED

    reference, replayed = RunStats(), RunStats()
    interp.emulator.replay_batch(
        packets(), reference, timestamps=timestamps, engine="interp"
    )
    col.emulator.replay_batch(
        packets(), replayed, timestamps=np.array(timestamps), engine="auto"
    )
    assert stats_fingerprint(replayed) == stats_fingerprint(reference)
    assert_emulators_identical(interp.emulator, col.emulator)
    assert sum(col.emulator.columnar_demotions.values()) == len(case["cuts"])


def nested_and_diamond_caches(seed: int, capacity: int, limit: float):
    """A synthesized program with a cache across its first branch
    diamond and, inside every run of three tables or more, an outer
    cache over the run and an inner one over part of it — at the
    start (outer miss falls straight into the inner lookup), in the
    middle, or at the end (both recordings close at one ``hit_next``)."""
    program = ProgramSynthesizer(
        SynthesisConfig(seed=seed, n_pipelets=4, join_runs=True)
    ).generate()
    pipelets = partition(program)
    knobs = {"capacity": capacity, "insertion_limit_pps": limit}
    for group in find_groups(program, pipelets)[:1]:
        program = apply_group_cache(program, group, **knobs).program
    for i, pipelet in enumerate(pipelets):
        run = list(pipelet.table_names)
        if len(run) < 3:
            continue
        inner = (run[:2], run[1:-1] or run[1:2], run[-2:])[(seed + i) % 3]
        try:
            program = apply_cache(program, run, **knobs).program
            program = apply_cache(program, inner, **knobs).program
        except TransformError:
            continue  # switch-case run: not cacheable
    return program


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    capacity=st.sampled_from([1, 2, 7, 64]),
    limit=st.sampled_from([0.0, 50.0, 5000.0]),
    pps=st.sampled_from([None, 1e4, 1e6]),
    batch=st.sampled_from([5, 37, 256]),
)
def test_property_nested_and_diamond_caches(seed, capacity, limit, pps, batch):
    def build():
        deployment = Deployment(
            nested_and_diamond_caches(seed, capacity, limit),
            EMULATED_NIC,
            native_cache=bool(seed % 2),
        )
        install_random_entries(deployment, seed)
        return deployment

    interp, col = build(), build()
    assert_no_demotion_twin(
        interp, col, lambda: random_packets(seed, 120), pps=pps, batch=batch
    )


def install_random_entries(deployment: Deployment, seed: int) -> None:
    rng = random.Random(seed)
    for table in deployment.original.plain_tables():
        if any(k.match_type.value != "exact" for k in table.keys):
            continue
        actions = list(table.actions)
        used = set()
        for _ in range(rng.randrange(0, 4)):
            values = tuple(rng.randrange(0, 6) for _ in table.keys)
            if values in used:
                continue
            used.add(values)
            deployment.insert_entry(
                table.name, exact_entry(values, rng.choice(actions))
            )


def random_packets(seed: int, count: int) -> list:
    rng = random.Random(seed)
    packets = []
    for _ in range(count):
        packet = make_packet(
            src=rng.randrange(1, 50),
            dst=rng.randrange(1, 50),
            sport=rng.randrange(1, 20),
            dport=rng.randrange(1, 20),
        )
        packet.set("ipv4.tos", rng.randrange(0, 4))
        for i in range(0, 64, 4):
            packet.set(f"hdr.f{i}", rng.randrange(0, 6))
        packets.append(packet)
    return packets


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    optimize=st.booleans(),
    batch=st.integers(min_value=1, max_value=48),
)
def test_property_random_programs_bit_identical(seed, optimize, batch):
    """Random DAGs, entries and traffic: stats and state bit-identical,
    every packet accounted columnar-or-demoted."""
    target = EMULATED_NIC if optimize else BLUEFIELD2

    def build(stride):
        program = ProgramSynthesizer(
            SynthesisConfig(seed=seed, n_pipelets=3)
        ).generate()
        plan = Pipeleon(target).optimize(program) if optimize else None
        deployment = Deployment(
            program,
            target,
            plan=plan,
            native_cache=False,
            sample_stride=stride,
        )
        install_random_entries(deployment, seed)
        return deployment

    stride = 3 if seed % 2 else 1
    interp, col = build(stride), build(stride)
    n = 60
    reference = interp.run(random_packets(seed, n), offered_pps=1e6)
    replayed = col.replay(
        random_packets(seed, n),
        offered_pps=1e6,
        batch=batch,
        engine="auto",
    )
    assert stats_fingerprint(replayed) == stats_fingerprint(reference)
    assert_emulators_identical(interp.emulator, col.emulator)
    assert_demotions_accounted(col.emulator, n)
