"""Differential tests: compiled fast path vs. the reference interpreter.

The fast-path replay engine is only allowed to exist because it is
bit-identical to ``NicEmulator.process`` — same results, same counter
banks, same cache contents and stats, same per-pool busy time. These
tests replay identical traffic through both engines (on twin
deployments, so neither run perturbs the other's caches or counters)
and compare everything observable.
"""

import pytest

from repro.apps import (
    acl_chain,
    dash_routing,
    l2l3_acl,
    load_balancer,
    migration,
    nf_composition,
)
from repro.core import Deployment, Pipeleon
from repro.errors import EmulationError
from repro.ir import exact_entry, linear_program
from repro.nic.emulator import NicEmulator
from repro.nic.packet import Packet, make_packet
from repro.nic.stats import RunStats
from repro.nic.targets import AGILIO_CX, BLUEFIELD2, EMULATED_NIC
from repro.traffic.flows import synth_flows
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
    deployments = []
    for _ in range(2):
        program = build()
        plan = Pipeleon(target).optimize(program) if optimize else None
        deployment = Deployment(
            program, target, plan=plan, **deployment_knobs
        )
        install(deployment.control_plane)
        deployments.append(deployment)
    return deployments


def cache_state(cache) -> tuple:
    """Everything observable about a cache: LRU order, not just
    membership; the whole ``CacheStats``; the token bucket's floats."""
    limiter = cache._limiter
    return (
        list(cache._store.items()),
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


class TestDifferentialApps:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize(
        "target", TARGETS, ids=lambda t: t.name
    )
    def test_per_packet_results_identical(self, app, target):
        interp, fast = make_twin_deployments(app, target)
        for reference, replayed in zip(
            app_packets(7), app_packets(7)
        ):
            expected = interp.emulator.process(reference)
            actual = fast.emulator.replay_one(replayed)
            assert actual == expected
            assert replayed.fields == reference.fields
            assert replayed.metadata == reference.metadata
        assert_emulators_identical(interp.emulator, fast.emulator)

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_optimized_batch_replay_identical(self, app):
        target = EMULATED_NIC
        interp, fast = make_twin_deployments(app, target, optimize=True)
        reference = interp.run(app_packets(11), offered_pps=1e6)
        replayed = fast.replay(
            app_packets(11), offered_pps=1e6, batch=37
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(
            reference
        )
        assert_emulators_identical(interp.emulator, fast.emulator)


class TestRecompilation:
    def test_entry_update_triggers_recompile(self):
        program = linear_program("p", 2)
        emulator = NicEmulator(program, BLUEFIELD2)
        first = emulator.fastpath
        assert emulator.fastpath is first  # cached while fresh
        emulator.set_table_entries(
            "p_t0", [exact_entry((1,), "p_t0_a0")]
        )
        assert first.stale()
        assert emulator.fastpath is not first

    def test_results_track_entry_updates(self):
        interp, fast = make_twin_deployments("l2l3_acl", BLUEFIELD2)
        packets_a = app_packets(3, n=50)
        packets_b = app_packets(3, n=50)
        for reference, replayed in zip(packets_a, packets_b):
            assert fast.emulator.replay_one(
                replayed
            ) == interp.emulator.process(reference)
        # Deny a new port; both engines must agree on the post-update
        # behaviour (the fast path recompiles transparently).
        from repro.ir.entries import ExactValue, TableEntry

        for deployment in (interp, fast):
            deployment.insert_entry(
                "l2l3_acl",
                TableEntry((ExactValue(80),), "acl_deny"),
            )
        for reference, replayed in zip(
            app_packets(5, n=50), app_packets(5, n=50)
        ):
            assert fast.emulator.replay_one(
                replayed
            ) == interp.emulator.process(reference)

    def test_carried_cache_detected_as_stale(self):
        program = l2l3_acl.build_program()
        target = EMULATED_NIC
        plan = Pipeleon(target).optimize(program)
        deployment = Deployment(program, target, plan=plan)
        l2l3_acl.install_base_entries(deployment.control_plane)
        assert deployment.emulator.flow_caches
        engine = deployment.emulator.fastpath
        # Swap a cache object (what warm-carry redeployment does).
        name = next(iter(deployment.emulator.flow_caches))
        cache = deployment.emulator.flow_caches[name]
        deployment.emulator.flow_caches[name] = type(cache)(
            capacity=cache.capacity
        )
        assert engine.stale()
        assert deployment.emulator.fastpath is not engine

    def test_cycle_guard_matches_interpreter(self):
        program = linear_program("cyc", 2)
        tail = program.table("cyc_t1")
        for action in tail.next_map:
            tail.next_map[action] = "cyc_t0"
        emulator = NicEmulator(program, BLUEFIELD2, max_steps=50)
        with pytest.raises(EmulationError, match="exceeded 50 steps"):
            emulator.replay_one(make_packet())


class TestCacheInvalidation:
    def _deployed(self, target=EMULATED_NIC):
        program = l2l3_acl.build_program()
        plan = Pipeleon(target).optimize(program)
        deployment = Deployment(program, target, plan=plan)
        l2l3_acl.install_base_entries(deployment.control_plane)
        return deployment

    def test_reverse_index_matches_covers(self):
        deployment = self._deployed()
        emulator = deployment.emulator
        for name in emulator.flow_caches:
            info = emulator.program.table(name).cache_info
            for covered in info.covers:
                assert name in emulator._cache_cover_index[covered]

    def test_covered_update_invalidates(self):
        deployment = self._deployed()
        emulator = deployment.emulator
        name = next(iter(emulator.flow_caches))
        cache = emulator.flow_caches[name]
        covered = next(
            iter(emulator.program.table(name).cache_info.covers)
        )
        deployment.replay(app_packets(1, n=100))
        assert len(cache) > 0
        assert emulator.invalidate_caches_covering(covered) == [name]
        assert len(cache) == 0

    def test_uncovered_update_leaves_native_cache_warm(self):
        program = l2l3_acl.build_program()
        emulator = NicEmulator(program, AGILIO_CX, native_cache=True)
        emulator.replay(app_packets(2, n=100))
        warm = len(emulator.native_cache)
        assert warm > 0
        # A table this program doesn't read must not flush it...
        assert emulator.invalidate_caches_covering("other_prog_t") == []
        assert len(emulator.native_cache) == warm
        # ...but a datapath table must.
        emulator.invalidate_caches_covering(program.root)
        assert len(emulator.native_cache) == 0
