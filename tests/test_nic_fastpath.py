"""More ``auto`` vs. interpreter cases: per-packet results on every
app and target, kernel recompilation, cache invalidation.

These behaviours were first pinned against the closure tier (hence the
file name, kept so the test ids stay stable); the tier is gone and the
checks now aim at what replaced it — the columnar kernels, compared on
twin deployments against ``NicEmulator.process``. Helpers live in
``tests/test_columnar.py``.
"""

import pytest

from repro.apps import l2l3_acl
from repro.core import Deployment, Pipeleon
from repro.errors import EmulationError
from repro.ir import exact_entry, linear_program
from repro.nic.emulator import NicEmulator
from repro.nic.packet import make_packet
from repro.nic.targets import AGILIO_CX, BLUEFIELD2, EMULATED_NIC

from .test_columnar import (
    APPS,
    TARGETS,
    app_packets,
    assert_emulators_identical,
    assert_per_packet_identical,
    make_twin_deployments,
    stats_fingerprint,
)

#: One-core stats keep their per-packet latencies in order.
pytestmark = pytest.mark.usefixtures("ordered_stats")


class TestDifferentialApps:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize(
        "target", TARGETS, ids=lambda t: t.name
    )
    def test_per_packet_results_identical(self, app, target):
        interp, col = make_twin_deployments(app, target)
        assert_per_packet_identical(interp, col, lambda: app_packets(7))
        assert_emulators_identical(interp.emulator, col.emulator)

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_optimized_batch_replay_identical(self, app):
        target = EMULATED_NIC
        interp, col = make_twin_deployments(app, target, optimize=True)
        reference = interp.run(app_packets(11), offered_pps=1e6)
        replayed = col.replay(
            app_packets(11), offered_pps=1e6, batch=37
        )
        assert stats_fingerprint(replayed) == stats_fingerprint(
            reference
        )
        assert_emulators_identical(interp.emulator, col.emulator)


class TestRecompilation:
    def test_entry_update_triggers_recompile(self):
        program = linear_program("p", 2)
        emulator = NicEmulator(program, BLUEFIELD2)
        first = emulator.columnar
        assert emulator.columnar is first  # cached while fresh
        emulator.set_table_entries(
            "p_t0", [exact_entry((1,), "p_t0_a0")]
        )
        assert first.stale()
        assert emulator.columnar is not first

    def test_results_track_entry_updates(self):
        interp, col = make_twin_deployments("l2l3_acl", BLUEFIELD2)
        assert_per_packet_identical(
            interp, col, lambda: app_packets(3, n=50)
        )
        # Deny a new port; both engines must agree on the post-update
        # behaviour (the kernels recompile transparently).
        from repro.ir.entries import ExactValue, TableEntry

        for deployment in (interp, col):
            deployment.insert_entry(
                "l2l3_acl",
                TableEntry((ExactValue(80),), "acl_deny"),
            )
        assert_per_packet_identical(
            interp, col, lambda: app_packets(5, n=50)
        )

    def test_carried_cache_detected_as_stale(self):
        program = l2l3_acl.build_program()
        target = EMULATED_NIC
        plan = Pipeleon(target).optimize(program)
        deployment = Deployment(program, target, plan=plan)
        l2l3_acl.install_base_entries(deployment.control_plane)
        assert deployment.emulator.flow_caches
        engine = deployment.emulator.columnar
        # Swap a cache object (what warm-carry redeployment does).
        name = next(iter(deployment.emulator.flow_caches))
        cache = deployment.emulator.flow_caches[name]
        deployment.emulator.flow_caches[name] = type(cache)(
            capacity=cache.capacity
        )
        assert engine.stale()
        assert deployment.emulator.columnar is not engine

    def test_cycle_guard_matches_interpreter(self):
        """A cyclic program has no topological order: every batch is
        interpreted, so the step guard raises exactly as it does there."""
        program = linear_program("cyc", 2)
        tail = program.table("cyc_t1")
        for action in tail.next_map:
            tail.next_map[action] = "cyc_t0"
        emulator = NicEmulator(program, BLUEFIELD2, max_steps=50)
        with pytest.raises(EmulationError, match="exceeded 50 steps"):
            emulator.replay([make_packet()], engine="auto")


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
