"""ShardedDeployment and controller wiring: profiles, redeploys.

Complements ``test_nic_sharding.py`` (raw engine equivalence) with the
deployment-layer contracts: shard-merged profiles must match a
single-core deployment's profile, and the adaptation loop must work
unchanged when ``jobs > 1`` — including shard-wide redeploys.
"""

import pytest

from repro.apps import l2l3_acl
from repro.core import (
    ControllerOptions,
    Deployment,
    PipeleonController,
    ShardedDeployment,
)
from repro.core.sharded import ShardedDeployment as ShardedDeploymentDirect
from repro.nic.targets import EMULATED_NIC
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator


def packets(seed: int, n: int = 400):
    flows = synth_flows(64)
    return list(TrafficGenerator(seed).stream(flows, n, locality="zipf"))


def make_pair(n_workers: int = 2):
    single = Deployment(l2l3_acl.build_program(), EMULATED_NIC)
    l2l3_acl.install_base_entries(single.control_plane)
    sharded = ShardedDeployment(
        l2l3_acl.build_program(), EMULATED_NIC, n_workers=n_workers
    )
    l2l3_acl.install_base_entries(sharded.control_plane)
    return single, sharded


class TestShardMergedProfile:
    def test_profile_matches_single_core(self):
        single, sharded = make_pair(4)
        try:
            single.replay(packets(5), offered_pps=1e6)
            sharded.replay(packets(5), offered_pps=1e6)
            reference = single.profile(offered_pps=1e6)
            merged = sharded.profile(offered_pps=1e6)
            assert set(merged.action_probs) == set(
                reference.action_probs
            )
            for table, probs in reference.action_probs.items():
                for action, prob in probs.items():
                    assert merged.action_probs[table][
                        action
                    ] == pytest.approx(prob, abs=1e-12)
            for branch, prob in reference.branch_probs.items():
                assert merged.branch_probs[branch] == pytest.approx(
                    prob, abs=1e-12
                )
            assert merged.entry_counts == reference.entry_counts
            assert merged.table_m == reference.table_m
            assert merged.update_rates == reference.update_rates
            for name, rate in reference.cache_hit_rates.items():
                assert merged.cache_hit_rates[name] == pytest.approx(
                    rate, abs=1e-12
                )
            # Shard loads sum back to the offered total.
            assert merged.offered_pps == pytest.approx(1e6)
        finally:
            sharded.close()

    def test_profile_support_counts_pool(self):
        _, sharded = make_pair(2)
        try:
            sharded.replay(packets(6, n=200))
            profile = sharded.profile()
            # Support equals sampled observations pooled over shards:
            # at stride 1, each table's support is the traffic that
            # reached it, bounded by the stream size.
            assert profile.action_support
            for support in profile.action_support.values():
                assert 0 < support <= 200
        finally:
            sharded.close()


class TestShardedDeploymentLifecycle:
    def test_close_detaches_listener_and_workers(self):
        _, sharded = make_pair(2)
        listeners = sharded.control_plane._listeners
        assert sharded._on_update in listeners
        sharded.close()
        assert sharded._on_update not in listeners
        assert sharded.emulator._closed
        sharded.close()  # idempotent

    def test_context_manager(self):
        with ShardedDeploymentDirect(
            l2l3_acl.build_program(), EMULATED_NIC, n_workers=2
        ) as sharded:
            l2l3_acl.install_base_entries(sharded.control_plane)
            stats = sharded.replay(packets(1, n=50))
            assert stats.packets == 50
        assert sharded.emulator._closed

    def test_run_is_replay(self):
        single, sharded = make_pair(2)
        try:
            reference = single.run(packets(9, n=100), offered_pps=1e6)
            replayed = sharded.run(packets(9, n=100), offered_pps=1e6)
            assert replayed.packets == reference.packets
            assert (
                replayed.total_latency_ns == reference.total_latency_ns
            )
        finally:
            sharded.close()


class TestControllerJobs:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            PipeleonController(
                l2l3_acl.build_program(), EMULATED_NIC, jobs=0
            )

    def test_sharded_controller_matches_single(self):
        reference_controller = PipeleonController(
            l2l3_acl.build_program(), EMULATED_NIC, enabled=False
        )
        sharded_controller = PipeleonController(
            l2l3_acl.build_program(), EMULATED_NIC, enabled=False, jobs=2
        )
        try:
            assert isinstance(
                sharded_controller.deployment, ShardedDeployment
            )
            for controller in (
                reference_controller,
                sharded_controller,
            ):
                l2l3_acl.install_base_entries(controller.control_plane)
            reference = reference_controller.deployment.replay(
                packets(13), offered_pps=1e6
            )
            replayed = sharded_controller.deployment.replay(
                packets(13), offered_pps=1e6
            )
            assert replayed.packets == reference.packets
            assert replayed.dropped == reference.dropped
            assert (
                replayed.total_latency_ns == reference.total_latency_ns
            )
            assert replayed._busy_ns == reference._busy_ns
        finally:
            sharded_controller.deployment.close()

    def test_replay_batch_above_ring_geometry(self):
        """``replay(batch=4096)`` on a fleet whose rings hold 256-packet
        batches is dispatched at the ring's batch (a longer batch would
        not fit a slot and go over the pipe), and says so."""
        single = Deployment(l2l3_acl.build_program(), EMULATED_NIC)
        l2l3_acl.install_base_entries(single.control_plane)
        controller = PipeleonController(
            l2l3_acl.build_program(),
            EMULATED_NIC,
            enabled=False,
            jobs=2,
        )
        try:
            l2l3_acl.install_base_entries(controller.control_plane)
            fleet = controller.deployment.emulator
            assert fleet.batch == 256
            reference = single.replay(packets(17, n=9000), batch=4096)
            replayed = controller.deployment.replay(
                packets(17, n=9000), batch=4096
            )
            assert replayed.packets == reference.packets == 9000
            assert replayed.total_latency_ns == reference.total_latency_ns
            assert replayed._busy_ns == reference._busy_ns
            transport = fleet.transport_stats()
            assert transport["batch"] == 256
            assert transport["clamped_replays"] == 1
            assert transport["totals"]["fallback_capacity"] == 0
            assert transport["totals"]["pushed_packets"] == 9000
            controller.deployment.replay(packets(18, n=500), batch=64)
            assert fleet.transport_stats()["clamped_replays"] == 1
        finally:
            controller.deployment.close()

    def test_redeploy_is_shard_wide(self):
        controller = PipeleonController(
            l2l3_acl.build_program(),
            EMULATED_NIC,
            jobs=2,
            options=ControllerOptions(profile_period_s=1.0),
        )
        try:
            l2l3_acl.install_base_entries(controller.control_plane)
            controller.deployment.replay(packets(2), offered_pps=1e6)
            previous = controller.deployment
            changed = controller.maybe_reoptimize()
            if changed:
                # Plan change: the whole worker fleet was torn down and
                # reforked from the newly materialised template.
                assert controller.deployment is not previous
                assert previous.emulator._closed
            assert isinstance(controller.deployment, ShardedDeployment)
            assert controller.deployment.n_workers == 2
            # The new fleet serves traffic.
            stats = controller.deployment.replay(
                packets(3, n=100), offered_pps=1e6
            )
            assert stats.packets == 100
        finally:
            controller.deployment.close()
