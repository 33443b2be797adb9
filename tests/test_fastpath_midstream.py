"""Regression: batch replay under mid-stream control-plane updates.

The columnar engine caches per-node kernels; control-plane activity
between batches (entry inserts/deletes, cache flushes) must trigger
recompilation so replay stays bit-identical to the reference
interpreter across the update. Each phase below lands an update between
two replay calls and compares everything observable afterwards. (First
written against the closure tier; the file name is kept so the test ids
stay stable.)
"""

import pytest

from repro.apps import l2l3_acl
from repro.core import Deployment
from repro.ir.entries import ExactValue, TableEntry
from repro.nic.targets import BLUEFIELD2, EMULATED_NIC
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator
from tests.test_run_stats_reference import ListRunStats

#: Both twins record into the per-packet list reference, so
#: ``fingerprint`` compares latencies in packet order.
pytestmark = pytest.mark.usefixtures("ordered_stats")


def app_packets(seed: int, n: int = 150):
    flows = synth_flows(48) + synth_flows(16, dport=6666)
    return list(
        TrafficGenerator(seed).stream(flows, n, locality="zipf")
    )


def fingerprint(stats: ListRunStats) -> tuple:
    return (
        stats.packets,
        stats.dropped,
        stats.migrations,
        stats.total_latency_ns,
        stats.total_bytes,
        stats.latencies,
        stats._busy_ns,
    )


def assert_state_identical(interp: Deployment, fast: Deployment):
    em_a, em_b = interp.emulator, fast.emulator
    assert em_a.counters.snapshot() == em_b.counters.snapshot()
    assert em_a.explicit_counters == em_b.explicit_counters
    for name, cache in em_a.flow_caches.items():
        other = em_b.flow_caches[name]
        assert list(cache.items()) == list(other.items())
        assert (
            cache.stats.hits,
            cache.stats.misses,
            cache.stats.insertions,
            cache.stats.invalidations,
        ) == (
            other.stats.hits,
            other.stats.misses,
            other.stats.insertions,
            other.stats.invalidations,
        )


def make_twins(target):
    pair = []
    for _ in range(2):
        deployment = Deployment(l2l3_acl.build_program(), target)
        l2l3_acl.install_base_entries(deployment.control_plane)
        pair.append(deployment)
    return pair


@pytest.mark.parametrize(
    "target", [BLUEFIELD2, EMULATED_NIC], ids=lambda t: t.name
)
def test_updates_between_batches_stay_identical(target):
    interp, fast = make_twins(target)

    def both_phases(seed):
        reference = interp.run(app_packets(seed), offered_pps=1e6)
        replayed = fast.replay(
            app_packets(seed), offered_pps=1e6, batch=32
        )
        assert fingerprint(replayed) == fingerprint(reference)

    both_phases(21)
    # Insert: deny a previously-allowed port mid-stream.
    deny = TableEntry((ExactValue(80),), "acl_deny")
    inserted = [
        deployment.insert_entry("l2l3_acl", deny.clone())
        for deployment in (interp, fast)
    ]
    both_phases(22)
    # Delete: lift the deny again.
    for deployment, entry_id in zip((interp, fast), inserted):
        deployment.delete_entry("l2l3_acl", entry_id)
    both_phases(23)
    # Flush: cold-start every cache without touching entries.
    for deployment in (interp, fast):
        deployment.control_plane.flush_caches()
        for cache in deployment.emulator.flow_caches.values():
            assert len(cache) == 0
    both_phases(24)
    assert_state_identical(interp, fast)


def test_flush_event_reaches_native_cache():
    from repro.nic.emulator import NicEmulator
    from repro.nic.targets import AGILIO_CX

    deployment = Deployment(
        l2l3_acl.build_program(), AGILIO_CX, native_cache=True
    )
    l2l3_acl.install_base_entries(deployment.control_plane)
    deployment.replay(app_packets(2, n=100))
    emulator = deployment.emulator
    assert isinstance(emulator, NicEmulator)
    assert emulator.native_cache is not None
    assert len(emulator.native_cache) > 0
    deployment.control_plane.flush_caches()
    assert len(emulator.native_cache) == 0


def test_drop_behaviour_actually_changes_after_insert():
    """The mid-stream update is observable, not a no-op."""
    interp, fast = make_twins(EMULATED_NIC)
    before_interp = interp.run(app_packets(31), offered_pps=1e6)
    before_fast = fast.replay(app_packets(31), offered_pps=1e6)
    assert before_fast.dropped == before_interp.dropped
    deny = TableEntry((ExactValue(80),), "acl_deny")
    for deployment in (interp, fast):
        deployment.insert_entry("l2l3_acl", deny.clone())
    after_interp = interp.run(app_packets(31), offered_pps=1e6)
    after_fast = fast.replay(app_packets(31), offered_pps=1e6)
    assert after_fast.dropped > before_fast.dropped
    assert after_fast.dropped == after_interp.dropped
