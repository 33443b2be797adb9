"""One replay input: one core reads flow batches the way a fleet does.

Every replay, at every engine and ``jobs``, reads its input through
``column_source``: a ``ColumnSource`` hands out its own flow batches,
and any other ``Packet`` iterable is read whole into one
``PacketFlows`` set. So

* no replay writes to the caller's packets (``run``, the per-packet
  reference, is the one entry point that processes them in place);
* one core and a fleet cut a ``Packet`` list into the same
  ``(flow set, chosen, size_bytes)`` sequence;
* a list replayed on one core carries its flow set into the walk, so
  the match kernels' plan memos serve it from its second batch on.
"""

from __future__ import annotations

import pytest

from repro.apps import EXAMPLE_APPS
from repro.core import Deployment
from repro.nic.columnar import PacketFlows
from repro.nic.targets import BLUEFIELD2
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator


def deploy(app: str, jobs: int = 1, engine: str = "auto", **knobs):
    build, install = EXAMPLE_APPS[app]
    deployment = Deployment(
        build(), BLUEFIELD2, jobs=jobs, engine=engine, **knobs
    )
    install(deployment.control_plane)
    return deployment


def mixed_packets() -> list:
    """Two packet sizes, and flows of two header-field sets (the second
    set's packets carry an extra field), so the flow set is not
    uniform and the list has three size runs."""
    flows = synth_flows(48)
    tagged = [flow.with_fields(**{"vlan.id": 7}) for flow in flows[:8]]
    packets = list(TrafficGenerator(1).stream(flows, 500, locality="zipf"))
    packets += list(
        TrafficGenerator(2).stream(tagged, 60, locality="zipf", size_bytes=128)
    )
    packets += list(TrafficGenerator(3).stream(flows, 300, size_bytes=128))
    return packets


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("engine", ["auto", "interp"])
@pytest.mark.parametrize("app", sorted(EXAMPLE_APPS))
def test_no_replay_writes_to_the_callers_packets(app, engine, jobs):
    packets = mixed_packets()
    before = [packet.clone() for packet in packets]
    with deploy(app, jobs=jobs, engine=engine) as deployment:
        stats = deployment.replay(packets, batch=128)
    assert stats.packets == len(packets)
    assert packets == before


def test_run_processes_the_callers_own_packets():
    """The per-packet reference keeps its contract: ``run`` is handed
    the packets to process, and l2l3_acl's route rewrites them."""
    packets = mixed_packets()
    before = [packet.clone() for packet in packets]
    deploy("l2l3_acl").run(packets)
    assert sum(a != b for a, b in zip(packets, before)) > len(packets) // 2


def test_one_core_cuts_a_list_as_the_fleet_does(monkeypatch):
    cuts = []
    flow_batches = PacketFlows.flow_batches

    def recording(self, size):
        for columns, chosen, size_bytes in flow_batches(self, size):
            cuts[-1].append(
                (
                    columns.names,
                    [values.tolist() for values in columns.values],
                    columns.group.tolist(),
                    [flow.packet() for flow in columns.flows],
                    chosen.tolist(),
                    size_bytes,
                )
            )
            yield columns, chosen, size_bytes

    monkeypatch.setattr(PacketFlows, "flow_batches", recording)
    for jobs in (1, 2):
        cuts.append([])
        with deploy("l2l3_acl", jobs=jobs, batch=128) as deployment:
            deployment.replay(mixed_packets(), batch=128)
    one_core, fleet = cuts
    # 500 + 60 + 300 packets in size runs of 500 and 360, 128 a chunk.
    assert [len(cut[4]) for cut in one_core] == [128] * 3 + [116] + [
        128
    ] * 2 + [104]
    assert one_core == fleet


def test_a_list_on_one_core_reaches_the_plan_memos():
    """Round-robin over every flow, twice: the second batch finds each
    flow's plan in the memo the first one built."""
    flows = synth_flows(64)
    packets = list(
        TrafficGenerator(4).stream(flows, 128, locality="round_robin")
    )
    deployment = deploy("l2l3_acl")
    deployment.replay(packets, batch=64)
    emulator = deployment.emulator
    assert emulator.columnar_memo_hits
    assert emulator.columnar_memo_guard_failures == {}
    # Both batches bring every flow to the same nodes: the first one
    # misses at each arrival, the second hits.
    assert emulator.columnar_memo_hits == emulator.columnar_memo_misses
