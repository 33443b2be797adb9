"""One clock for every paced replay.

Under ``offered_pps`` the packet at 1-based position ``k`` of a replay
runs at ``t0 + k / offered_pps``, ``t0`` being the clock when the
replay starts, and the clock ends at the last packet's value. The
per-packet reference (``run``), one core's ``auto`` and ``interp``
replays and a two-worker fleet must see the same value for every packet
and leave the same clock, replay after replay: a clock that adds ``dt``
once per packet drifts from one that multiplies.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import l2l3_acl
from repro.core import Deployment
from repro.nic.emulator import NicEmulator
from repro.nic.targets import BLUEFIELD2
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator

#: 30 000 packets at 3e5 pps: after as many adds of ``dt``, one core's
#: clock once read 0.09999999999994635 where the fleet's read 0.1.
PPS = 3e5
PACKETS = (18_000, 12_000)
FLOWS = synth_flows(64)


def stream(seed: int):
    return TrafficGenerator(seed).stream(FLOWS, sum(PACKETS), locality="zipf")


def deploy(jobs: int = 1, engine: str = "auto") -> Deployment:
    deployment = Deployment(
        l2l3_acl.build_program(), BLUEFIELD2, jobs=jobs, engine=engine
    )
    l2l3_acl.install_base_entries(deployment.control_plane)
    return deployment


def slices(seed: int):
    """The seed's packets, cut into the two replays' lists."""
    packets = list(stream(seed))
    first = PACKETS[0]
    return packets[:first], packets[first:]


@pytest.fixture
def recorded(monkeypatch, tmp_path):
    """Every clock value a replay hands an engine, per process.

    ``replay_batch`` writes its batch's values to a file named after
    the process, so a fleet's forked workers (which inherit the patch)
    report too; ``process`` records the clock of each packet ``run``
    interprets.
    """
    replay_batch = NicEmulator.replay_batch
    process = NicEmulator.process
    interpreted: list[float] = []

    def recording_batch(self, packets, stats, timestamps=None, **kw):
        if timestamps is not None:
            with open(tmp_path / f"batch-{os.getpid()}", "a") as out:
                out.writelines(f"{float(v)!r}\n" for v in timestamps)
        return replay_batch(self, packets, stats, timestamps, **kw)

    def recording_process(self, packet):
        interpreted.append(self.clock.now_s)
        return process(self, packet)

    monkeypatch.setattr(NicEmulator, "replay_batch", recording_batch)
    monkeypatch.setattr(NicEmulator, "process", recording_process)

    def batch_values() -> list[float]:
        values = []
        for path in sorted(tmp_path.glob("batch-*")):
            values += [float(line) for line in path.read_text().split()]
            path.unlink()
        return values

    return interpreted, batch_values


def test_every_tier_and_the_fleet_keep_one_clock(recorded):
    interpreted, batch_values = recorded
    clocks = {}
    values = {}

    reference = deploy()
    for packets in slices(3):
        reference.run(packets, offered_pps=PPS)
    values["run"] = list(interpreted)
    clocks["run"] = reference.clock.now_s
    interpreted.clear()

    for engine in ("auto", "interp"):
        one_core = deploy(engine=engine)
        for packets in slices(3):
            one_core.replay(packets, offered_pps=PPS)
        values[engine] = batch_values()
        clocks[engine] = one_core.clock.now_s
        interpreted.clear()

    with deploy(jobs=2) as fleet:
        for packets in slices(3):
            fleet.replay(packets, offered_pps=PPS)
        clocks["fleet"] = fleet.emulator.clock.now_s
    # Each worker saw its own shard's packets, in order.
    values["fleet"] = sorted(batch_values())

    dt = 1.0 / PPS
    first = PACKETS[0]
    expected = [dt * k for k in range(1, first + 1)]
    expected += [expected[-1] + dt * k for k in range(1, PACKETS[1] + 1)]
    for name, seen in values.items():
        assert seen == expected, name
    assert set(clocks.values()) == {expected[-1]}, clocks


def test_the_clock_ends_at_the_last_packet_of_each_replay():
    """Two replays in a row on one core and on a fleet: each ends with
    the clock at its own last packet's value, and an unpaced replay
    leaves it where it was."""
    first, second = slices(5)
    dt = 1.0 / PPS
    one_core = deploy()
    with deploy(jobs=2) as fleet:
        for deployment in (one_core, fleet):
            t0 = deployment.clock.now_s
            deployment.replay(first, offered_pps=PPS)
            middle = deployment.clock.now_s
            assert middle == t0 + dt * len(first)
            deployment.replay(second, offered_pps=PPS)
            end = deployment.clock.now_s
            assert end == middle + dt * len(second)
            deployment.replay(first)
            assert deployment.clock.now_s == end
