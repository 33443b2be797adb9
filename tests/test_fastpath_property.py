"""Property test: ``auto`` == interpreter on random programs.

Seeded-random differential testing over programs from the synthesizer
(random DAG shapes, match kinds, drop tables), random entries and random
traffic — on the base layout and under full optimizer plans (caches,
merges, reorders). Every packet's latency, verdict and egress port and
the final counter banks must be identical. (First written against the
closure tier; the file name is kept so the test ids stay stable.)
"""

import random

import pytest

from repro.core import Deployment, Pipeleon
from repro.ir import exact_entry
from repro.nic.packet import Packet, make_packet
from repro.nic.targets import BLUEFIELD2, EMULATED_NIC
from repro.synthesis import ProgramSynthesizer, SynthesisConfig

from .test_columnar import assert_per_packet_identical


def random_packets(seed: int, count: int = 40) -> list[Packet]:
    """Field values overlap the synthesizer's pools so tables hit."""
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


def install_random_entries(deployment: Deployment, seed: int) -> None:
    rng = random.Random(seed)
    for table in deployment.original.plain_tables():
        if any(
            k.match_type.value != "exact" for k in table.keys
        ):
            continue
        actions = list(table.actions)
        used = set()
        for _ in range(rng.randrange(0, 4)):
            values = tuple(
                rng.randrange(0, 6) for _ in table.keys
            )
            if values in used:
                continue
            used.add(values)
            deployment.insert_entry(
                table.name, exact_entry(values, rng.choice(actions))
            )


def build_deployment(seed: int, target, optimize: bool) -> Deployment:
    program = ProgramSynthesizer(
        SynthesisConfig(seed=seed, n_pipelets=4)
    ).generate()
    plan = Pipeleon(target).optimize(program) if optimize else None
    deployment = Deployment(
        program, target, plan=plan, native_cache=False
    )
    install_random_entries(deployment, seed)
    return deployment


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("optimize", [False, True], ids=["base", "opt"])
def test_random_programs_bit_identical(seed, optimize):
    target = EMULATED_NIC if optimize else BLUEFIELD2
    interp = build_deployment(seed, target, optimize)
    fast = build_deployment(seed, target, optimize)
    assert_per_packet_identical(
        interp, fast, lambda: random_packets(seed)
    )
    assert (
        fast.emulator.counters.snapshot()
        == interp.emulator.counters.snapshot()
    )
    assert (
        fast.emulator.explicit_counters
        == interp.emulator.explicit_counters
    )
    for name, cache in interp.emulator.flow_caches.items():
        assert dict(fast.emulator.flow_caches[name].items()) == dict(
            cache.items()
        )


@pytest.mark.parametrize("seed", range(5))
def test_random_programs_sampled_counters(seed):
    """Sampling stride > 1 must stay aligned between the engines."""
    program = ProgramSynthesizer(
        SynthesisConfig(seed=seed, n_pipelets=3)
    ).generate()
    interp = Deployment(
        program.clone(), BLUEFIELD2, sample_stride=3, native_cache=False
    )
    fast = Deployment(
        program.clone(), BLUEFIELD2, sample_stride=3, native_cache=False
    )
    install_random_entries(interp, seed)
    install_random_entries(fast, seed)
    assert_per_packet_identical(
        interp, fast, lambda: random_packets(seed, 30)
    )
    assert (
        fast.emulator.counters.snapshot()
        == interp.emulator.counters.snapshot()
    )
