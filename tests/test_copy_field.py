"""``copy_field`` in the batch kernels against the interpreter.

The interpreter copies ``packet.get(src) or 0`` into ``dst``; the
column applier must do the same for a source every row carries (a
header field), one only some rows carry (metadata an upstream table
set for some flows), one no row carries, and one the same action wrote
a primitive earlier — and a later table that matches on the copy must
route each packet as the interpreter does, with no packet demoted.
"""

from __future__ import annotations

import pytest

from repro.core import Deployment
from repro.ir.actions import Action, Param, drop_action, noop_action, prim
from repro.ir.builder import ProgramBuilder
from repro.ir.entries import exact_entry
from repro.nic.targets import AGILIO_CX, BLUEFIELD2
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator
from tests.test_columnar import (
    assert_emulators_identical,
    assert_per_packet_identical,
    stats_fingerprint,
)

FLOWS = synth_flows(40)


def copy_program():
    builder = ProgramBuilder("copy")
    builder.table(
        "pre",
        ["l4.sport"],
        [
            Action("mark", (prim("set_meta", "meta.maybe", Param(0)),)),
            noop_action("pass"),
        ],
        default_action="pass",
        next_node="stamp",
    )
    builder.table(
        "stamp",
        ["ipv4.dst"],
        [
            # Present on some rows only: the rest read 0.
            Action("copy_maybe", (prim("copy_field", "meta.tag", "meta.maybe"),)),
            # A header field every row carries.
            Action("copy_sport", (prim("copy_field", "meta.tag", "l4.sport"),)),
            # Written by no one: every row reads 0.
            Action("copy_unset", (prim("copy_field", "meta.tag", "meta.unset"),)),
            # Set, copied over a header field, copied again.
            Action(
                "copy_chain",
                (
                    prim("set_meta", "meta.mid", Param(0)),
                    prim("copy_field", "l4.dport", "meta.mid"),
                    prim("copy_field", "meta.tag", "l4.dport"),
                ),
            ),
        ],
        default_action="copy_maybe",
        next_node="check",
    )
    builder.table(
        "check",
        ["meta.tag"],
        [Action("out", (prim("forward", Param(0)),)), drop_action("deny")],
        default_action="deny",
        next_node="by_dport",
    )
    builder.table(
        "by_dport",
        ["l4.dport"],
        [Action("count_dport", (prim("count", "copied_dport"),))],
        default_action="count_dport",
    )
    return builder.build(root="pre")


def install(control_plane) -> None:
    for i, flow in enumerate(FLOWS):
        if i % 4 == 0:
            control_plane.insert_entry(
                "pre", exact_entry(flow.sport, "mark", (100 + i % 3,))
            )
        action, data = [
            ("copy_maybe", ()),
            ("copy_sport", ()),
            ("copy_unset", ()),
            ("copy_chain", (200 + i % 5,)),
        ][i % 4 if i % 8 else 0]
        if action != "copy_maybe":
            control_plane.insert_entry(
                "stamp", exact_entry(flow.dst, action, data)
            )
    tags = [0, 100, 101, 200, 202, 204] + [flow.sport for flow in FLOWS[1::8]]
    for port, tag in enumerate(tags):
        control_plane.insert_entry("check", exact_entry(tag, "out", (port,)))


def twins(target):
    deployments = []
    for _ in range(2):
        deployment = Deployment(copy_program(), target, native_cache=False)
        install(deployment.control_plane)
        deployments.append(deployment)
    return deployments


def packets(seed: int):
    return TrafficGenerator(seed).stream(FLOWS, 600, locality="zipf")


@pytest.mark.parametrize("target", [BLUEFIELD2, AGILIO_CX], ids=lambda t: t.name)
def test_copy_field_matches_the_interpreter(target):
    interp, col = twins(target)
    assert_per_packet_identical(interp, col, lambda: list(packets(1)))
    reference = interp.replay(packets(2), batch=128, engine="interp")
    replayed = col.replay(packets(2), batch=128, engine="auto")
    assert stats_fingerprint(replayed) == stats_fingerprint(reference)
    assert_emulators_identical(interp.emulator, col.emulator)
    assert col.emulator.columnar_demotions == {}
    # Each kind of copy reached ``check`` with its own tag: 0 (copied
    # from an unset field) to port 0, ``meta.maybe`` to 1-2, the chain
    # to 3-5, a source port to 6 and up; a missed tag drops.
    ports = {interp.emulator.process(p).egress_port for p in packets(3)}
    assert {0, None} <= ports
    for kind in ({1, 2}, {3, 4, 5}, set(range(6, 11))):
        assert ports & kind, kind
