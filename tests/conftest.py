"""Shared fixtures for the Pipeleon reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core import uniform_profile
from repro.ir import linear_program
from repro.ir.actions import drop_action, noop_action
from repro.ir.builder import ProgramBuilder
from repro.ir.conditionals import Condition


def pytest_collection_modifyitems(items):
    """Everything under tests/ is tier-1 (fast, run on every verify).

    Benchmarks opt in individually (``bench_smoke.py`` carries the
    marker itself); select with ``-m tier1``.
    """
    for item in items:
        item.add_marker(pytest.mark.tier1)


@pytest.fixture
def ordered_stats(monkeypatch):
    """One-core runs and replays record into ``ListRunStats``, the
    per-packet list reference (``tests/test_run_stats_reference.py``),
    so a differential test can compare latencies in packet order."""
    import repro.nic.emulator
    from tests.test_run_stats_reference import ListRunStats

    monkeypatch.setattr(repro.nic.emulator, "RunStats", ListRunStats)


@pytest.fixture
def chain5():
    """Five exact tables in a chain."""
    return linear_program("chain5", 5)


@pytest.fixture
def chain5_profile(chain5):
    return uniform_profile(chain5)


@pytest.fixture
def acl_program():
    """Three independent ACL tables then a processing table."""
    builder = ProgramBuilder("acl3")
    for i, field in enumerate(("ipv4.src", "ipv4.dst", "l4.dport")):
        name = f"acl{i}"
        builder.table(
            name,
            [field],
            [drop_action(f"{name}_deny"), noop_action(f"{name}_permit")],
            default_action=f"{name}_permit",
        )
    builder.table(
        "proc",
        ["ipv4.tos"],
        [noop_action("proc_a0"), noop_action("proc_a1")],
    )
    builder.chain(["acl0", "acl1", "acl2", "proc"])
    return builder.build(root="acl0")


@pytest.fixture
def branching_program():
    """A diamond: t0 -> cond -> (left | right) -> join."""
    builder = ProgramBuilder("diamond")
    builder.table(
        "t0", ["ipv4.src"], [noop_action("t0_a0"), noop_action("t0_a1")]
    )
    builder.conditional(
        "cond",
        Condition("ipv4.tos", "eq", 1),
        true_next="left",
        false_next="right",
    )
    builder.table(
        "left",
        ["ipv4.dst"],
        [noop_action("left_a0"), noop_action("left_a1")],
        next_node="join",
    )
    builder.table(
        "right",
        ["l4.dport"],
        [noop_action("right_a0"), noop_action("right_a1")],
        next_node="join",
    )
    builder.table(
        "join",
        ["l4.sport"],
        [noop_action("join_a0"), noop_action("join_a1")],
    )
    builder.chain(["t0", "cond"])
    return builder.build(root="t0")
