"""Differential tests for the specialised match kernels.

A match node finds a known flow's plan in its plan memo and applies
each action template once per batch with parameters gathered by plan
id (``repro.nic.columnar``). Every case here replays one stream three
ways — the interpreter, ``auto`` on batches cut from a flow set (the
memo path) and ``auto`` on the same batches without their flow set
(no memo) — and asks for identical per-packet outcomes, stats,
counters, demotions and ``columnar_partitions``.

The program is built to corner the memo:

* entries of one table share an action template with different data;
* ``add_to_field`` deltas and field values sit at the int64 bounds,
  where each packet's own overflow must demote it;
* ``memo_a`` writes ``hdr.b``, the match field of ``memo_b``, so
  ``memo_b``'s memo is guarded by key-row equality and must not serve
  a plan keyed by a value a packet no longer carries;
* entries are inserted, deleted and modified between replays over one
  flow set, which makes every memoised plan and parameter column stale.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Deployment
from repro.ir.actions import Action, Param, drop_action, noop_action, prim
from repro.ir.builder import ProgramBuilder
from repro.ir.entries import exact_entry
from repro.nic.columnar import ColumnBatch
from repro.nic.stats import RunStats
from repro.nic.targets import BLUEFIELD2
from repro.service.session import stats_payload
from repro.traffic.flows import FlowSpec
from repro.traffic.generator import TrafficGenerator

I64_MAX = 2**63 - 1
I64_MIN = -(2**63)
EDGES = [I64_MIN, I64_MIN + 1, -1, 0, 1, 64, I64_MAX - 1, I64_MAX]
DELTAS = [I64_MIN, -(2**62), -1, 1, 2**62, I64_MAX]
KEYS = range(4)
PORTS = [80, 443]


def build_program():
    builder = ProgramBuilder("memo")
    builder.table(
        "memo_a",
        ["hdr.a"],
        [
            Action(
                "mark",
                (
                    prim("set_field", "hdr.b", Param(0)),
                    prim("add_to_field", "ipv4.ttl", Param(1)),
                    prim("forward", Param(2)),
                ),
            ),
            Action("remark", (prim("set_field", "hdr.b", Param(0)),)),
            drop_action("a_drop"),
            noop_action("a_pass"),
        ],
        default_action="a_pass",
        next_node="memo_b",
    )
    builder.table(
        "memo_b",
        ["hdr.b"],
        [
            Action(
                "steer",
                (
                    prim("add_to_field", "hdr.c", Param(0)),
                    prim("forward", Param(1)),
                ),
            ),
            drop_action("b_drop"),
            noop_action("b_pass"),
        ],
        default_action="b_pass",
        next_node="memo_c",
    )
    builder.table(
        "memo_c",
        ["l4.dport"],
        [
            Action(
                "tag",
                (prim("set_field", "hdr.d", Param(0)), prim("count", "tags")),
            ),
            noop_action("c_pass"),
        ],
        default_action="c_pass",
    )
    return builder.build(root="memo_a")


# -- strategies ----------------------------------------------------------


def action_for(table: str):
    """``(action name, action data)`` of an entry of ``table``."""
    if table == "memo_a":
        return st.one_of(
            st.tuples(
                st.just("mark"),
                st.tuples(
                    st.sampled_from(KEYS),
                    st.sampled_from(DELTAS),
                    st.integers(0, 3),
                ),
            ),
            st.tuples(st.just("remark"), st.tuples(st.sampled_from(KEYS))),
            st.just(("a_drop", ())),
        )
    if table == "memo_b":
        return st.one_of(
            st.tuples(
                st.just("steer"),
                st.tuples(st.sampled_from(DELTAS), st.integers(0, 3)),
            ),
            st.just(("b_drop", ())),
        )
    return st.one_of(
        st.tuples(st.just("tag"), st.tuples(st.sampled_from(EDGES))),
        st.just(("c_pass", ())),
    )


@st.composite
def entry(draw, table: str):
    key = draw(st.sampled_from(PORTS if table == "memo_c" else KEYS))
    name, data = draw(action_for(table))
    return table, key, name, data


TABLES = st.sampled_from(["memo_a", "memo_b", "memo_c"])


@st.composite
def edit(draw):
    """An entry op between two replays: insert, delete or modify."""
    kind = draw(st.sampled_from(["insert", "delete", "modify"]))
    return kind, draw(TABLES.flatmap(entry))


@st.composite
def flows(draw):
    count = draw(st.integers(1, 10))
    return [
        FlowSpec(
            src=i + 1,
            dst=100 + i,
            dport=draw(st.sampled_from(PORTS)),
            extra=(
                ("hdr.a", draw(st.sampled_from(KEYS))),
                ("hdr.b", draw(st.sampled_from(KEYS))),
                ("hdr.c", draw(st.sampled_from(EDGES))),
                ("ipv4.ttl", draw(st.sampled_from(EDGES))),
            ),
        )
        for i in range(count)
    ]


@st.composite
def scenarios(draw):
    return {
        "flows": draw(flows()),
        "entries": draw(
            st.lists(TABLES.flatmap(entry), min_size=1, max_size=8)
        ),
        # Replays over the one flow set, each preceded by its edits.
        "replays": draw(
            st.lists(
                st.tuples(
                    st.lists(edit(), max_size=2), st.integers(1, 60)
                ),
                min_size=1,
                max_size=4,
            )
        ),
        "batch": draw(st.sampled_from([1, 5, 16, 64])),
        "seed": draw(st.integers(0, 2**16)),
    }


# -- driving ---------------------------------------------------------------


class Installed:
    """The entries every twin holds, as shared ``TableEntry`` objects,
    so each edit names the same entry id everywhere."""

    def __init__(self, deployments):
        self.deployments = deployments
        self.by_key: dict = {}

    def apply(self, kind: str, spec) -> None:
        """Insert a key not held yet; delete or modify a held one (an
        op on any other key does nothing)."""
        table, key, name, data = spec
        held = self.by_key.pop((table, key), None)
        new = exact_entry(key, name, data)
        if (kind == "insert") != (held is None):
            if held is not None:
                self.by_key[table, key] = held
            return
        for deployment in self.deployments:
            if kind == "insert":
                deployment.insert_entry(table, new)
            elif kind == "delete":
                deployment.delete_entry(table, held.entry_id)
            else:
                deployment.modify_entry(table, held.entry_id, new)
        if kind != "delete":
            self.by_key[table, key] = new


def without_flow_set(batch):
    if isinstance(batch, ColumnBatch):
        return ColumnBatch(batch.names, batch.values, batch.sizes)
    return batch


def replay_columns(deployment, stream, batch: int, memo: bool):
    """``auto`` batch by batch: ``(stats, per-packet outcome columns)``."""
    stats = RunStats()
    emulator = deployment.emulator
    columns = []
    for chunk in stream.batches(batch):
        outcome = emulator.replay_batch(
            chunk if memo else without_flow_set(chunk), stats, engine="auto"
        )
        columns.append((outcome.latencies, outcome.dropped, outcome.egress))
    return stats, [np.concatenate(c) for c in zip(*columns)]


def replay_interp(deployment, stream):
    stats = RunStats()
    emulator = deployment.emulator
    latencies, dropped, egress = [], [], []
    for packet in stream:
        result = emulator.process(packet)
        stats.record(result, packet.size_bytes)
        latencies.append(result.latency_ns)
        dropped.append(result.dropped)
        egress.append(-1 if result.egress_port is None else result.egress_port)
    return stats, [np.array(latencies), np.array(dropped), np.array(egress)]


def observed(deployment, stats) -> dict:
    emulator = deployment.emulator
    return {
        "stats": stats_payload(stats)["fingerprint"],
        "packets": stats.packets,
        "dropped": stats.dropped,
        "counters": emulator.counters.snapshot(),
        "explicit": dict(emulator.explicit_counters),
    }


def run_twins(case):
    """Interpreter, memo and no-memo twins through ``case``."""
    twins = [
        Deployment(build_program(), BLUEFIELD2, native_cache=False)
        for _ in range(3)
    ]
    interp, memo, plain = twins
    installed = Installed(twins)
    for spec in case["entries"]:
        installed.apply("insert", spec)
    generators = [TrafficGenerator(case["seed"]) for _ in twins]
    results = {"interp": [], "memo": [], "plain": []}
    for edits, packets in case["replays"]:
        for kind, spec in edits:
            installed.apply(kind, spec)
        streams = [
            g.stream(case["flows"], packets, locality="zipf")
            for g in generators
        ]
        results["interp"].append(replay_interp(interp, streams[0]))
        results["memo"].append(
            replay_columns(memo, streams[1], case["batch"], memo=True)
        )
        results["plain"].append(
            replay_columns(plain, streams[2], case["batch"], memo=False)
        )
    return twins, results


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=scenarios())
def test_memo_and_templates_match_the_interpreter(case):
    (interp, memo, plain), results = run_twins(case)
    for name, twin in (("memo", memo), ("plain", plain)):
        for (expect_stats, expect), (stats, got) in zip(
            results["interp"], results[name]
        ):
            for want, have in zip(expect, got):
                np.testing.assert_array_equal(have, want)
            assert observed(twin, stats) == observed(interp, expect_stats)
    for attribute in (
        "columnar_partitions",
        "columnar_demotions",
        "columnar_packets",
    ):
        assert getattr(memo.emulator, attribute) == getattr(
            plain.emulator, attribute
        ), attribute
    # The same packets reach each node either way: without a flow set
    # every one is a memo miss.
    served, unserved = memo.emulator, plain.emulator
    assert sum(unserved.columnar_memo_hits.values()) == 0
    assert unserved.columnar_memo_guard_failures == {}
    for node, arrived in unserved.columnar_memo_misses.items():
        assert arrived == sum(
            counts.get(node, 0)
            for counts in (
                served.columnar_memo_hits,
                served.columnar_memo_misses,
                served.columnar_memo_guard_failures,
            )
        ), node


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=scenarios())
def test_one_flow_set_through_a_two_worker_fleet(case):
    """The same replays on a fleet: it ships the flow set once and
    each worker's memo serves it across replays and edits."""
    interp = Deployment(build_program(), BLUEFIELD2, native_cache=False)
    fleet = Deployment(
        build_program(), BLUEFIELD2, native_cache=False, jobs=2
    )
    try:
        installed = Installed([interp, fleet])
        for spec in case["entries"]:
            installed.apply("insert", spec)
        generators = [TrafficGenerator(case["seed"]) for _ in range(2)]
        for edits, packets in case["replays"]:
            for kind, spec in edits:
                installed.apply(kind, spec)
            one, two = (
                g.stream(case["flows"], packets, locality="zipf")
                for g in generators
            )
            expect, _ = replay_interp(interp, one)
            stats = fleet.replay(two, batch=case["batch"])
            assert observed(fleet, stats) == observed(interp, expect)
        shipped = fleet.emulator.transport_stats()["totals"]
        assert shipped["flow_sets_shipped"] <= 2
    finally:
        fleet.close()


def test_guard_fails_where_an_upstream_action_rewrites_the_key():
    """``memo_b`` matches ``hdr.b``, which ``memo_a`` writes: every
    packet ``memo_a`` remarks carries a key its flow's header does not
    give, so ``memo_b``'s guard fails on it and the plan follows the
    packet, also after the write changes. ``memo_a`` and ``memo_c``
    match fields nothing writes, so they never check a guard."""
    flows = [
        FlowSpec(
            src=1 + i,
            dst=2,
            extra=(("hdr.a", i % 2), ("hdr.b", 0), ("hdr.c", 0)),
        )
        for i in range(4)
    ]
    twins = [
        Deployment(build_program(), BLUEFIELD2, native_cache=False)
        for _ in range(2)
    ]
    interp, memo = twins
    installed = Installed(twins)
    installed.apply("insert", ("memo_a", 1, "remark", (1,)))
    installed.apply("insert", ("memo_b", 1, "steer", (5, 2)))
    installed.apply("insert", ("memo_b", 2, "b_drop", ()))
    installed.apply("insert", ("memo_c", 80, "tag", (7,)))
    generators = [TrafficGenerator(4) for _ in twins]
    for value in (1, 2):
        installed.apply("modify", ("memo_a", 1, "remark", (value,)))
        one, two = (g.stream(flows, 200) for g in generators)
        expect_stats, expect = replay_interp(interp, one)
        stats, got = replay_columns(memo, two, 64, memo=True)
        for want, have in zip(expect, got):
            np.testing.assert_array_equal(have, want)
        assert observed(memo, stats) == observed(interp, expect_stats)
    emulator = memo.emulator
    failures = emulator.columnar_memo_guard_failures
    assert set(failures) == {"memo_b"}
    # Odd flows are remarked: about half of 400 packets.
    assert 100 < failures["memo_b"] < 300
    assert emulator.columnar_memo_hits["memo_c"] > 0
