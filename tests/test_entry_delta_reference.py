"""Entry deltas against the clear-and-clone rebuild they replaced.

``RebuildDeployment`` keeps that rebuild as the model: every
control-plane op on a directly mirrored or ``copy_of`` runtime table
clears the table and installs a fresh clone of every control-plane
entry, in control-plane order — on a fleet, one whole-table ``entries``
message per shard. :class:`~repro.core.deployment.Deployment` applies
the op alone, on the template and, as a one-op ``entries`` message, on
every worker.

Hypothesis draws insert / delete / modify sequences — entries built in
one order and installed in another, modifies that keep the replaced
id and ones that bring their own — over two layouts: every update
route (direct, ``copy_of``, ``MERGED`` and ``naive_merge_of``;
``tests/test_core_sharded.py``'s ``every_update_route``), and a
ternary table of equal-priority overlapping entries ahead of an LPM
table. After every op both deployments replay the same traffic, and
per-packet outcomes, counters, table shapes and every runtime table's
entry order (the order ``(priority, -entry_id)`` ties break on) must
be the model's — at ``jobs`` 1 and 2, and with a worker killed and
rebuilt from its checkpoint and journal.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Deployment
from repro.errors import ControlPlaneError
from repro.ir import exact_entry, linear_program
from repro.ir.actions import Param, noop_action, set_field_action
from repro.ir.builder import ProgramBuilder
from repro.ir.entries import LpmValue, TableEntry, TernaryValue
from repro.ir.tables import MatchType
from repro.nic import sharding
from repro.nic.control_plane import ControlPlane
from repro.nic.targets import EMULATED_NIC
from repro.traffic.flows import FlowSpec
from repro.traffic.generator import TrafficGenerator
from tests.test_core_deployment import merge_plan
from tests.test_core_sharded import (  # noqa: F401 - fixture
    UP,
    every_update_route,
    update_traffic,
)
from tests.test_faults import fast_options
from tests.test_nic_sharding import stats_fingerprint, table_shapes


class RebuildDeployment(Deployment):
    """A deployment that mirrors by clear-and-clone rebuild."""

    def _mirror(self, runtime_table: str, event) -> None:
        node = self.program.table(runtime_table)
        source = str(node.annotations.get("copy_of", event.table))
        entries = self.control_plane.entries(source)
        self.emulator.set_table_entries(
            runtime_table, (e.clone() for e in entries)
        )
        self.materialized_updates[runtime_table] = (
            self.materialized_updates.get(runtime_table, 0) + 1
        )


# ---------------------------------------------------------------------------
# Layouts: a program, its plan, entry pools and traffic
# ---------------------------------------------------------------------------


class Routes:
    """Every update route over seven exact tables (needs the
    ``every_update_route`` fixture)."""

    tables = tuple(UP)

    def deployment(self, cls, **options) -> Deployment:
        return cls(
            linear_program("up", 7),
            EMULATED_NIC,
            plan=merge_plan(UP, UP[2:4]),
            **options,
        )

    @staticmethod
    def entry(table: str, draw: int) -> TableEntry:
        return exact_entry(draw % 5, f"{table}_a{draw // 5 % 2}")

    @staticmethod
    def key(table: str, entry: TableEntry):
        return entry.match_values

    @staticmethod
    def packets(step: int):
        return list(update_traffic(step))

    @staticmethod
    def stream(step: int):
        return update_traffic(step)


class Overlap:
    """A ternary table of overlapping, mostly equal-priority entries
    whose winner marks the packet, ahead of an LPM table that marks
    it too."""

    tables = ("ov_tern", "ov_lpm")
    FLOWS = [
        FlowSpec(
            src=0x0A000001 + k,
            dst=0xC0A80000 | ((k >> 3) % 4) << 8 | (k >> 5),
            extra=(("ipv4.f0", k % 8),),
        )
        for k in range(128)
    ]

    def deployment(self, cls, **options) -> Deployment:
        builder = ProgramBuilder("ov")
        builder.table(
            "ov_tern",
            [("ipv4.f0", MatchType.TERNARY)],
            [
                set_field_action("tmark", {"meta.tern": Param(0)}),
                noop_action("tmiss"),
            ],
            next_node="ov_lpm",
            size=64,
        )
        builder.table(
            "ov_lpm",
            [("ipv4.dst", MatchType.LPM)],
            [
                set_field_action("lmark", {"meta.lpm": Param(0)}),
                noop_action("lmiss"),
            ],
            size=64,
        )
        return cls(builder.build(root="ov_tern"), EMULATED_NIC, **options)

    @staticmethod
    def entry(table: str, draw: int) -> TableEntry:
        mark = (draw,)
        if table == "ov_tern":
            mask = (0, 1, 3, 4, 6, 7)[draw % 6]
            value = TernaryValue(draw // 6 % 8, mask)
            return TableEntry((value,), "tmark", mark, priority=draw % 7 // 6)
        prefix = (0, 16, 22, 24, 30, 32)[draw % 6]
        dst = 0xC0A80000 | (draw // 6 % 4) << 8 | draw // 24 % 4
        return TableEntry((LpmValue(dst, prefix),), "lmark", mark)

    @staticmethod
    def key(table: str, entry: TableEntry):
        if table == "ov_tern":
            return None  # a ternary table takes duplicates
        (value,) = entry.match_values
        return value.value & value.mask, value.prefix_len

    def packets(self, step: int):
        return [self.FLOWS[k].packet() for k in range(len(self.FLOWS))]

    def stream(self, step: int):
        return TrafficGenerator(step).stream(self.FLOWS, 300)


LAYOUTS = {"routes": Routes(), "overlap": Overlap()}


@pytest.fixture(params=sorted(LAYOUTS))
def layout(request):
    if request.param == "routes":
        request.getfixturevalue("every_update_route")
    return LAYOUTS[request.param]


# ---------------------------------------------------------------------------
# Op sequences
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert", "delete", "modify", "keep_id")),
        st.integers(0, 1 << 20),
        st.integers(0, 1 << 20),
        st.integers(0, 1 << 20),
    ),
    min_size=1,
    max_size=10,
)


def make_pools(layout, seed: int) -> dict[str, list[TableEntry]]:
    """Per table, 12 entries built now, so their control-plane ids run
    in this order and not in the order the ops install them."""
    return {
        table: [layout.entry(table, seed + 7 * i) for i in range(12)]
        for table in layout.tables
    }


def resolve(layout, control_plane, pools, op):
    """The op's concrete ``(method, args)`` against ``control_plane``,
    or None when it does not apply (empty table, entry already in,
    a key an exact or LPM table holds already)."""
    kind, which, pick, other = op
    table = layout.tables[which % len(layout.tables)]
    installed = control_plane.entries(table)
    held = {entry.entry_id for entry in installed}

    def fits(entry, leaving=None):
        key = layout.key(table, entry)
        return key is None or all(
            layout.key(table, e) != key
            for e in installed
            if e.entry_id != leaving
        )

    pool = pools[table]
    if kind == "insert":
        entry = pool[pick % len(pool)]
        if entry.entry_id in held or not fits(entry):
            return None
        return "insert_entry", (table, entry)
    if not installed:
        return None
    old = installed[pick % len(installed)]
    if kind == "delete":
        return "delete_entry", (table, old.entry_id)
    new = pool[other % len(pool)]
    if kind == "keep_id":
        new = dataclasses.replace(new, entry_id=old.entry_id)
    elif new.entry_id in held:
        return None
    if not fits(new, leaving=old.entry_id):
        return None
    return "modify_entry", (table, old.entry_id, new)


def entry_shape(entry: TableEntry) -> tuple:
    return (
        entry.action_name,
        repr(entry.match_values),
        repr(entry.action_data),
        entry.priority,
    )


def entry_order(emulator) -> dict:
    """Per runtime table, its entries in install order and by id: the
    orders lookups and the columnar kernels break ties on."""
    return {
        name: (
            [entry_shape(e) for e in runtime.entries()],
            [
                entry_shape(e)
                for e in sorted(runtime.entries(), key=lambda e: e.entry_id)
            ],
        )
        for name, runtime in emulator.runtime_tables.items()
    }


def runtime_entries(emulator) -> dict:
    return {
        name: runtime.entries()
        for name, runtime in emulator.runtime_tables.items()
    }


def with_ids(tables: dict) -> dict:
    return {
        name: [(entry.entry_id, entry_shape(entry)) for entry in entries]
        for name, entries in tables.items()
    }


def packet_outcome(packet) -> tuple:
    return (
        sorted(packet.fields.items()),
        sorted(packet.metadata.items()),
        packet.dropped,
        packet.egress_port,
    )


def apply(deployments, resolved) -> None:
    method, args = resolved
    for deployment in deployments:
        getattr(deployment.control_plane, method)(*args)


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------


class TestDeltaMatchesRebuild:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=OPS, seed=st.integers(0, 1000))
    def test_one_core(self, layout, ops, seed):
        delta = layout.deployment(Deployment)
        model = layout.deployment(RebuildDeployment)
        pools = make_pools(layout, seed)
        for step, op in enumerate(ops):
            resolved = resolve(layout, delta.control_plane, pools, op)
            if resolved is None:
                continue
            apply((delta, model), resolved)
            assert entry_order(delta.emulator) == entry_order(model.emulator)
            assert delta.materialized_updates == model.materialized_updates
            ours, theirs = layout.packets(step), layout.packets(step)
            assert stats_fingerprint(delta.run(ours)) == stats_fingerprint(
                model.run(theirs)
            ), step
            assert list(map(packet_outcome, ours)) == list(
                map(packet_outcome, theirs)
            ), step
            assert stats_fingerprint(
                delta.replay(layout.stream(step))
            ) == stats_fingerprint(model.replay(layout.stream(step)))
            assert delta.emulator.counters.snapshot() == (
                model.emulator.counters.snapshot()
            ), step

    @pytest.mark.parametrize("checkpoint", [False, True])
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=OPS, seed=st.integers(0, 1000), kill=st.integers(0, 9))
    def test_fleet_with_a_respawn(
        self, layout, monkeypatch, checkpoint, ops, seed, kill
    ):
        """Shard 0 of the delta fleet dies before the ``kill``-th
        replay and is rebuilt from its last checkpoint (every barrier
        takes one with ``checkpoint``, else only the fork's) and the
        one-op messages journaled since."""
        if checkpoint:
            monkeypatch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", 1)
        options = dict(
            jobs=2, batch=64, supervisor=fast_options(recovery="respawn")
        )
        delta = layout.deployment(Deployment, **options)
        with delta, layout.deployment(RebuildDeployment, **options) as model:
            pools = make_pools(layout, seed)
            fleet = delta.emulator
            replays = 0
            for step, op in enumerate(ops):
                resolved = resolve(layout, delta.control_plane, pools, op)
                if resolved is None:
                    continue
                apply((delta, model), resolved)
                if replays == kill:
                    fleet._procs[0].kill()
                    fleet._procs[0].join(timeout=10.0)
                replays += 1
                assert stats_fingerprint(
                    delta.replay(layout.stream(step))
                ) == stats_fingerprint(model.replay(layout.stream(step)))
                assert fleet.counters.snapshot() == (
                    model.emulator.counters.snapshot()
                ), step
                assert entry_order(fleet.template) == entry_order(
                    model.emulator.template
                ), step
                template = runtime_entries(fleet.template)
                assert table_shapes(template) == table_shapes(
                    runtime_entries(model.emulator.template)
                ), step
                # Every worker holds the template's entries, ids and all.
                for _stores, _native, tables in fleet.dump_caches():
                    assert with_ids(tables) == with_ids(template), step
            assert fleet.respawns == [int(kill < replays), 0]


# ---------------------------------------------------------------------------
# What an op costs the fleet
# ---------------------------------------------------------------------------


def journaled_insert(table_entries: int) -> tuple:
    """On a 2-worker fleet over one exact table of ``table_entries``
    entries, the ``entries`` message one ``insert_entry`` journals."""
    program = linear_program("big", 1, size=2048)
    control_plane = ControlPlane(program)
    for value in range(table_entries):
        control_plane.insert_entry("big_t0", exact_entry(value, "big_t0_a0"))
    deployment = Deployment(
        program,
        EMULATED_NIC,
        control_plane=control_plane,
        jobs=2,
        supervisor=fast_options(recovery="respawn"),
    )
    with deployment:
        deployment.insert_entry(
            "big_t0", exact_entry(table_entries, "big_t0_a1")
        )
        journal = deployment.emulator._journals[0]
        # The op's message, then the cache invalidation it implies.
        assert [message[0] for message, _size in journal.entries] == [
            "entries",
            "invalidate",
        ]
        message, _size = journal.entries[0]
        assert message[1] == "big_t0"
        assert len(deployment.emulator.runtime_tables["big_t0"]) == (
            table_entries + 1
        )
        return message


def test_an_insert_ships_the_entry_not_the_table():
    small, large = journaled_insert(10), journaled_insert(1000)
    sizes = [
        len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        for message in (small, large)
    ]
    assert abs(sizes[0] - sizes[1]) <= 256, sizes


def test_a_rejected_op_reaches_no_runtime_table():
    """A modify the control plane refuses (an id collision) changes no
    runtime table and sends nothing."""
    deployment = Overlap().deployment(
        Deployment, jobs=2, supervisor=fast_options(recovery="respawn")
    )
    with deployment:
        first = Overlap.entry("ov_tern", 1)
        second = Overlap.entry("ov_tern", 2)
        deployment.insert_entry("ov_tern", first)
        deployment.insert_entry("ov_tern", second)
        before = entry_order(deployment.emulator.template)
        sent = len(deployment.emulator._journals[0].entries)
        collision = dataclasses.replace(first, entry_id=second.entry_id)
        with pytest.raises(ControlPlaneError):
            deployment.modify_entry("ov_tern", first.entry_id, collision)
        assert entry_order(deployment.emulator.template) == before
        assert len(deployment.emulator._journals[0].entries) == sent
