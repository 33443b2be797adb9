"""Tests for the control plane (shadow store, update rates, listeners)."""

import pytest

from repro.apps import l2l3_acl
from repro.errors import (
    ControlPlaneError,
    TableFullError,
    UnknownEntryError,
    UnknownTableError,
)
from repro.ir import exact_entry, linear_program
from repro.ir.actions import noop_action
from repro.ir.builder import ProgramBuilder
from repro.nic.control_plane import ControlPlane, SimClock


@pytest.fixture
def control_plane(chain5):
    return ControlPlane(chain5)


def entry_for(program, table, value=1):
    node = program.table(table)
    return exact_entry(value, next(iter(node.actions)))


class TestClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now_s == 1.5

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)


class TestEntryApi:
    def test_insert_and_read(self, chain5, control_plane):
        entry = entry_for(chain5, "chain5_t0")
        eid = control_plane.insert_entry("chain5_t0", entry)
        assert eid == entry.entry_id
        assert control_plane.entry_count("chain5_t0") == 1
        assert control_plane.entries("chain5_t0") == [entry]

    def test_unknown_table(self, control_plane, chain5):
        with pytest.raises(UnknownTableError):
            control_plane.insert_entry(
                "ghost", entry_for(chain5, "chain5_t0")
            )

    def test_unknown_action(self, control_plane):
        with pytest.raises(UnknownEntryError):
            control_plane.insert_entry(
                "chain5_t0", exact_entry(1, "no_such_action")
            )

    def test_arity_mismatch(self, chain5, control_plane):
        node = chain5.table("chain5_t0")
        bad = exact_entry((1, 2), next(iter(node.actions)))
        with pytest.raises(UnknownEntryError):
            control_plane.insert_entry("chain5_t0", bad)

    def test_capacity_enforced(self):
        builder = ProgramBuilder("small")
        builder.table("t", ["f"], [noop_action("a")], size=2)
        program = builder.build(root="t")
        cp = ControlPlane(program)
        cp.insert_entry("t", exact_entry(1, "a"))
        cp.insert_entry("t", exact_entry(2, "a"))
        with pytest.raises(TableFullError):
            cp.insert_entry("t", exact_entry(3, "a"))

    def test_delete(self, chain5, control_plane):
        entry = entry_for(chain5, "chain5_t0")
        control_plane.insert_entry("chain5_t0", entry)
        removed = control_plane.delete_entry("chain5_t0", entry.entry_id)
        assert removed is entry
        assert control_plane.entry_count("chain5_t0") == 0
        with pytest.raises(UnknownEntryError):
            control_plane.delete_entry("chain5_t0", entry.entry_id)

    def test_modify(self, chain5, control_plane):
        old = entry_for(chain5, "chain5_t0", 1)
        new = entry_for(chain5, "chain5_t0", 2)
        control_plane.insert_entry("chain5_t0", old)
        control_plane.modify_entry("chain5_t0", old.entry_id, new)
        assert control_plane.entries("chain5_t0") == [new]

    def test_modify_to_another_entrys_id_is_rejected(self):
        """A replacement carrying the id of *another* installed entry
        would overwrite that entry with no delete event: on
        ``l2l3_acl``, ``l2l3_route`` would go from 17 entries to 16."""
        cp = ControlPlane(l2l3_acl.build_program())
        l2l3_acl.install_base_entries(cp)
        before = cp.entries("l2l3_route")
        first, second = before[:2]
        events = []
        cp.add_listener(events.append)
        replacement = first.clone()
        replacement.entry_id = second.entry_id
        with pytest.raises(ControlPlaneError, match="another entry"):
            cp.modify_entry("l2l3_route", first.entry_id, replacement)
        assert cp.entries("l2l3_route") == before
        assert cp.entry_count("l2l3_route") == 17
        assert events == []
        # Keeping the replaced entry's own id is a modify.
        replacement.entry_id = first.entry_id
        cp.modify_entry("l2l3_route", first.entry_id, replacement)
        assert cp.entry_count("l2l3_route") == 17

    def test_insert_of_an_installed_id_is_rejected(
        self, chain5, control_plane
    ):
        entry = entry_for(chain5, "chain5_t0")
        control_plane.insert_entry("chain5_t0", entry)
        with pytest.raises(ControlPlaneError, match="already holds"):
            control_plane.insert_entry("chain5_t0", entry)
        assert control_plane.entries("chain5_t0") == [entry]

    def test_clear_table(self, chain5, control_plane):
        for value in range(5):
            control_plane.insert_entry(
                "chain5_t0", entry_for(chain5, "chain5_t0", value)
            )
        control_plane.clear_table("chain5_t0")
        assert control_plane.entry_count("chain5_t0") == 0


class TestUpdateRates:
    def test_rate_over_window(self, chain5, control_plane):
        clock = control_plane.clock
        for value in range(10):
            control_plane.insert_entry(
                "chain5_t0", entry_for(chain5, "chain5_t0", value)
            )
            clock.advance(0.1)
        # 10 updates in ~1s; over a 10s window the rate is 1/s.
        assert control_plane.update_rate(
            "chain5_t0", window_s=10.0
        ) == pytest.approx(1.0)

    def test_old_updates_age_out(self, chain5, control_plane):
        control_plane.insert_entry(
            "chain5_t0", entry_for(chain5, "chain5_t0")
        )
        control_plane.clock.advance(100.0)
        assert control_plane.update_rate("chain5_t0", 10.0) == 0.0

    def test_rates_for_all_tables(self, control_plane):
        rates = control_plane.update_rates()
        assert set(rates) == set(control_plane.table_names())


class TestListeners:
    def test_listener_sees_all_ops(self, chain5, control_plane):
        events = []
        control_plane.add_listener(events.append)
        entry = entry_for(chain5, "chain5_t0")
        control_plane.insert_entry("chain5_t0", entry)
        new = entry_for(chain5, "chain5_t0", 9)
        control_plane.modify_entry("chain5_t0", entry.entry_id, new)
        control_plane.delete_entry("chain5_t0", new.entry_id)
        assert [e.op for e in events] == ["insert", "modify", "delete"]
        assert all(e.table == "chain5_t0" for e in events)

    def test_events_name_the_id_that_left(self, chain5, control_plane):
        """A modify's event carries its replacement *and* the id it
        replaced, so every listener can tell which left."""
        events, mirrored = [], []
        control_plane.add_listener(events.append)
        control_plane.add_listener(mirrored.append)
        entry = entry_for(chain5, "chain5_t0")
        control_plane.insert_entry("chain5_t0", entry)
        new = entry_for(chain5, "chain5_t0", 9)
        control_plane.modify_entry("chain5_t0", entry.entry_id, new)
        control_plane.delete_entry("chain5_t0", new.entry_id)
        control_plane.flush_caches()
        assert [(e.op, e.replaced_id) for e in events] == [
            ("insert", None),
            ("modify", entry.entry_id),
            ("delete", new.entry_id),
            ("flush", None),
        ]
        assert events[1].entry is new
        assert mirrored == events

    def test_remove_listener(self, chain5, control_plane):
        events = []
        control_plane.add_listener(events.append)
        control_plane.remove_listener(events.append)
        control_plane.insert_entry(
            "chain5_t0", entry_for(chain5, "chain5_t0")
        )
        assert events == []

    def test_snapshot(self, chain5, control_plane):
        entry = entry_for(chain5, "chain5_t1")
        control_plane.insert_entry("chain5_t1", entry)
        snapshot = control_plane.snapshot()
        assert snapshot["chain5_t1"] == [entry]
        assert snapshot["chain5_t0"] == []
