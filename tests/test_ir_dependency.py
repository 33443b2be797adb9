"""Tests for table dependency analysis (reordering safety)."""

from itertools import permutations

from repro.ir.actions import (
    Action,
    drop_action,
    noop_action,
    prim,
)
from repro.ir.dependency import (
    can_swap,
    dependency_graph,
    depends_on,
    movable_to_front,
    order_is_valid,
    valid_orders,
)
from repro.ir.tables import MatchKey, TableNode


def table(name, key_field, actions):
    action_map = {a.name: a for a in actions}
    return TableNode(
        name=name,
        keys=(MatchKey(key_field),),
        actions=action_map,
        default_action=actions[-1].name,
        next_map={a.name: None for a in actions},
    )


def noop_table(name, key_field):
    return table(name, key_field, [noop_action(f"{name}_a")])


def writer_table(name, key_field, written):
    return table(
        name,
        key_field,
        [
            Action(f"{name}_w", (prim("set_field", written, 1),)),
            noop_action(f"{name}_n"),
        ],
    )


def acl_table(name, key_field):
    return table(
        name,
        key_field,
        [drop_action(f"{name}_deny"), noop_action(f"{name}_permit")],
    )


class TestDependsOn:
    def test_independent_tables(self):
        assert not depends_on(noop_table("a", "f1"), noop_table("b", "f2"))

    def test_true_dependency(self):
        first = writer_table("a", "f1", "f2")
        second = noop_table("b", "f2")  # matches on f2
        assert depends_on(first, second)

    def test_anti_dependency(self):
        first = noop_table("a", "f2")
        second = writer_table("b", "f1", "f2")
        assert depends_on(first, second)

    def test_output_dependency(self):
        first = writer_table("a", "f1", "shared")
        second = writer_table("b", "f2", "shared")
        assert depends_on(first, second)

    def test_drop_writes_commute(self):
        """Two ACLs both 'write' the drop decision but can be swapped."""
        assert can_swap(acl_table("a", "f1"), acl_table("b", "f2"))

    def test_acl_vs_writer_independent(self):
        assert can_swap(acl_table("a", "f1"), writer_table("b", "f2", "f3"))

    def test_same_key_field_is_fine(self):
        """Reading the same field twice creates no dependency."""
        assert can_swap(noop_table("a", "f"), noop_table("b", "f"))


class TestOrders:
    def test_dependency_graph_edges(self):
        a = writer_table("a", "fa", "x")
        b = noop_table("b", "x")
        c = noop_table("c", "fc")
        # Exactly the one must-precede pair: c depends on neither.
        assert dependency_graph([a, b, c]) == {("a", "b")}

    def test_valid_orders_yields_identity_first(self):
        tables = [noop_table(n, f"f{n}") for n in "abc"]
        orders = list(valid_orders(tables))
        assert orders[0] == ("a", "b", "c")
        assert len(orders) == 6  # all permutations, all independent

    def test_valid_orders_respects_dependency(self):
        a = writer_table("a", "fa", "x")
        b = noop_table("b", "x")
        c = noop_table("c", "fc")
        orders = list(valid_orders([a, b, c]))
        for order in orders:
            assert order.index("a") < order.index("b")

    def test_valid_orders_come_in_permutations_order(self):
        """Every valid order, in the order ``itertools.permutations``
        lists the permutations it keeps."""
        tables = [
            writer_table("a", "fa", "x"),
            noop_table("b", "x"),
            acl_table("c", "fc"),
            writer_table("d", "fd", "y"),
            noop_table("e", "y"),
        ]
        must_precede = dependency_graph(tables)
        assert must_precede == {("a", "b"), ("d", "e")}
        expected = [
            order
            for order in permutations("abcde")
            if all(order.index(x) < order.index(y) for x, y in must_precede)
        ]
        assert len(expected) == 30
        assert list(valid_orders(tables, limit=64)) == expected

    def test_valid_orders_limit(self):
        tables = [noop_table(f"t{i}", f"f{i}") for i in range(5)]
        orders = list(valid_orders(tables, limit=7))
        assert len(orders) == 7

    def test_order_is_valid(self):
        a = writer_table("a", "fa", "x")
        b = noop_table("b", "x")
        assert order_is_valid([a, b], ["a", "b"])
        assert not order_is_valid([a, b], ["b", "a"])
        assert not order_is_valid([a, b], ["a"])  # missing table


class TestMovableToFront:
    def test_hoists_as_far_as_allowed(self):
        a = noop_table("a", "fa")
        b = noop_table("b", "fb")
        c = acl_table("c", "fc")
        assert movable_to_front([a, b, c], "c") == ("c", "a", "b")

    def test_blocked_by_dependency(self):
        a = writer_table("a", "fa", "x")
        b = noop_table("b", "x")
        c = noop_table("c", "fc")
        # b can't move past a (a writes b's key).
        assert movable_to_front([a, b, c], "b") is None

    def test_partial_hoist(self):
        a = noop_table("a", "fa")
        b = writer_table("b", "fb", "x")
        c = noop_table("c", "x")  # depends on b
        # c can't pass b, and there's nothing before b to pass.
        assert movable_to_front([a, b, c], "c") is None

    def test_unknown_table(self):
        assert movable_to_front([noop_table("a", "f")], "zzz") is None
