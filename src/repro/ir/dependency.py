"""Table dependency analysis (reordering safety).

Two tables can be swapped only when doing so cannot change program
behaviour. We use classic read/write-set analysis with one domain-specific
relaxation from the paper: *drop* decisions commute. Two ACL tables that
may both drop a packet can be reordered freely (whichever drops first,
the packet's observable fate is identical), so the synthetic ``__drop__``
field is excluded from output-dependency checks.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.ir.actions import DROP_FIELD
from repro.ir.tables import TableNode


def depends_on(first: TableNode, second: TableNode) -> bool:
    """True if ``second`` must stay after ``first`` (cannot swap them).

    Checks true (RAW), anti (WAR) and output (WAW) dependencies over the
    tables' read/write field sets, ignoring commutative drop writes.
    """
    first_writes = first.written_fields() - {DROP_FIELD}
    second_writes = second.written_fields() - {DROP_FIELD}
    if first_writes & second.read_fields():
        return True  # true dependency
    if first.read_fields() & second_writes:
        return True  # anti dependency
    if first_writes & second_writes:
        return True  # output dependency
    return False


def can_swap(first: TableNode, second: TableNode) -> bool:
    """True if adjacent tables ``first -> second`` may be reordered."""
    return not depends_on(first, second) and not depends_on(second, first)


def dependency_graph(tables: Sequence[TableNode]) -> set[tuple[str, str]]:
    """The must-precede relation over a linear run of tables.

    A pair ``(a, b)`` means ``a`` must execute before ``b``. Only pairs
    in their current relative order are considered (the current order is
    assumed correct).
    """
    return {
        (first.name, second.name)
        for i, first in enumerate(tables)
        for second in tables[i + 1:]
        if depends_on(first, second) or depends_on(second, first)
    }


def order_is_valid(
    tables: Sequence[TableNode], order: Sequence[str]
) -> bool:
    """Check that ``order`` respects all pairwise dependencies."""
    position = {name: i for i, name in enumerate(order)}
    if set(position) != {t.name for t in tables}:
        return False
    return all(
        position[a] < position[b] for a, b in dependency_graph(tables)
    )


def valid_orders(
    tables: Sequence[TableNode], limit: int = 64
) -> Iterator[tuple[str, ...]]:
    """Yield up to ``limit`` dependency-respecting orders.

    The identity order comes first, so callers can treat index 0 as the
    no-op candidate. The rest come from a backtracking search that tries
    the ready tables in index order: the order in which
    ``itertools.permutations`` lists them, without visiting the invalid
    ones.
    """
    names = tuple(t.name for t in tables)
    must_precede = dependency_graph(tables)
    yield names
    count = 1
    stack: list[tuple[str, ...]] = [()]
    while stack and count < limit:
        order = stack.pop()
        if len(order) == len(names):
            if order != names:
                yield order
                count += 1
            continue
        stack.extend(
            order + (name,)
            for name in reversed(names)
            if name not in order
            and all(a in order for a, b in must_precede if b == name)
        )


def movable_to_front(
    tables: Sequence[TableNode], target: str
) -> tuple[str, ...] | None:
    """The order obtained by hoisting ``target`` as early as allowed.

    Returns None when the table cannot move at all. This is the greedy
    primitive behind drop-rate-driven reordering.
    """
    names = [t.name for t in tables]
    if target not in names:
        return None
    by_name = {t.name: t for t in tables}
    index = names.index(target)
    position = index
    while position > 0 and can_swap(
        by_name[names[position - 1]], by_name[target]
    ):
        position -= 1
    if position == index:
        return None
    names.pop(index)
    names.insert(position, target)
    return tuple(names)
