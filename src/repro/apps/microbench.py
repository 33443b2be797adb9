"""Microbenchmark programs (§5.2.1, Figure 9).

The paper constructs microbenchmarks from "pipelets with four tables,
replicated with a scale factor N". Three variants:

* reorder benchmark — a chain of exact tables with one freely-movable
  ACL table whose position is the swept parameter (Fig. 9a/9b);
* caching benchmark — replicas of a four-ternary-table pipelet, each
  table matching a different five-tuple field (Fig. 9c);
* merging benchmark — replicas of a four-small-exact-table pipelet
  (Fig. 9d).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import IrError
from repro.ir.actions import drop_action, noop_action
from repro.ir.builder import ProgramBuilder
from repro.ir.entries import ExactValue, TableEntry, TernaryValue
from repro.ir.program import Program
from repro.ir.tables import MatchType

ACL_FIELD = "l4.dport"
#: Destination port whose packets the benchmark ACL drops.
DENY_PORT = 6666

#: The four distinct match fields of the caching/merging pipelet.
PIPELET_FIELDS = ("ipv4.src", "ipv4.dst", "l4.sport", "l4.dport")


def reorder_benchmark_program(
    n_tables: int = 22,
    acl_position: int = 21,
    n_actions: int = 2,
    n_primitives: int = 1,
) -> Program:
    """A chain of exact tables with an ACL at ``acl_position``.

    The ACL matches on a field no other table reads or writes, so it has
    no dependencies and can sit anywhere (0 = front).
    """
    if not 0 <= acl_position < n_tables:
        raise IrError(
            f"acl_position {acl_position} out of range [0, {n_tables})"
        )
    builder = ProgramBuilder(f"reorder_bench_{acl_position}")
    names: list[str] = []
    regular_index = 0
    for position in range(n_tables):
        if position == acl_position:
            name = "acl"
            builder.table(
                name,
                [ACL_FIELD],
                [drop_action("acl_deny"), noop_action("acl_permit")],
                default_action="acl_permit",
                annotations={"role": "acl"},
            )
        else:
            name = f"t{regular_index}"
            regular_index += 1
            builder.table(
                name,
                [f"ipv4.f{regular_index}"],
                [
                    noop_action(f"{name}_a{j}", n_primitives)
                    for j in range(n_actions)
                ],
            )
        names.append(name)
    builder.chain(names)
    return builder.build(root=names[0])


def install_acl_deny_entry(
    control_plane, deny_port: int = DENY_PORT, table: str = "acl"
) -> int:
    """Install the drop rule the benchmark traffic mixes against."""
    return control_plane.insert_entry(
        table,
        TableEntry((ExactValue(deny_port),), "acl_deny"),
    )


def pipelet_benchmark_program(
    n_copies: int = 1,
    match_type: MatchType = MatchType.TERNARY,
    n_actions: int = 2,
    n_primitives: int = 1,
    table_size: int = 65536,
) -> Program:
    """N replicas of the four-table pipelet (caching/merging benchmark).

    Tables within a replica match different five-tuple fields, so a
    single cache over them needs the cross product of their keys — the
    setting of Fig. 9c's [1,2,3,4] discussion.
    """
    builder = ProgramBuilder(f"pipelet_bench_{match_type.value}")
    names: list[str] = []
    for copy in range(n_copies):
        for i, field in enumerate(PIPELET_FIELDS):
            name = f"p{copy}_t{i + 1}"
            builder.table(
                name,
                [(field, match_type)],
                [
                    noop_action(f"{name}_a{j}", n_primitives)
                    for j in range(n_actions)
                ],
                size=table_size,
            )
            names.append(name)
    builder.chain(names)
    return builder.build(root=names[0])


def install_ternary_mask_entries(
    control_plane,
    program: Program,
    n_masks: int = 8,
) -> None:
    """Give each ternary table ``n_masks`` distinct masks (sets its m)."""
    for table in program.plain_tables():
        if table.worst_match_type is not MatchType.TERNARY:
            continue
        action = next(iter(table.actions))
        for i in range(n_masks):
            control_plane.insert_entry(
                table.name,
                TableEntry(
                    (TernaryValue(i + 1, 0x3F << (2 * i)),),
                    action,
                    priority=i,
                ),
            )


def install_small_exact_entries(
    control_plane,
    program: Program,
    values: Sequence[int] = (1, 2, 3),
    action_index: int = 0,
) -> None:
    """A few static exact entries per table (the merging workload)."""
    for table in program.plain_tables():
        if table.worst_match_type is not MatchType.EXACT:
            continue
        if len(table.keys) != 1:
            continue
        action = list(table.actions)[action_index]
        for value in values:
            control_plane.insert_entry(
                table.name,
                TableEntry((ExactValue(value),), action),
            )
