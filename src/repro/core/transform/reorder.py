"""Table reordering (§3.2.1).

Moves high-drop tables earlier so dropped packets leave the pipeline as
soon as possible (run-to-completion cores fetch the next packet on drop,
unlike switch ASICs which carry a drop bit to the end). Reordering is
free in resources but only legal across dependency-free tables.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.profiling import RuntimeProfile
from repro.core.transform.base import TransformResult, rewire_external_edges
from repro.errors import TransformError
from repro.ir.dependency import dependency_graph, order_is_valid
from repro.ir.program import Program
from repro.ir.tables import TableNode


def apply_reorder(
    program: Program,
    run: Sequence[str],
    order: Sequence[str],
    check_dependencies: bool = True,
) -> TransformResult:
    """Reorder the linear run ``run`` into ``order``.

    Works on a clone; the input program is untouched. The run must be a
    contiguous single-next chain (``require_linear_run`` semantics are
    implied by how the rewiring works, and dependencies are verified).
    """
    run = list(run)
    order = list(order)
    if sorted(run) != sorted(order):
        raise TransformError(
            f"Order {order} is not a permutation of {run}"
        )
    if run == order:
        return TransformResult(program.clone())
    tables = [program.table(name) for name in run]
    if check_dependencies and not order_is_valid(tables, order):
        raise TransformError(
            f"Order {order} violates table dependencies"
        )
    exit_next = _run_exit(program, run)
    cloned = program.clone()
    internal = set(run)
    rewire_external_edges(cloned, run[0], order[0], internal)
    for i, name in enumerate(order):
        node = cloned.table(name)
        nxt = order[i + 1] if i + 1 < len(order) else exit_next
        for action_name in node.next_map:
            node.next_map[action_name] = nxt
    return TransformResult(cloned)


def _run_exit(program: Program, run: Sequence[str]) -> str | None:
    last = program.table(run[-1])
    nexts = set(last.next_map.values())
    if len(nexts) != 1:
        raise TransformError(
            f"{run[-1]!r} is a switch-case table; cannot reorder"
        )
    return next(iter(nexts))


def drop_rate_order(
    tables: Sequence[TableNode], profile: RuntimeProfile
) -> tuple[str, ...]:
    """Greedy drop-rate-descending order that respects dependencies.

    Repeatedly picks, among tables whose dependencies are satisfied, the
    one with the highest current drop rate — the paper's "promote tables
    with higher dropping rates to earlier places".
    """
    must_precede = dependency_graph(tables)
    drop_rate = {t.name: profile.drop_rate(t) for t in tables}
    order: list[str] = []
    while len(order) < len(drop_rate):
        ready = [
            name
            for name in drop_rate
            if name not in order
            and all(a in order for a, b in must_precede if b == name)
        ]
        order.append(min(ready, key=lambda n: (-drop_rate[n], n)))
    return tuple(order)
