"""Shared machinery for program transformations."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.profiling import CounterMap
from repro.errors import TransformError
from repro.ir.actions import Action, ActionPrimitive, Param
from repro.ir.program import Program
from repro.ir.tables import TableKind, TableNode


@dataclass
class TransformResult:
    """Outcome of one transformation on a (cloned) program."""

    program: Program
    counter_map: CounterMap = field(default_factory=CounterMap)
    created: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)

    def absorb(self, other: "TransformResult") -> None:
        self.program = other.program
        self.counter_map.merge(other.counter_map)
        self.created.extend(other.created)
        self.removed.extend(other.removed)


def require_linear_run(program: Program, covers: list[str]) -> str | None:
    """Check ``covers`` is a contiguous single-next run of plain tables.

    Returns the node after the run (the hit_next). Raises
    :class:`TransformError` otherwise.
    """
    if not covers:
        raise TransformError("Empty table run")
    for i, name in enumerate(covers):
        if name not in program.nodes:
            raise TransformError(f"No such table {name!r}")
        node = program.node(name)
        if not isinstance(node, TableNode):
            raise TransformError(f"{name!r} is not a table")
        if node.kind is not TableKind.PLAIN:
            raise TransformError(
                f"{name!r} is a {node.kind.value} table; only plain "
                f"tables can be transformed"
            )
        nexts = set(node.next_map.values())
        if len(nexts) != 1:
            raise TransformError(
                f"{name!r} is a switch-case table; run must be linear"
            )
        nxt = next(iter(nexts))
        if i + 1 < len(covers):
            if nxt != covers[i + 1]:
                raise TransformError(
                    f"{name!r} does not flow into {covers[i + 1]!r}"
                )
    last = program.table(covers[-1])
    return next(iter(set(last.next_map.values())))


def rewire_external_edges(
    program: Program, old_entry: str, new_entry: str, internal: set[str]
) -> None:
    """Point all edges into ``old_entry`` from outside ``internal`` at
    ``new_entry`` (including the root pointer)."""
    for node in program.nodes.values():
        if node.name in internal or node.name == new_entry:
            continue
        if isinstance(node, TableNode):
            for action_name, nxt in node.next_map.items():
                if nxt == old_entry:
                    node.next_map[action_name] = new_entry
            # Cache/merged nodes route through cache_info, which must
            # stay consistent with next_map (the emulator follows it).
            if node.cache_info is not None:
                if node.cache_info.hit_next == old_entry:
                    node.cache_info.hit_next = new_entry
                if node.cache_info.miss_next == old_entry:
                    node.cache_info.miss_next = new_entry
        else:
            if node.true_next == old_entry:
                node.true_next = new_entry
            if node.false_next == old_entry:
                node.false_next = new_entry
    if program.root == old_entry:
        program.root = new_entry


def action_arity(action: Action) -> int:
    """Number of runtime action-data arguments the action consumes."""
    highest = -1
    for primitive in action.primitives:
        for arg in primitive.args:
            if isinstance(arg, Param):
                highest = max(highest, arg.index)
    return highest + 1


def shift_params(action: Action, offset: int) -> tuple[ActionPrimitive, ...]:
    """Re-index Param placeholders by ``offset`` (for composite actions)."""
    if offset == 0:
        return action.primitives
    shifted = []
    for primitive in action.primitives:
        args = tuple(
            Param(a.index + offset) if isinstance(a, Param) else a
            for a in primitive.args
        )
        shifted.append(ActionPrimitive(primitive.op, args))
    return tuple(shifted)


def composite_action(actions: list[Action], name: str | None = None) -> Action:
    """Concatenate actions, re-indexing their Params (table merging)."""
    primitives: list[ActionPrimitive] = []
    offset = 0
    for action in actions:
        primitives.extend(shift_params(action, offset))
        offset += action_arity(action)
    return Action(
        name or "+".join(a.name for a in actions), tuple(primitives)
    )


def union_match_fields(tables: list[TableNode]) -> tuple[str, ...]:
    """Sorted union of match fields (cache/merged table keys)."""
    fields: set[str] = set()
    for table in tables:
        fields.update(table.match_fields)
    return tuple(sorted(fields))
