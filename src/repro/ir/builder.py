"""Fluent construction of program DAGs.

The builder keeps app code (``repro.apps``) and tests short: it resolves
string shorthands for match types, default actions and linear chains.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

from repro.errors import IrError
from repro.ir.actions import Action, drop_action, noop_action
from repro.ir.conditionals import Condition, ConditionalNode
from repro.ir.program import Program
from repro.ir.tables import (
    CacheInfo,
    MatchKey,
    MatchType,
    Pipeline,
    TableKind,
    TableNode,
)

KeySpec = Union[MatchKey, str, tuple[str, str], tuple[str, MatchType]]


def _coerce_key(spec: KeySpec) -> MatchKey:
    if isinstance(spec, MatchKey):
        return spec
    if isinstance(spec, str):
        return MatchKey(spec, MatchType.EXACT)
    field, match_type = spec
    return MatchKey(field, MatchType(match_type))


class ProgramBuilder:
    """Accumulates nodes, then produces a validated :class:`Program`."""

    def __init__(self, name: str = "program"):
        self._program = Program(name=name)
        self._pending_chain: list[str] = []

    # -- nodes ---------------------------------------------------------------

    def table(
        self,
        name: str,
        keys: Sequence[KeySpec],
        actions: Sequence[Action],
        default_action: Optional[str] = None,
        next_node: Optional[str] = None,
        next_map: Optional[dict[str, Optional[str]]] = None,
        size: int = 1024,
        kind: TableKind = TableKind.PLAIN,
        pipeline: Pipeline = Pipeline.ASIC,
        cache_info: Optional[CacheInfo] = None,
        annotations: Optional[dict[str, Any]] = None,
    ) -> "ProgramBuilder":
        """Add a table. ``next_node`` routes all actions to one place;
        ``next_map`` overrides per action (making it a switch-case table).
        """
        if not actions:
            raise IrError(f"Table {name!r} needs at least one action")
        action_map = {a.name: a for a in actions}
        if len(action_map) != len(actions):
            raise IrError(f"Table {name!r} has duplicate action names")
        default = default_action or actions[-1].name
        full_next: dict[str, Optional[str]] = {
            a.name: next_node for a in actions
        }
        if next_map:
            full_next.update(next_map)
        self._program.add(
            TableNode(
                name=name,
                keys=tuple(_coerce_key(k) for k in keys),
                actions=action_map,
                default_action=default,
                next_map=full_next,
                size=size,
                kind=kind,
                pipeline=pipeline,
                cache_info=cache_info,
                annotations=dict(annotations or {}),
            )
        )
        return self

    def conditional(
        self,
        name: str,
        condition: Condition,
        true_next: Optional[str],
        false_next: Optional[str],
        pipeline: Pipeline = Pipeline.ASIC,
    ) -> "ProgramBuilder":
        self._program.add(
            ConditionalNode(
                name=name,
                condition=condition,
                true_next=true_next,
                false_next=false_next,
                pipeline=pipeline,
            )
        )
        return self

    # -- conveniences ----------------------------------------------------------

    def acl_table(
        self,
        name: str,
        field: str = "ipv4.src",
        next_node: Optional[str] = None,
        size: int = 1024,
        **kwargs: Any,
    ) -> "ProgramBuilder":
        """An ACL-style table: matched packets drop, others continue."""
        actions = [drop_action(f"{name}_deny"), noop_action(f"{name}_permit")]
        annotations = dict(kwargs.pop("annotations", {}))
        annotations.setdefault("role", "acl")
        return self.table(
            name,
            [field],
            actions,
            default_action=f"{name}_permit",
            next_node=next_node,
            size=size,
            annotations=annotations,
            **kwargs,
        )

    def chain(self, names: Iterable[str]) -> "ProgramBuilder":
        """Link already-added nodes into a linear chain, in order.

        Only rewrites ``None`` next pointers, so per-action routing set up
        through ``next_map`` is preserved.
        """
        names = list(names)
        for current, nxt in zip(names, names[1:]):
            node = self._program.node(current)
            if isinstance(node, TableNode):
                for action_name, target in node.next_map.items():
                    if target is None:
                        node.next_map[action_name] = nxt
            else:
                if node.true_next is None:
                    node.true_next = nxt
                if node.false_next is None:
                    node.false_next = nxt
        return self

    def set_next(self, name: str, target: Optional[str]) -> "ProgramBuilder":
        """Point every outgoing edge of ``name`` at ``target``."""
        node = self._program.node(name)
        if isinstance(node, TableNode):
            for action_name in node.next_map:
                node.next_map[action_name] = target
        else:
            node.true_next = target
            node.false_next = target
        return self

    def build(self, root: Optional[str] = None) -> Program:
        from repro.ir.validate import validate_program

        if root is not None:
            if root not in self._program:
                raise IrError(f"Root {root!r} was never added")
            self._program.root = root
        validate_program(self._program)
        return self._program


def linear_program(
    name: str,
    n_tables: int,
    match_type: MatchType = MatchType.EXACT,
    n_actions: int = 2,
    n_primitives: int = 1,
    field_prefix: str = "ipv4.f",
    size: int = 1024,
) -> Program:
    """A straight chain of ``n_tables`` identical tables.

    This is the calibration-suite building block from §3.1 (programs with
    varying length, match types, and action-primitive counts).
    """
    builder = ProgramBuilder(name)
    names = [f"{name}_t{i}" for i in range(n_tables)]
    for i, table_name in enumerate(names):
        actions = [
            noop_action(f"{table_name}_a{j}", n_primitives)
            for j in range(max(1, n_actions))
        ]
        builder.table(
            table_name,
            [(f"{field_prefix}{i}", match_type)],
            actions,
            size=size,
        )
    builder.chain(names)
    return builder.build(root=names[0] if names else None)
