"""Primitive execution: binding action data and applying effects."""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import EmulationError
from repro.ir.actions import Action, ActionPrimitive, Param
from repro.nic.packet import Packet

#: A bound primitive ready to apply (and to store in a flow cache).
BoundPrimitive = tuple[str, tuple[Any, ...]]


def bind_primitive(
    primitive: ActionPrimitive, action_data: tuple[Any, ...]
) -> BoundPrimitive:
    """Substitute Param placeholders with the entry's action data."""
    args = []
    for arg in primitive.args:
        if isinstance(arg, Param):
            if arg.index >= len(action_data):
                raise EmulationError(
                    f"Primitive {primitive.op} wants action-data index "
                    f"{arg.index} but entry has {len(action_data)} values"
                )
            args.append(action_data[arg.index])
        else:
            args.append(arg)
    return primitive.op, tuple(args)


def bind_action(
    action: Action, action_data: tuple[Any, ...]
) -> list[BoundPrimitive]:
    return [bind_primitive(p, action_data) for p in action.primitives]


def apply_primitive(
    packet: Packet,
    op: str,
    args: tuple[Any, ...],
    explicit_counters: Optional[dict[str, int]] = None,
) -> None:
    """Apply one bound primitive to the packet (mutates it)."""
    if op == "set_field":
        packet.set(str(args[0]), int(args[1]))
    elif op == "add_to_field":
        packet.add(str(args[0]), int(args[1]))
    elif op == "copy_field":
        packet.set(str(args[0]), packet.get(str(args[1])) or 0)
    elif op == "set_meta":
        key = str(args[0])
        if not key.startswith("meta."):
            key = f"meta.{key}"
        packet.set(key, int(args[1]))
    elif op == "forward":
        packet.egress_port = int(args[0])
    elif op == "drop":
        packet.dropped = True
    elif op == "no_op":
        pass
    elif op == "count":
        if explicit_counters is not None:
            name = str(args[0])
            explicit_counters[name] = explicit_counters.get(name, 0) + 1
    else:
        raise EmulationError(f"Unknown primitive op {op!r}")
