"""Table copying (§3.2.4, Appendix A.2).

When packets would ping-pong between ASIC and CPU cores, Pipeleon copies
the tables needed by both onto the CPU side so software-bound traffic
finishes there without migrating back. The copy shares the original's
entries (the deployment layer mirrors them).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.transform.base import TransformResult
from repro.errors import TransformError
from repro.ir.conditionals import ConditionalNode
from repro.ir.program import Program
from repro.ir.tables import Pipeline, TableKind, TableNode


def copy_name(table: str, pipeline: Pipeline) -> str:
    return f"{table}__copy_{pipeline.value}"


def apply_copy(
    program: Program,
    table_name: str,
    to_pipeline: Pipeline = Pipeline.CPU,
) -> TransformResult:
    """Duplicate ``table_name`` onto ``to_pipeline``.

    Edges from nodes already on ``to_pipeline`` are rewired to the copy;
    everything else keeps using the original. Run this *before*
    ``apply_partition`` so migration plumbing reflects the final layout.
    """
    if table_name not in program.nodes:
        raise TransformError(f"No such table {table_name!r}")
    original = program.table(table_name)
    if original.kind is not TableKind.PLAIN:
        raise TransformError(
            f"Only plain tables can be copied, not {original.kind.value}"
        )
    if original.pipeline is to_pipeline:
        raise TransformError(
            f"Table {table_name!r} is already on {to_pipeline.value}"
        )
    cloned = program.clone()
    duplicate_name = copy_name(table_name, to_pipeline)
    if duplicate_name in cloned.nodes:
        raise TransformError(f"Node {duplicate_name!r} already exists")
    duplicate = cloned.table(table_name).clone(
        name=duplicate_name, pipeline=to_pipeline
    )
    duplicate.annotations["copy_of"] = table_name
    cloned.add(duplicate)
    for node in cloned.nodes.values():
        if node.name == duplicate_name or node.pipeline is not to_pipeline:
            continue
        if isinstance(node, TableNode):
            for action_name, nxt in node.next_map.items():
                if nxt == table_name:
                    node.next_map[action_name] = duplicate_name
        elif isinstance(node, ConditionalNode):
            if node.true_next == table_name:
                node.true_next = duplicate_name
            if node.false_next == table_name:
                node.false_next = duplicate_name
    return TransformResult(cloned, created=[duplicate_name])


def apply_copies(
    program: Program,
    table_names: Sequence[str],
    to_pipeline: Pipeline = Pipeline.CPU,
) -> TransformResult:
    """Copy several tables, accumulating into one result."""
    result = TransformResult(program.clone())
    for name in table_names:
        result.absorb(apply_copy(result.program, name, to_pipeline))
    return result
