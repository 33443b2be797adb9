"""Optimization plans: what the search decides, what deployment applies.

A plan is a set of per-pipelet *candidates*. Each candidate fixes a table
order (reordering) and labels contiguous segments of that order with an
operation: ``none`` (leave alone), ``cache`` (flow cache over the
segment), or ``merge`` (merged exact cache). Group candidates cache a
whole branch diamond. Candidates carry the cost-model estimates the
knapsack search needs: gain (ns, reach-weighted), memory bytes, and
added entry-update rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.pipelets import PipeletGroup
from repro.core.profiling import CounterMap
from repro.core.transform import (
    TransformResult,
    apply_cache,
    apply_group_cache,
    apply_merge,
    apply_reorder,
)
from repro.errors import SearchError
from repro.ir.program import Program


@dataclass(frozen=True)
class Segment:
    """One contiguous slice of a pipelet's (re)ordered tables."""

    op: str  # "none" | "cache" | "merge"
    tables: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.op not in ("none", "cache", "merge"):
            raise SearchError(f"Unknown segment op {self.op!r}")
        if not self.tables:
            raise SearchError("Segment cannot be empty")


@dataclass(frozen=True)
class Candidate:
    """A complete optimization choice for one pipelet (or group)."""

    pipelet_id: str
    run: tuple[str, ...]  # tables in their original order
    order: tuple[str, ...]  # chosen order (== run if no reorder)
    segments: tuple[Segment, ...]
    gain_ns: float
    memory_bytes: float
    update_pps: float
    group: Optional[PipeletGroup] = None

    @property
    def is_noop(self) -> bool:
        return self.order == self.run and all(
            s.op == "none" for s in self.segments
        )

    def describe(self) -> str:
        ops = []
        if self.order != self.run:
            ops.append(f"reorder->{list(self.order)}")
        for segment in self.segments:
            if segment.op != "none":
                ops.append(f"{segment.op}{list(segment.tables)}")
        if self.group is not None:
            ops.append(f"group-cache({self.group.group_id})")
        return "; ".join(ops) if ops else "no-op"


@dataclass(frozen=True)
class ResourceBudget:
    """Equation 5's constraints: memory and entry-update bandwidth."""

    memory_bytes: float = math.inf
    update_pps: float = math.inf

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.memory_bytes) or math.isfinite(
            self.update_pps
        )


@dataclass
class OptimizationPlan:
    """The chosen candidate per pipelet plus bookkeeping totals."""

    candidates: list[Candidate] = field(default_factory=list)
    search_time_s: float = 0.0
    pipelets_considered: int = 0
    combos_evaluated: int = 0
    #: Labelling-tree extensions the local search made: one per
    #: segment appended to a shared prefix.
    segment_steps: int = 0
    #: Hot pipelets whose local search was read from a search memo, and
    #: those searched cold (:class:`repro.core.search.SearchMemo`).
    search_memo_hits: int = 0
    search_memo_misses: int = 0

    @property
    def total_gain_ns(self) -> float:
        return sum(c.gain_ns for c in self.candidates)

    @property
    def total_memory_bytes(self) -> float:
        return sum(c.memory_bytes for c in self.candidates)

    @property
    def total_update_pps(self) -> float:
        return sum(c.update_pps for c in self.candidates)

    @property
    def is_noop(self) -> bool:
        return all(c.is_noop for c in self.candidates)

    def describe(self) -> str:
        lines = [
            f"plan: gain={self.total_gain_ns:.1f}ns "
            f"mem={self.total_memory_bytes:.0f}B "
            f"upd={self.total_update_pps:.1f}/s"
        ]
        for candidate in self.candidates:
            lines.append(
                f"  {candidate.pipelet_id}: {candidate.describe()}"
            )
        return "\n".join(lines)


def apply_plan(
    program: Program,
    plan: OptimizationPlan,
    cache_capacity: int = 4096,
    cache_insertion_limit_pps: float = 10000.0,
    default_hit_rate: float = 0.9,
) -> TransformResult:
    """Realise a plan as a transformed program (clone; original intact)."""
    result = TransformResult(program.clone(), CounterMap())
    for candidate in plan.candidates:
        if candidate.group is not None:
            has_op = any(s.op != "none" for s in candidate.segments)
            if has_op:
                result.absorb(
                    apply_group_cache(
                        result.program,
                        candidate.group,
                        capacity=cache_capacity,
                        insertion_limit_pps=cache_insertion_limit_pps,
                        estimated_hit_rate=default_hit_rate,
                    )
                )
            continue
        if candidate.order != candidate.run:
            result.absorb(
                apply_reorder(
                    result.program, candidate.run, candidate.order
                )
            )
        for segment in candidate.segments:
            if segment.op == "cache":
                result.absorb(
                    apply_cache(
                        result.program,
                        segment.tables,
                        capacity=cache_capacity,
                        insertion_limit_pps=cache_insertion_limit_pps,
                        estimated_hit_rate=default_hit_rate,
                    )
                )
            elif segment.op == "merge":
                result.absorb(
                    apply_merge(result.program, segment.tables)
                )
    return result
