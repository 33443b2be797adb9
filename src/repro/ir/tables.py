"""Match-action table nodes of the P4 graph IR."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional

from repro.errors import IrError
from repro.ir.actions import Action


class MatchType(str, Enum):
    """P4 match kinds supported by the IR (and the cost model)."""

    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"
    RANGE = "range"


class Pipeline(str, Enum):
    """Which SmartNIC core pool a node is assigned to (§3.2.4)."""

    ASIC = "asic"
    CPU = "cpu"


class MemoryTier(str, Enum):
    """Memory hierarchy level a table's entries live in (§6).

    The paper's "hierarchical memory support" future work: NICs like
    Agilio CX offer internal SRAM (IMEM) and local cluster memory
    (LMEM) that are much faster than the external DRAM (EMEM) all P4
    tables default to. The extension lets the optimizer place hot
    tables into faster tiers under a fast-memory budget.
    """

    EMEM = "emem"  # external memory (default; slowest, largest)
    IMEM = "imem"  # internal SRAM
    LMEM = "lmem"  # local/cluster memory (fastest, smallest)


class TableKind(str, Enum):
    """Role of a table node; transformations introduce the special kinds."""

    PLAIN = "table"
    CACHE = "cache"  # flow cache inserted by table caching (§3.2.2)
    MERGED = "merged"  # merged table from table merging (§3.2.3)
    NAVIGATION = "navigation"  # jump-to-next_tab_id table (§3.2.4)
    MIGRATION = "migration"  # records next_tab_id before migration


@dataclass(frozen=True)
class MatchKey:
    """One match key: a field name plus its match type."""

    field: str
    match_type: MatchType = MatchType.EXACT

    def __post_init__(self) -> None:
        if not self.field:
            raise IrError("MatchKey field must be non-empty")
        if not isinstance(self.match_type, MatchType):
            object.__setattr__(
                self, "match_type", MatchType(self.match_type)
            )


@dataclass
class CacheInfo:
    """Extra semantics attached to CACHE / MERGED tables.

    ``covers``
        Names of the original tables whose combined behaviour this table
        short-circuits, in execution order.
    ``hit_next``
        Node the packet jumps to on a hit (the node right after the
        covered run); ``None`` means end of pipeline.
    ``miss_next``
        First covered table; packets fall back there on a miss.
    ``mode``
        ``"flow"`` for runtime-populated flow caches (insert on miss),
        ``"merge"`` for merge-produced exact caches (pre-populated from
        the cross product of the covered tables' entries; never inserts
        at runtime).
    """

    covers: tuple[str, ...]
    hit_next: Optional[str]
    miss_next: str
    mode: str = "flow"
    capacity: int = 4096
    insertion_limit_pps: float = 10000.0
    estimated_hit_rate: float = 0.9

    def __post_init__(self) -> None:
        if self.mode not in ("flow", "merge"):
            raise IrError(f"Unknown cache mode {self.mode!r}")
        if not self.covers:
            raise IrError("CacheInfo.covers must be non-empty")
        self.covers = tuple(self.covers)


@dataclass
class TableNode:
    """A match-action table in the program DAG.

    ``next_map`` maps each action name to the next node (or ``None`` for
    the end of the pipeline). A table whose actions lead to *different*
    next nodes is a "switch-case table" in the paper's terminology and
    forms its own pipelet.
    """

    name: str
    keys: tuple[MatchKey, ...]
    actions: dict[str, Action]
    default_action: str
    next_map: dict[str, Optional[str]]
    size: int = 1024
    kind: TableKind = TableKind.PLAIN
    pipeline: Pipeline = Pipeline.ASIC
    memory_tier: MemoryTier = MemoryTier.EMEM
    cache_info: Optional[CacheInfo] = None
    annotations: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.keys = tuple(self.keys)
        if not self.name:
            raise IrError("Table name must be non-empty")
        if self.default_action not in self.actions:
            raise IrError(
                f"Table {self.name}: default action "
                f"{self.default_action!r} not among actions"
            )
        for action_name in self.next_map:
            if action_name not in self.actions:
                raise IrError(
                    f"Table {self.name}: next_map references unknown "
                    f"action {action_name!r}"
                )
        for action_name in self.actions:
            self.next_map.setdefault(action_name, None)
        if self.kind in (TableKind.CACHE, TableKind.MERGED):
            if self.cache_info is None and self.kind is TableKind.CACHE:
                raise IrError(
                    f"Table {self.name}: CACHE kind requires cache_info"
                )

    # -- structure ---------------------------------------------------------

    @property
    def is_switch_case(self) -> bool:
        """True if different actions lead to different next nodes."""
        return len(set(self.next_map.values())) > 1

    def successors(self) -> list[Optional[str]]:
        """Distinct next nodes in deterministic order."""
        seen: list[Optional[str]] = []
        for nxt in self.next_map.values():
            if nxt not in seen:
                seen.append(nxt)
        return seen

    def next_for(self, action_name: str) -> Optional[str]:
        if action_name not in self.next_map:
            raise IrError(
                f"Table {self.name}: unknown action {action_name!r}"
            )
        return self.next_map[action_name]

    @property
    def match_fields(self) -> tuple[str, ...]:
        return tuple(k.field for k in self.keys)

    @property
    def match_types(self) -> tuple[MatchType, ...]:
        return tuple(k.match_type for k in self.keys)

    @property
    def worst_match_type(self) -> MatchType:
        """The costliest match type among the keys (cost model input)."""
        order = [
            MatchType.RANGE,
            MatchType.TERNARY,
            MatchType.LPM,
            MatchType.EXACT,
        ]
        for match_type in order:
            if match_type in self.match_types:
                return match_type
        return MatchType.EXACT

    # -- dependency sets (see ir.dependency) -------------------------------

    def read_fields(self) -> set[str]:
        fields = set(self.match_fields)
        for action in self.actions.values():
            fields.update(action.read_fields())
        return fields

    def written_fields(self) -> set[str]:
        fields: set[str] = set()
        for action in self.actions.values():
            fields.update(action.written_fields())
        return fields

    @property
    def can_drop(self) -> bool:
        return any(a.drops for a in self.actions.values())

    # -- copying -----------------------------------------------------------

    def clone(self, **overrides: Any) -> "TableNode":
        """Copy the node (cache_info deep-copied: rewiring mutates it)."""
        if self.cache_info is not None and "cache_info" not in overrides:
            overrides["cache_info"] = replace(self.cache_info)
        return replace(
            self,
            **{
                "actions": dict(self.actions),
                "next_map": dict(self.next_map),
                "annotations": dict(self.annotations),
                **overrides,
            },
        )
