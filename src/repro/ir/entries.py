"""Table entries and match value types.

Entries are *runtime* state (they live in the control plane), but their
value types are part of the IR because optimizations such as table merging
manipulate them symbolically (Figure 6 in the paper).

All values are integers; IPv4 addresses are 32-bit ints, ports 16-bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Union

from repro.errors import IrError

#: Assumed storage width of one match field, used for memory accounting.
FIELD_BYTES = 4
#: Assumed overhead per entry (action id, pointers) for memory accounting.
ENTRY_OVERHEAD_BYTES = 8


@dataclass(frozen=True)
class ExactValue:
    """Exact match on a single value."""

    value: int

    def matches(self, packet_value: int) -> bool:
        return packet_value == self.value

    def as_ternary(self, width_bits: int = 32) -> "TernaryValue":
        return TernaryValue(self.value, (1 << width_bits) - 1)


@dataclass(frozen=True)
class LpmValue:
    """Longest-prefix match value: ``value / prefix_len`` (width 32)."""

    value: int
    prefix_len: int
    width_bits: int = 32

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= self.width_bits:
            raise IrError(
                f"prefix_len {self.prefix_len} out of range "
                f"[0, {self.width_bits}]"
            )

    @property
    def mask(self) -> int:
        if self.prefix_len == 0:
            return 0
        return ((1 << self.prefix_len) - 1) << (
            self.width_bits - self.prefix_len
        )

    def matches(self, packet_value: int) -> bool:
        return (packet_value & self.mask) == (self.value & self.mask)

    def as_ternary(self, width_bits: int = 32) -> "TernaryValue":
        return TernaryValue(self.value & self.mask, self.mask)


@dataclass(frozen=True)
class TernaryValue:
    """Ternary match: ``value & mask`` must equal ``packet & mask``."""

    value: int
    mask: int

    def matches(self, packet_value: int) -> bool:
        return (packet_value & self.mask) == (self.value & self.mask)

    def as_ternary(self, width_bits: int = 32) -> "TernaryValue":
        return self

    @property
    def is_wildcard(self) -> bool:
        return self.mask == 0


@dataclass(frozen=True)
class RangeValue:
    """Inclusive range match ``lo <= packet_value <= hi``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise IrError(f"Range lo {self.lo} > hi {self.hi}")

    def matches(self, packet_value: int) -> bool:
        return self.lo <= packet_value <= self.hi


MatchValue = Union[ExactValue, LpmValue, TernaryValue, RangeValue]

#: Wildcard ternary value (matches anything), used by merged tables.
WILDCARD = TernaryValue(0, 0)

_entry_counter = itertools.count(1)


@dataclass
class TableEntry:
    """One installed match-action entry.

    ``priority`` breaks ternary/range overlaps: *higher wins* (the paper's
    Figure 6 uses the same convention).
    """

    match_values: tuple[MatchValue, ...]
    action_name: str
    action_data: tuple[Any, ...] = ()
    priority: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_counter))

    def __post_init__(self) -> None:
        self.match_values = tuple(self.match_values)
        self.action_data = tuple(self.action_data)

    def matches(self, packet_values: tuple[int, ...]) -> bool:
        """Linear-scan oracle used to validate the fast match engines."""
        if len(packet_values) != len(self.match_values):
            return False
        return all(
            mv.matches(pv)
            for mv, pv in zip(self.match_values, packet_values)
        )

    @property
    def size_bytes(self) -> int:
        """Approximate storage footprint (memory-budget accounting)."""
        return ENTRY_OVERHEAD_BYTES + FIELD_BYTES * len(self.match_values)

    def clone(self) -> "TableEntry":
        """Copy with a fresh entry id (for installing into another table)."""
        return TableEntry(
            match_values=self.match_values,
            action_name=self.action_name,
            action_data=self.action_data,
            priority=self.priority,
        )


def exact_entry(
    values: tuple[int, ...] | int,
    action_name: str,
    action_data: tuple[Any, ...] = (),
) -> TableEntry:
    """Build an all-exact entry from raw ints."""
    if isinstance(values, int):
        values = (values,)
    return TableEntry(
        tuple(ExactValue(v) for v in values), action_name, action_data
    )


def distinct_masks(entries: list[TableEntry]) -> int:
    """Number of distinct mask combinations among ternary entries.

    The paper models a ternary table as multiple hash tables, one per
    distinct mask; the lookup cost ``m`` equals this count (>= 1).
    """
    masks = set()
    for entry in entries:
        combo = tuple(
            v.mask if isinstance(v, (TernaryValue, LpmValue)) else None
            for v in entry.match_values
        )
        masks.add(combo)
    return max(1, len(masks))


def distinct_prefix_lengths(entries: list[TableEntry]) -> int:
    """Number of distinct prefix-length combinations among LPM entries."""
    lengths = set()
    for entry in entries:
        combo = tuple(
            v.prefix_len if isinstance(v, LpmValue) else None
            for v in entry.match_values
        )
        lengths.add(combo)
    return max(1, len(lengths))
