"""Lookup engines for the four P4 match kinds.

The engines double as the emulator's performance model input: each engine
reports ``memory_accesses`` — the paper's ``m`` (Equation 4a) — derived
from its actual structure (one hash table per distinct ternary mask or LPM
prefix length, as described in §3.1).

``lookup`` probes that structure for one key and is the specification.
``lookup_many`` answers a whole key matrix from the same structure laid
out as sorted int64 arrays (one :class:`_RowIndex` per hash table),
rebuilt lazily when the engine's mutation counter has moved; whatever
the arrays cannot express exactly takes the per-row loop over
``lookup``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import ControlPlaneError, UnknownEntryError
from repro.ir.entries import (
    ExactValue,
    LpmValue,
    RangeValue,
    TableEntry,
    TernaryValue,
)
from repro.ir.tables import MatchKey, MatchType


#: Multiplier of the wrapping polynomial that packs a multi-column key
#: row into one sortable ``uint64``. Packing may collide: installed rows
#: that do make the engine fall back, and a probe only matches after
#: its full row compares equal.
_PACK_MULTIPLIER = 0x9E3779B97F4A7C15


class _Inexpressible(Exception):
    """The installed entries have no exact int64 array form."""


def _pack(rows: np.ndarray) -> np.ndarray:
    """One sortable word per row of an ``(n, width)`` int64 matrix."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    multiplier = np.uint64(_PACK_MULTIPLIER)
    packed = np.zeros(len(rows), dtype=np.uint64)
    for column in rows.view(np.uint64).T:
        packed *= multiplier
        packed += column
    return packed


def _int64_rows(rows: Iterable[tuple[int, ...]], width: int) -> np.ndarray:
    rows = list(rows)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        raise _Inexpressible from None


def _slot_table(entries: Iterable[TableEntry]) -> np.ndarray:
    """Entries by slot, ``None`` last — so slot ``-1`` reads as a miss."""
    entries = list(entries)
    table = np.empty(len(entries) + 1, dtype=object)
    table[:-1] = entries
    return table


class _RowIndex:
    """One of §3.1's hash tables as arrays: distinct int64 key rows,
    found again by ``searchsorted`` over their packed words."""

    __slots__ = ("rows", "order", "packed")

    def __init__(self, rows: np.ndarray):
        packed = _pack(rows)
        self.rows = rows
        self.order = np.argsort(packed, kind="stable")
        self.packed = packed[self.order]
        if (self.packed[1:] == self.packed[:-1]).any():
            raise _Inexpressible  # two installed rows share a word

    def find(self, probes: np.ndarray) -> np.ndarray:
        """The row number each probe row equals, ``-1`` for none."""
        if not len(self.rows):
            return np.full(len(probes), -1, dtype=np.int64)
        at = np.searchsorted(self.packed, _pack(probes))
        found = self.order[np.minimum(at, len(self.rows) - 1)]
        found[(self.rows[found] != probes).any(axis=1)] = -1
        return found


class MatchEngine(ABC):
    """Stores entries and answers lookups for one table."""

    def __init__(self, keys: tuple[MatchKey, ...]):
        self.keys = keys
        self._entries: dict[int, TableEntry] = {}
        #: Bumped by every add/remove/clear; guards ``_arrays``.
        self._mutations = 0
        self._arrays_at = -1
        #: ``_vectorise()`` of the installed entries, or None where
        #: only ``lookup`` is exact.
        self._arrays: Optional[
            tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]
        ] = None
        #: Rows ``lookup_many`` resolved one ``lookup`` at a time.
        self.scalar_rows = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[TableEntry]:
        return list(self._entries.values())

    @property
    @abstractmethod
    def memory_accesses(self) -> int:
        """The cost-model ``m``: hash-table probes per lookup (>= 1)."""

    def add(self, entry: TableEntry) -> None:
        if len(entry.match_values) != len(self.keys):
            raise ControlPlaneError(
                f"Entry has {len(entry.match_values)} match values, "
                f"table has {len(self.keys)} keys"
            )
        if entry.entry_id in self._entries:
            raise ControlPlaneError(
                f"Entry id {entry.entry_id} already installed"
            )
        self._check_types(entry)
        self._mutations += 1
        self._entries[entry.entry_id] = entry
        self._index_add(entry)

    def remove(self, entry_id: int) -> TableEntry:
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            raise UnknownEntryError(f"No entry with id {entry_id}")
        self._mutations += 1
        self._index_remove(entry)
        return entry

    def clear(self) -> None:
        self._mutations += 1
        self._entries.clear()
        self._index_clear()

    @abstractmethod
    def lookup(self, values: tuple[int, ...]) -> Optional[TableEntry]:
        """Best matching entry for the packet's key-field values."""

    def lookup_many(
        self, key_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``lookup`` of every row of an ``(n, len(keys))`` int64 matrix.

        Returns ``(table, slots)``: ``table[slots[i]]`` is the very
        entry ``lookup`` returns for row ``i``. ``table`` ends in
        ``None``, so slot ``-1`` is a miss, and stays the same object
        until the engine is next mutated — a caller may memoise per
        slot for as long as it is handed the same table.
        """
        if self._arrays_at != self._mutations:
            self._arrays_at = self._mutations
            try:
                self._arrays = self._vectorise()
            except _Inexpressible:
                self._arrays = None
        if self._arrays is not None:
            table, slots_of = self._arrays
            return table, slots_of(key_matrix)
        self.scalar_rows += len(key_matrix)
        return (
            _slot_table(self.lookup(tuple(r)) for r in key_matrix.tolist()),
            np.arange(len(key_matrix)),
        )

    def _vectorise(
        self,
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """The installed entries as ``(slot table, key matrix -> slots)``;
        :class:`_Inexpressible` keeps the per-row loop (as here: a
        range table is a linear scan by design)."""
        raise _Inexpressible

    # Index maintenance hooks ------------------------------------------------

    @abstractmethod
    def _index_add(self, entry: TableEntry) -> None: ...

    @abstractmethod
    def _index_remove(self, entry: TableEntry) -> None: ...

    @abstractmethod
    def _index_clear(self) -> None: ...

    def _check_types(self, entry: TableEntry) -> None:
        """Subclasses may restrict which value kinds they accept."""

    def oracle_lookup(self, values: tuple[int, ...]) -> Optional[TableEntry]:
        """Reference linear scan (tests compare engines against this)."""
        best: Optional[TableEntry] = None
        for entry in self._entries.values():
            if entry.matches(values):
                if best is None or (entry.priority, -entry.entry_id) > (
                    best.priority,
                    -best.entry_id,
                ):
                    best = entry
        return best


class ExactEngine(MatchEngine):
    """All-exact keys: a single hash table, ``m = 1``."""

    def __init__(self, keys: tuple[MatchKey, ...]):
        super().__init__(keys)
        self._map: dict[tuple[int, ...], TableEntry] = {}

    @property
    def memory_accesses(self) -> int:
        return 1

    def _check_types(self, entry: TableEntry) -> None:
        for value in entry.match_values:
            if not isinstance(value, ExactValue):
                raise ControlPlaneError(
                    "ExactEngine only accepts ExactValue matches"
                )

    def _key_of(self, entry: TableEntry) -> tuple[int, ...]:
        return tuple(v.value for v in entry.match_values)  # type: ignore[union-attr]

    def _index_add(self, entry: TableEntry) -> None:
        key = self._key_of(entry)
        if key in self._map:
            del self._entries[entry.entry_id]
            raise ControlPlaneError(
                f"Duplicate exact key {key} (existing entry "
                f"{self._map[key].entry_id})"
            )
        self._map[key] = entry

    def _index_remove(self, entry: TableEntry) -> None:
        self._map.pop(self._key_of(entry), None)

    def _index_clear(self) -> None:
        self._map.clear()

    def lookup(self, values: tuple[int, ...]) -> Optional[TableEntry]:
        return self._map.get(values)

    def _vectorise(self):
        index = _RowIndex(_int64_rows(self._map, len(self.keys)))
        return _slot_table(self._map.values()), index.find


class LpmEngine(MatchEngine):
    """Exact keys plus at most one LPM key.

    Modelled as one hash table per distinct prefix mask, probed from the
    longest prefix down — exactly the structure the paper assumes when it
    sets ``m`` to the number of distinct prefixes.
    """

    def __init__(self, keys: tuple[MatchKey, ...]):
        super().__init__(keys)
        lpm_positions = [
            i for i, k in enumerate(keys) if k.match_type is MatchType.LPM
        ]
        if len(lpm_positions) != 1:
            raise ControlPlaneError(
                f"LpmEngine requires exactly one LPM key, got "
                f"{len(lpm_positions)}"
            )
        self._lpm_index = lpm_positions[0]
        self._by_mask: dict[int, dict[tuple[int, ...], TableEntry]] = {}
        #: ``_by_mask``'s items, longest prefix first (ties: widest).
        self._probe_order: list[
            tuple[int, dict[tuple[int, ...], TableEntry]]
        ] = []

    @property
    def memory_accesses(self) -> int:
        return max(1, len(self._by_mask))

    def _check_types(self, entry: TableEntry) -> None:
        for i, value in enumerate(entry.match_values):
            if i == self._lpm_index:
                if not isinstance(value, LpmValue):
                    raise ControlPlaneError(
                        "LPM key position requires an LpmValue"
                    )
            elif not isinstance(value, ExactValue):
                raise ControlPlaneError(
                    "Non-LPM keys of an LpmEngine must be ExactValue"
                )

    def _key_of(self, entry: TableEntry) -> tuple[int, tuple[int, ...]]:
        lpm_value = entry.match_values[self._lpm_index]
        assert isinstance(lpm_value, LpmValue)
        parts = []
        for i, value in enumerate(entry.match_values):
            if i == self._lpm_index:
                parts.append(lpm_value.value & lpm_value.mask)
            else:
                parts.append(value.value)  # type: ignore[union-attr]
        return lpm_value.mask, tuple(parts)

    def _reorder(self) -> None:
        # A prefix mask is ``prefix_len`` ones ending at bit ``width``.
        self._probe_order = sorted(
            self._by_mask.items(),
            key=lambda item: (item[0].bit_count(), item[0].bit_length()),
            reverse=True,
        )

    def _index_add(self, entry: TableEntry) -> None:
        mask, key = self._key_of(entry)
        bucket = self._by_mask.get(mask)
        if bucket is None:
            bucket = self._by_mask[mask] = {}
            self._reorder()
        if key in bucket:
            del self._entries[entry.entry_id]
            prefix_len = entry.match_values[self._lpm_index].prefix_len
            raise ControlPlaneError(
                f"Duplicate LPM key {key} at /{prefix_len}"
            )
        bucket[key] = entry

    def _index_remove(self, entry: TableEntry) -> None:
        mask, key = self._key_of(entry)
        bucket = self._by_mask.get(mask)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._by_mask[mask]
                self._reorder()

    def _index_clear(self) -> None:
        self._by_mask.clear()
        self._probe_order = []

    def lookup(self, values: tuple[int, ...]) -> Optional[TableEntry]:
        lpm = self._lpm_index
        for mask, bucket in self._probe_order:
            entry = bucket.get(
                values[:lpm] + (values[lpm] & mask,) + values[lpm + 1 :]
            )
            if entry is not None:
                return entry
        return None

    def _vectorise(self):
        lpm = self._lpm_index
        tables = []
        entries: list[TableEntry] = []
        for mask, bucket in self._probe_order:
            if mask.bit_length() > 63:
                raise _Inexpressible
            index = _RowIndex(_int64_rows(bucket, len(self.keys)))
            tables.append((mask, index, len(entries)))
            entries.extend(bucket.values())

        def slots_of(key_matrix: np.ndarray) -> np.ndarray:
            slots = np.full(len(key_matrix), -1, dtype=np.int64)
            unmatched = np.arange(len(key_matrix))
            for mask, index, first_slot in tables:
                if not unmatched.size:
                    break
                probes = key_matrix[unmatched]
                probes[:, lpm] &= mask
                found = index.find(probes)
                hit = found >= 0
                slots[unmatched[hit]] = found[hit] + first_slot
                unmatched = unmatched[~hit]
            return slots

        return _slot_table(entries), slots_of


class TernaryEngine(MatchEngine):
    """Arbitrary key mixes, normalised to (value, mask) pairs.

    One hash table per distinct mask combination; the winning entry is the
    highest-priority hit across all mask groups.
    """

    def __init__(self, keys: tuple[MatchKey, ...]):
        super().__init__(keys)
        self._groups: dict[
            tuple[int, ...], dict[tuple[int, ...], list[TableEntry]]
        ] = {}

    @property
    def memory_accesses(self) -> int:
        return max(1, len(self._groups))

    def _check_types(self, entry: TableEntry) -> None:
        for value in entry.match_values:
            if isinstance(value, RangeValue):
                raise ControlPlaneError(
                    "TernaryEngine cannot store RangeValue matches"
                )

    def _normalise(
        self, entry: TableEntry
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        masks = []
        masked = []
        for value in entry.match_values:
            ternary = value.as_ternary()  # type: ignore[union-attr]
            masks.append(ternary.mask)
            masked.append(ternary.value & ternary.mask)
        return tuple(masks), tuple(masked)

    def _index_add(self, entry: TableEntry) -> None:
        masks, masked = self._normalise(entry)
        group = self._groups.setdefault(masks, {})
        group.setdefault(masked, []).append(entry)

    def _index_remove(self, entry: TableEntry) -> None:
        masks, masked = self._normalise(entry)
        group = self._groups.get(masks)
        if group is None:
            return
        bucket = group.get(masked)
        if bucket is None:
            return
        bucket[:] = [e for e in bucket if e.entry_id != entry.entry_id]
        if not bucket:
            del group[masked]
        if not group:
            del self._groups[masks]

    def _index_clear(self) -> None:
        self._groups.clear()

    def lookup(self, values: tuple[int, ...]) -> Optional[TableEntry]:
        best: Optional[TableEntry] = None
        for masks, group in self._groups.items():
            probe = tuple(v & m for v, m in zip(values, masks))
            for entry in group.get(probe, ()):
                if best is None or (entry.priority, -entry.entry_id) > (
                    best.priority,
                    -best.entry_id,
                ):
                    best = entry
        return best

    def _vectorise(self):
        # Slots in rank order, so the best of several hits is the
        # largest slot and a miss (-1) loses to any of them.
        ranked = sorted(
            self._entries.values(), key=lambda e: (e.priority, -e.entry_id)
        )
        slot_of = {entry.entry_id: slot for slot, entry in enumerate(ranked)}
        width = len(self.keys)
        groups = []
        for masks, group in self._groups.items():
            winners = [
                max(slot_of[entry.entry_id] for entry in bucket)
                for bucket in group.values()
            ]
            groups.append(
                (
                    _int64_rows([masks], width)[0],
                    _RowIndex(_int64_rows(group, width)),
                    np.array(winners + [-1], dtype=np.int64),
                )
            )

        def slots_of(key_matrix: np.ndarray) -> np.ndarray:
            best = np.full(len(key_matrix), -1, dtype=np.int64)
            for masks, index, winners in groups:
                np.maximum(
                    best, winners[index.find(key_matrix & masks)], out=best
                )
            return best

        return _slot_table(ranked), slots_of


class RangeEngine(MatchEngine):
    """Linear-scan engine for tables with range keys."""

    @property
    def memory_accesses(self) -> int:
        # A range lookup degenerates to a scan over entry groups; cap the
        # modelled probe count so a big table doesn't dominate everything.
        return max(1, min(len(self._entries), 8))

    def _index_add(self, entry: TableEntry) -> None:
        pass

    def _index_remove(self, entry: TableEntry) -> None:
        pass

    def _index_clear(self) -> None:
        pass

    def lookup(self, values: tuple[int, ...]) -> Optional[TableEntry]:
        return self.oracle_lookup(values)


def build_engine(keys: tuple[MatchKey, ...]) -> MatchEngine:
    """Pick the cheapest engine able to serve the key set."""
    types = {k.match_type for k in keys}
    if not keys or types == {MatchType.EXACT}:
        return ExactEngine(keys)
    if MatchType.RANGE in types:
        return RangeEngine(keys)
    if MatchType.TERNARY in types:
        return TernaryEngine(keys)
    lpm_count = sum(1 for k in keys if k.match_type is MatchType.LPM)
    if lpm_count == 1:
        return LpmEngine(keys)
    return TernaryEngine(keys)
