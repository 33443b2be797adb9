"""Control plane: the authoritative entry store plus update accounting.

The control plane always speaks the *original* program's table names (the
paper: "Pipeleon ensures the same program management APIs by mapping the
API calls to the original program to the optimized version"). It owns the
shadow copy of every table's entries, timestamps each update to measure
per-table entry-update rates, and notifies listeners (the deployment layer
re-materialises optimized tables and invalidates caches on updates).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Optional

from repro.errors import (
    ControlPlaneError,
    TableFullError,
    UnknownEntryError,
    UnknownTableError,
)
from repro.ir.entries import TableEntry
from repro.ir.program import Program
from repro.ir.tables import TableKind, TableNode


class SimClock:
    """Simulated wall clock shared by the emulator and control plane."""

    def __init__(self, now_s: float = 0.0):
        self.now_s = now_s

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("Cannot advance the clock backwards")
        self.now_s += seconds


@dataclass(frozen=True)
class UpdateEvent:
    """One control-plane operation, delivered to listeners.

    ``epoch`` is the control plane's monotonically increasing update
    version after this operation. Listeners that mirror state to remote
    replicas (the sharded replay engine's worker processes) use it to
    order and acknowledge broadcasts: every worker must have applied
    epoch ``e`` before processing any packet batch dispatched after it.
    """

    op: str  # "insert" | "delete" | "modify" | "flush"
    table: str
    entry: Optional[TableEntry]
    time_s: float
    epoch: int = 0
    #: The id that left the table: a delete's entry, the entry a
    #: modify replaced (``entry`` is then its replacement). None for
    #: an insert or a flush.
    replaced_id: Optional[int] = None


Listener = Callable[[UpdateEvent], None]


class _TableState:
    __slots__ = ("node", "entries", "updates")

    def __init__(self, node: TableNode):
        self.node = node
        self.entries: dict[int, TableEntry] = {}
        self.updates: Deque[float] = deque(maxlen=100000)


class ControlPlane:
    """Shadow entry store for a program's plain tables."""

    def __init__(
        self,
        program: Program,
        clock: Optional[SimClock] = None,
    ):
        self.program = program
        self.clock = clock or SimClock()
        #: Update version: bumped on every mutation (insert, delete,
        #: modify, cache flush). Replicated data planes compare epochs
        #: to know whether they are current.
        self.epoch = 0
        self._tables: dict[str, _TableState] = {}
        self._listeners: list[Listener] = []
        for table in program.tables():
            if table.kind is TableKind.PLAIN:
                self._tables[table.name] = _TableState(table)

    # -- wiring -----------------------------------------------------------------

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def _notify(self, event: UpdateEvent) -> None:
        for listener in self._listeners:
            listener(event)

    def _state(self, table: str) -> _TableState:
        try:
            return self._tables[table]
        except KeyError:
            raise UnknownTableError(
                f"Control plane has no table {table!r}"
            ) from None

    # -- API (paper's entry insertion/deletion/modification) ---------------------

    def table_names(self) -> list[str]:
        return list(self._tables)

    def insert_entry(self, table: str, entry: TableEntry) -> int:
        """Install an entry; returns its id."""
        state = self._state(table)
        if len(state.entries) >= state.node.size:
            raise TableFullError(
                f"Table {table!r} full ({state.node.size} entries)"
            )
        if entry.action_name not in state.node.actions:
            raise UnknownEntryError(
                f"Table {table!r} has no action {entry.action_name!r}"
            )
        if len(entry.match_values) != len(state.node.keys):
            raise UnknownEntryError(
                f"Table {table!r} expects {len(state.node.keys)} match "
                f"values, got {len(entry.match_values)}"
            )
        if entry.entry_id in state.entries:
            raise ControlPlaneError(
                f"Table {table!r} already holds entry {entry.entry_id}"
            )
        state.entries[entry.entry_id] = entry
        state.updates.append(self.clock.now_s)
        self.epoch += 1
        self._notify(
            UpdateEvent(
                "insert", table, entry, self.clock.now_s, self.epoch
            )
        )
        return entry.entry_id

    def insert_entries(
        self, table: str, entries: Iterable[TableEntry]
    ) -> list[int]:
        return [self.insert_entry(table, e) for e in entries]

    def delete_entry(self, table: str, entry_id: int) -> TableEntry:
        state = self._state(table)
        entry = state.entries.pop(entry_id, None)
        if entry is None:
            raise UnknownEntryError(
                f"Table {table!r} has no entry {entry_id}"
            )
        state.updates.append(self.clock.now_s)
        self.epoch += 1
        self._notify(
            UpdateEvent(
                "delete",
                table,
                entry,
                self.clock.now_s,
                self.epoch,
                replaced_id=entry_id,
            )
        )
        return entry

    def modify_entry(
        self, table: str, entry_id: int, new_entry: TableEntry
    ) -> None:
        """Replace entry ``entry_id`` by ``new_entry``, which keeps
        that id or brings one the table does not hold yet."""
        state = self._state(table)
        if entry_id not in state.entries:
            raise UnknownEntryError(
                f"Table {table!r} has no entry {entry_id}"
            )
        if new_entry.entry_id != entry_id and (
            new_entry.entry_id in state.entries
        ):
            raise ControlPlaneError(
                f"Table {table!r}: the replacement for entry {entry_id} "
                f"carries id {new_entry.entry_id}, which belongs to "
                "another entry"
            )
        del state.entries[entry_id]
        state.entries[new_entry.entry_id] = new_entry
        state.updates.append(self.clock.now_s)
        self.epoch += 1
        self._notify(
            UpdateEvent(
                "modify",
                table,
                new_entry,
                self.clock.now_s,
                self.epoch,
                replaced_id=entry_id,
            )
        )

    def clear_table(self, table: str) -> None:
        state = self._state(table)
        for entry_id in list(state.entries):
            self.delete_entry(table, entry_id)

    def flush_caches(self) -> None:
        """Broadcast a data-plane cache flush to every listener.

        A flush is not an entry operation — shadow entries are
        untouched — but it is epoch-versioned like one so replicated
        data planes (sharded workers) apply it in order with entry
        updates and cold-start their flow caches together.
        """
        self.epoch += 1
        self._notify(
            UpdateEvent(
                "flush", "*", None, self.clock.now_s, self.epoch
            )
        )

    # -- reads ----------------------------------------------------------------------

    def entries(self, table: str) -> list[TableEntry]:
        return list(self._state(table).entries.values())

    def entry_count(self, table: str) -> int:
        return len(self._state(table).entries)

    def update_rate(self, table: str, window_s: float = 10.0) -> float:
        """Entry updates per second over the trailing window."""
        state = self._state(table)
        cutoff = self.clock.now_s - window_s
        recent = sum(1 for t in state.updates if t >= cutoff)
        return recent / window_s if window_s > 0 else 0.0

    def update_rates(self, window_s: float = 10.0) -> dict[str, float]:
        return {
            name: self.update_rate(name, window_s)
            for name in self._tables
        }

    def snapshot(self) -> dict[str, list[TableEntry]]:
        """Shadow entries per table (deployment materialisation input)."""
        return {
            name: list(state.entries.values())
            for name, state in self._tables.items()
        }
