"""Deployment: an optimized program bound to live state.

Bundles the original program, an optimization plan, the authoritative
control plane (which always speaks original table names — §2.3: "Pipeleon
ensures the same program management APIs by mapping the API calls to the
original program to the optimized version") and the NIC emulator running
the optimized program.

Entry propagation rules:

* direct tables — entries mirror one-to-one (also into table *copies*),
  each control-plane op as that one op on the runtime table;
* merged tables — re-materialised from the covered tables' cross product
  on every covered update (the update amplification the paper's
  ``I(T_AB)`` formula estimates is tracked in ``materialized_updates``);
* flow caches — fully invalidated whenever a covered table changes.

One deployment, one data-plane surface: ``jobs=N`` forks a
:class:`~repro.nic.sharding.ShardedEmulator` over the materialised
emulator, and the fleet is a drop-in for it (same ``runtime_tables``,
state mutators, merged telemetry and ``replay``). A fleet differs in
three places only: the fork that ends ``__init__``, a ``collect()``
barrier before :meth:`profile` reads the pooled counters, and
:meth:`close`, which stops the workers. A live plane and a redeploy
(``previous=``) take one path for every ``jobs``: the latter keeps
the previous data plane's warm caches and live feed either way.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.plan import OptimizationPlan, apply_plan
from repro.core.profiling import (
    CounterMap,
    RuntimeProfile,
    collect_profile,
)
from repro.core.transform.merge import (
    merged_cache_entries,
    naive_merged_entries,
)
from repro.errors import TransformError
from repro.ir.entries import TableEntry
from repro.ir.program import Program
from repro.ir.tables import TableKind, TableNode
from repro.nic.control_plane import ControlPlane, SimClock, UpdateEvent
from repro.nic.emulator import DEFAULT_BATCH, NicEmulator
from repro.nic.faults import FaultPlan
from repro.nic.packet import Packet
from repro.nic.sharding import ShardedEmulator, SupervisorOptions
from repro.nic.stats import RunStats
from repro.nic.targets import TargetModel
from repro.telemetry.live import LiveFeed, LivePlane


class Deployment:
    """A running (possibly optimized) program on an emulated SmartNIC.

    ``jobs > 1`` shards the data plane over that many flow-hash worker
    processes; ``batch`` (their dispatch batch, which sizes the rings),
    ``supervisor``, ``fault_plan`` (an error on one core) and
    ``ring_slots`` configure the fork; ``batch`` is also
    :meth:`replay`'s default chunk, :data:`~repro.nic.emulator.
    DEFAULT_BATCH` unless given, so a serve tick's few thousand
    packets reach each shard as one batch. An entry op on a directly
    mirrored table reaches the data plane — on a fleet, each worker —
    as that one op (:meth:`_mirror`). ``live_plane`` (caller-owned:
    adopted here, released by :meth:`close`, never stopped) watches the
    data plane at every ``jobs``.

    ``previous`` (same ``jobs``) redeploys: this deployment takes over
    its data plane — on a fleet, the workers with their fork-time
    settings — and live plane, and ``previous`` is closed without
    stopping anything. ``carried_caches`` names the flow caches that
    kept their warm state.
    """

    def __init__(
        self,
        original: Program,
        target: TargetModel,
        plan: Optional[OptimizationPlan] = None,
        control_plane: Optional[ControlPlane] = None,
        clock: Optional[SimClock] = None,
        sample_stride: int = 1,
        instrument: bool = True,
        cache_capacity: int = 4096,
        cache_insertion_limit_pps: float = 10000.0,
        default_hit_rate: float = 0.9,
        native_cache: Optional[bool] = None,
        previous: Optional["Deployment"] = None,
        telemetry=None,
        engine: str = "auto",
        jobs: int = 1,
        batch: int = DEFAULT_BATCH,
        supervisor: Optional[SupervisorOptions] = None,
        fault_plan: Optional[FaultPlan] = None,
        ring_slots: Optional[int] = None,
        live_plane: Optional[LivePlane] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if fault_plan is not None and jobs == 1:
            raise ValueError(
                "a fault plan needs jobs > 1: faults target shard workers"
            )
        if previous is not None and previous.jobs != jobs:
            raise ValueError(
                f"previous= hands over its data plane: jobs={jobs} "
                f"cannot take over jobs={previous.jobs}"
            )
        self.jobs = jobs
        self.batch = batch
        self.original = original
        self.target = target
        self.plan = plan
        #: Execution tier :meth:`replay` defaults to — and, on a
        #: fleet, the only one its workers run ("auto" or "interp");
        #: both are bit-identical on stats, counters and cache state.
        self.engine = engine
        self.telemetry = telemetry
        if telemetry is None and previous is not None:
            self.telemetry = telemetry = previous.telemetry
        if control_plane is not None:
            self.clock = control_plane.clock
            self.control_plane = control_plane
        else:
            self.clock = clock or SimClock()
            self.control_plane = ControlPlane(original, self.clock)

        if plan is not None and not plan.is_noop:
            result = apply_plan(
                original,
                plan,
                cache_capacity=cache_capacity,
                cache_insertion_limit_pps=cache_insertion_limit_pps,
                default_hit_rate=default_hit_rate,
            )
            self.program = result.program
            self.counter_map = result.counter_map
        else:
            self.program = original.clone()
            self.counter_map = CounterMap()

        self.emulator = NicEmulator(
            self.program,
            target,
            clock=self.clock,
            sample_stride=sample_stride,
            instrument=instrument,
            native_cache=native_cache,
        )
        if telemetry is not None:
            telemetry.bind_clock(self.clock)
            telemetry.observe_control_plane(self.control_plane)
            self.emulator.tracer = telemetry.tracer
        #: Entry operations actually applied to the data plane, per
        #: original-table update (measures merge update amplification).
        self.materialized_updates: dict[str, int] = {}
        #: Per mirrored runtime table (direct or ``copy_of``): the
        #: runtime id of each control-plane entry's clone.
        self._mirrored: dict[str, dict[int, int]] = {}
        self._merged_nodes = self._find_merged_nodes()
        self._copies = self._find_copies()
        self.materialize_all()
        self.live_plane = live_plane
        self.carried_caches: list[str] = []
        live = live_plane.options if live_plane is not None else None
        if previous is not None:
            self._take_over(previous)
        elif jobs > 1:
            # Fork AFTER materialize_all: workers inherit installed
            # entries. The plane's cadence drives their sidecar
            # snapshots; the plane itself owns aggregator and server.
            self.emulator = ShardedEmulator(
                self.emulator,
                jobs,
                batch=batch,
                options=supervisor,
                telemetry=telemetry,
                fault_plan=fault_plan,
                ring_slots=ring_slots,
                engine=engine,
                live=live,
            )
            try:
                if live_plane is not None:
                    live_plane.adopt(self.emulator)
            except BaseException:
                # A failed construction never leaks worker processes.
                self._teardown()
                raise
        elif live_plane is not None:
            # One core: the feed hands snapshots to the aggregator.
            feed = self.emulator.live_feed = LiveFeed(
                live_plane.aggregator.ingest, live
            )
            feed.snapshot(self.emulator)
            live_plane.adopt(feed)
        self.control_plane.add_listener(self._on_update)
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Detach from the control plane and, on a fleet, stop the
        workers. Idempotent; a no-op once a successor took over."""
        if self._closed:
            return
        self._closed = True
        try:
            self.control_plane.remove_listener(self._on_update)
        finally:
            self._teardown()

    def _teardown(self) -> None:
        """Release the live plane, then stop any workers; the second
        step runs even if the first raises (no leaked processes)."""
        try:
            # Live plane first: its final drain reads the workers' last
            # snapshots, so they must still exist. The plane is
            # *released* (it keeps those snapshots for its final row),
            # never stopped: it belongs to the caller, not this
            # deployment.
            if self.live_plane is not None:
                self.live_plane.release()
        finally:
            if self.jobs > 1:
                self.emulator.close()

    def _take_over(self, previous: "Deployment") -> None:
        """Incremental redeployment (§6): one core adopts the previous
        emulator's same-shape flow caches (and feed); a fleet swaps the
        new template into its running workers, which apply that rule to
        their own. ``previous`` is closed without stopping anything."""
        if self.jobs > 1:
            fleet = previous.emulator
            self.carried_caches = fleet.swap(self.emulator)
            self.emulator = fleet
        else:
            self.carried_caches = self.emulator.adopt_caches(
                previous.emulator
            )
        self.live_plane = previous.live_plane
        if not previous._closed:
            previous._closed = True
            previous.control_plane.remove_listener(previous._on_update)

    # -- structure discovery -----------------------------------------------------

    def _find_merged_nodes(self) -> list[TableNode]:
        merged = []
        for table in self.program.tables():
            if table.kind is TableKind.MERGED:
                merged.append(table)
            elif table.annotations.get("naive_merge_of"):
                covers = [
                    str(c) for c in table.annotations["naive_merge_of"]
                ]
                # Only manageable when the covered tables still exist in
                # the original program (they're gone from the optimized
                # one); otherwise the caller owns the merged entries.
                if all(c in self.original.nodes for c in covers):
                    merged.append(table)
        return merged

    def _find_copies(self) -> dict[str, list[str]]:
        copies: dict[str, list[str]] = {}
        for table in self.program.tables():
            source = table.annotations.get("copy_of")
            if source:
                copies.setdefault(str(source), []).append(table.name)
        return copies

    @staticmethod
    def _merge_covers(node: TableNode) -> tuple[str, ...]:
        """Original tables a merged/naive-merged node derives from."""
        if node.cache_info is not None:
            return tuple(node.cache_info.covers)
        return tuple(
            str(c) for c in node.annotations.get("naive_merge_of", ())
        )

    # -- entry materialisation ------------------------------------------------------

    def materialize_all(self) -> None:
        snapshot = self.control_plane.snapshot()
        managed_merges = {node.name for node in self._merged_nodes}
        for name, runtime in self.emulator.runtime_tables.items():
            node = self.program.table(name)
            if name in managed_merges:
                if node.kind is TableKind.MERGED:
                    self._materialize_merged(node, snapshot)
                else:
                    self._materialize_naive(node, snapshot)
            elif node.annotations.get("naive_merge_of"):
                continue  # caller-managed naive merge (originals gone)
            elif node.annotations.get("copy_of"):
                source = str(node.annotations["copy_of"])
                self._install_mirror(name, snapshot.get(source, []))
            elif node.kind is TableKind.PLAIN and name in snapshot:
                self._install_mirror(name, snapshot[name])

    def _install_mirror(
        self, name: str, entries: list[TableEntry]
    ) -> None:
        """Install clones of ``entries`` (control-plane order) as the
        runtime table ``name`` and remember whose clone is whose."""
        clones = {entry.entry_id: entry.clone() for entry in entries}
        self.emulator.set_table_entries(name, clones.values())
        self._mirrored[name] = {
            entry_id: clone.entry_id for entry_id, clone in clones.items()
        }

    def _materialize_merged(
        self, node: TableNode, snapshot: dict[str, list[TableEntry]]
    ) -> None:
        info = node.cache_info
        if info is None:
            raise TransformError(
                f"Merged table {node.name!r} lacks cache_info"
            )
        covered_tables = [
            self.original.table(name) for name in info.covers
        ]
        covered_entries = [
            snapshot.get(name, []) for name in info.covers
        ]
        entries = merged_cache_entries(
            node, covered_tables, covered_entries
        )
        self.emulator.set_table_entries(node.name, entries)
        self.materialized_updates[node.name] = (
            self.materialized_updates.get(node.name, 0) + len(entries)
        )

    def _materialize_naive(
        self, node: TableNode, snapshot: dict[str, list[TableEntry]]
    ) -> None:
        covers = [str(c) for c in node.annotations["naive_merge_of"]]
        covered_tables = [self.original.table(name) for name in covers]
        covered_entries = [snapshot.get(name, []) for name in covers]
        entries = naive_merged_entries(
            node, covered_tables, covered_entries
        )
        self.emulator.set_table_entries(node.name, entries)
        self.materialized_updates[node.name] = (
            self.materialized_updates.get(node.name, 0) + len(entries)
        )

    # -- runtime update propagation ----------------------------------------------------

    def _on_update(self, event: UpdateEvent) -> None:
        if event.op == "flush":
            self.emulator.flush_caches()
            return
        table = event.table
        snapshot = None
        # Direct mirror (the original table may have been subsumed by a
        # naive merge, in which case it has no runtime twin).
        runtime = self.emulator.runtime_tables.get(table)
        if runtime is not None:
            self._mirror(table, event)
        for copy in self._copies.get(table, []):
            self._mirror(copy, event)
        # Merged tables covering it: re-materialise (amplification).
        for node in self._merged_nodes:
            if table in self._merge_covers(node):
                if snapshot is None:
                    snapshot = self.control_plane.snapshot()
                if node.kind is TableKind.MERGED:
                    self._materialize_merged(node, snapshot)
                else:
                    self._materialize_naive(node, snapshot)
        # Flow caches covering it: invalidate wholesale.
        self.emulator.invalidate_caches_covering(table)

    def _mirror(self, runtime_table: str, event: UpdateEvent) -> None:
        """Apply one original-table op to a runtime table as that op.

        The entry that left (``event.replaced_id``) goes by the id of
        its clone; an inserted or modified entry comes in as a fresh
        clone. A fresh id is above every id the table holds, and the
        control plane appends an insert or a modify too, so the runtime
        ids keep control-plane order — the order a clear-and-clone
        rebuild gives, on which ``(priority, -entry_id)`` ties break.
        On a fleet, every worker gets the op with the template's ids.
        """
        ids = self._mirrored[runtime_table]
        removed = None
        if event.replaced_id is not None:
            removed = ids.pop(event.replaced_id)
        added = None if event.op == "delete" else event.entry.clone()
        self.emulator.edit_table_entries(runtime_table, removed, added)
        if added is not None:
            ids[event.entry.entry_id] = added.entry_id
        self.materialized_updates[runtime_table] = (
            self.materialized_updates.get(runtime_table, 0) + 1
        )

    # -- control-plane passthrough API ----------------------------------------------------

    def insert_entry(self, table: str, entry: TableEntry) -> int:
        return self.control_plane.insert_entry(table, entry)

    def insert_entries(
        self, table: str, entries: Iterable[TableEntry]
    ) -> list[int]:
        return self.control_plane.insert_entries(table, entries)

    def delete_entry(self, table: str, entry_id: int) -> TableEntry:
        return self.control_plane.delete_entry(table, entry_id)

    def modify_entry(
        self, table: str, entry_id: int, new_entry: TableEntry
    ) -> None:
        self.control_plane.modify_entry(table, entry_id, new_entry)

    # -- telemetry -------------------------------------------------------------------------

    @property
    def tracer(self):
        """The packet tracer watching this deployment (None if off; on
        a fleet, the workers' tracers merged at the last collection)."""
        return self.emulator.tracer

    def cache_hit_rates(self) -> dict[str, float]:
        """Per-cache hit rates: the caches' own stats where they saw
        lookups, else the ``("cache", name, "hit"|"miss")`` counters —
        on a fleet, both as of the last replay or :meth:`profile`
        (which refresh the merged view)."""
        rates: dict[str, float] = {}
        for name, stats in self.emulator.cache_stats.items():
            if stats.lookups:
                rates[name] = stats.hit_rate
        legs_by_cache: dict[str, dict[str, float]] = {}
        for key, count in self.emulator.counters.snapshot().items():
            if key[0] == "cache":
                legs_by_cache.setdefault(key[1], {})[key[2]] = count
        for name, legs in legs_by_cache.items():
            total = legs.get("hit", 0.0) + legs.get("miss", 0.0)
            if total:
                rates.setdefault(name, legs.get("hit", 0.0) / total)
        return rates

    def profile(
        self,
        update_window_s: float = 10.0,
        offered_pps: float = 1e6,
    ) -> RuntimeProfile:
        """Collect a runtime profile in original-program coordinates.

        A fleet's profile is computed from its workers' *pooled*
        counters, so it equals one core's field for field.
        """
        if self.jobs > 1:
            self.emulator.collect()
        return collect_profile(
            self.original,
            self.emulator.counters.snapshot(),
            counter_map=self.counter_map,
            control_plane=self.control_plane,
            cache_hit_rates=self.cache_hit_rates(),
            update_window_s=update_window_s,
            offered_pps=offered_pps,
        )

    def reset_telemetry(self) -> None:
        self.emulator.reset_telemetry()

    # -- traffic ----------------------------------------------------------------------------

    def run(
        self,
        packets: Iterable[Packet],
        offered_pps: Optional[float] = None,
    ) -> RunStats:
        return self.emulator.run(packets, offered_pps=offered_pps)

    def replay(
        self,
        packets: Iterable[Packet],
        offered_pps: Optional[float] = None,
        batch: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> RunStats:
        """Batch replay through the selected execution tier.

        ``engine`` overrides the deployment default (``"auto"`` runs
        the columnar batch kernels, demoting to the interpreter); a
        fleet's workers run the tier they were forked with and reject
        any other. ``batch`` defaults to the constructor's.
        """
        return self.emulator.replay(
            packets,
            offered_pps=offered_pps,
            batch=batch if batch is not None else self.batch,
            engine=engine if engine is not None else self.engine,
        )

    def throughput_gbps(self, stats: RunStats) -> float:
        return stats.throughput_gbps(self.target)
