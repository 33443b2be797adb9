"""The SmartNIC emulator: a dual-pipeline run-to-completion interpreter.

This is the reproduction's stand-in for the paper's three hardware setups.
It walks a packet through the program DAG, charging each node the cost the
target's core model assigns to it (match = ``m * Lmat``, action =
``n * Lact``, branches, counter updates), executes Pipeleon's special node
kinds (flow caches, merged tables, navigation/migration tables), migrates
packets between the ASIC and CPU pipelines, and aggregates the per-pool
busy time that the throughput model converts to Gbps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

from repro.errors import EmulationError
from repro.ir.conditionals import ConditionalNode
from repro.ir.entries import TableEntry
from repro.ir.program import Program
from repro.ir.tables import Pipeline, TableKind, TableNode
from repro.nic.columnar import ColumnBatch, batched
from repro.nic.control_plane import SimClock
from repro.nic.counters import (
    CounterBank,
    action_counter,
    branch_counter,
    cache_counter,
)
from repro.nic.flow_cache import CacheStats, Effect, FlowCache, cache_key
from repro.nic.packet import NEXT_TAB_ID, Packet
from repro.nic.pipeline import BoundPrimitive, apply_primitive, bind_action
from repro.nic.stats import PacketResult, RunStats
from repro.nic.table_runtime import RuntimeTable
from repro.nic.targets import TargetModel
from repro.telemetry.tracing import NATIVE_CACHE_STEP, PARSER_STEP

#: Execution tiers of :meth:`NicEmulator.replay_batch`, bit-identical
#: on stats, counters and caches: ``auto`` runs the columnar batch
#: kernels (demoting what they cannot express to the interpreter),
#: ``interp`` the reference interpreter for every packet.
ENGINES = ("auto", "interp")

#: Packets per replay batch unless a caller says otherwise — one core's
#: chunk, a fleet's dispatch batch (which sizes its ring slots), a
#: deployment's and ``repro replay --batch``'s. A serve tick of a few
#: thousand packets is then one batch per shard.
DEFAULT_BATCH = 4096

#: Span-kind names for the tracer, by table kind.
_TRACE_KINDS = {
    TableKind.PLAIN: "table",
    TableKind.MERGED: "merged",
    TableKind.NAVIGATION: "nav",
    TableKind.MIGRATION: "migration",
    TableKind.CACHE: "cache",
}


@dataclass
class _CacheRecording:
    """Miss-path effect recording for one flow cache.

    Effects of covered tables accumulate until execution reaches the
    cache's ``hit_next`` node (or the packet terminates), at which point
    the recording is committed. Committing on reaching ``hit_next``
    rather than on "all covered tables executed" lets caches span branch
    diamonds (pipelet groups, §4.1.1) where only one side executes.
    """

    cache_name: str
    key: Hashable  # a :func:`cache_key`
    covers: set[str]  # {"*"} means record everything (native cache)
    hit_next: Optional[str] = None
    effects: list[BoundPrimitive] = field(default_factory=list)
    finished: bool = False


class NicEmulator:
    """Executes a deployed program on a modelled SmartNIC target."""

    def __init__(
        self,
        program: Program,
        target: TargetModel,
        clock: Optional[SimClock] = None,
        sample_stride: int = 1,
        instrument: bool = True,
        native_cache: Optional[bool] = None,
        max_steps: int = 100000,
    ):
        self.program = program
        self.target = target
        self.clock = clock or SimClock()
        self.instrument = instrument
        self.counters = CounterBank(sample_stride=sample_stride)
        self.explicit_counters: dict[str, int] = {}
        self.max_steps = max_steps

        # Nodes assigned to a pool the target doesn't have execute on
        # the pool it does have (e.g. ASIC-annotated tables on the
        # CPU-only Agilio CX).
        self._pipeline_map: dict[str, Pipeline] = {}
        for name, node in program.nodes.items():
            pipeline = node.pipeline
            if not target.has(pipeline):
                pipeline = target.default_pipeline
            self._pipeline_map[name] = pipeline

        # Numeric node ids for navigation tables (metadata is int-typed).
        self.node_ids: dict[str, int] = {
            name: i + 1
            for i, name in enumerate(sorted(program.nodes))
        }
        self._id_nodes = {v: k for k, v in self.node_ids.items()}

        self.runtime_tables: dict[str, RuntimeTable] = {}
        self.flow_caches: dict[str, FlowCache] = {}
        for table in program.tables():
            if table.kind is TableKind.CACHE and table.cache_info:
                if table.cache_info.mode == "flow":
                    self.flow_caches[table.name] = FlowCache(
                        capacity=table.cache_info.capacity,
                        insertion_limit_pps=(
                            table.cache_info.insertion_limit_pps
                        ),
                    )
                    continue
            if table.kind in (
                TableKind.PLAIN,
                TableKind.MERGED,
                TableKind.MIGRATION,
            ) or (
                table.kind is TableKind.CACHE
                and table.cache_info
                and table.cache_info.mode == "merge"
            ):
                self.runtime_tables[table.name] = RuntimeTable(table)

        if native_cache is None:
            native_cache = target.native_flow_cache and program.metadata.get(
                "native_cache_compatible", True
            )
        self.native_cache: Optional[FlowCache] = (
            FlowCache(capacity=target.native_cache_capacity)
            if native_cache
            else None
        )

        # Reverse index for cache invalidation: original-table name ->
        # flow caches whose covered run includes it. Built once here so
        # control-plane updates don't rescan the program per event.
        self._cache_cover_index: dict[str, list[str]] = {}
        for name in self.flow_caches:
            info = program.table(name).cache_info
            if info is None:
                continue
            for covered in info.covers:
                self._cache_cover_index.setdefault(covered, []).append(
                    name
                )
        # Tables whose updates can change what the whole-program native
        # cache would replay: everything on the datapath, plus the
        # sources that merged/copied tables were derived from.
        self._native_relevant: set[str] = set(program.nodes)
        for node in program.nodes.values():
            annotations = node.annotations
            info = getattr(node, "cache_info", None)
            if info is not None:
                self._native_relevant.update(info.covers)
            self._native_relevant.update(
                str(c) for c in annotations.get("naive_merge_of", ())
            )
            source = annotations.get("copy_of")
            if source:
                self._native_relevant.add(str(source))

        self._columnar = None
        #: Cumulative columnar-tier demotion counts by reason, and the
        #: number of packets the batch kernels retired themselves. Owned
        #: here (not by the engine) so recompiles don't reset them and
        #: shard workers can ship them home for merging.
        self.columnar_demotions: dict[str, int] = {}
        self.columnar_packets = 0
        #: Flow-key partitions the batch kernels resolved (one table
        #: lookup each) — the partition-count bottleneck metric.
        self.columnar_partitions = 0
        #: Where the kernels' fast paths did not apply: unique key rows
        #: a table resolved one ``lookup`` at a time, and per cache the
        #: packets that arrived at its step against those that entered
        #: the step's ordered (per-packet) replay.
        self.columnar_scalar_lookups: dict[str, int] = {}
        self.columnar_cache_arrivals: dict[str, int] = {}
        self.columnar_cache_replayed: dict[str, int] = {}
        #: Per match node, packets whose plan the node's flow memo
        #: served (hits), had to resolve (misses), or found keyed by a
        #: row the packet no longer carries (guard failures).
        self.columnar_memo_hits: dict[str, int] = {}
        self.columnar_memo_misses: dict[str, int] = {}
        self.columnar_memo_guard_failures: dict[str, int] = {}
        #: Per match node, its plan memos by flow set
        #: (:class:`repro.nic.columnar._PlanMemo`): kept here so a
        #: recompile after an entry edit keeps what each flow's key is.
        self._plan_memos: dict = {}
        #: Optional sampled-span recorder (attach a PacketTracer to
        #: trace; the disabled path costs one branch per packet here
        #: and one per batch in the columnar tier).
        self.tracer = None
        #: Optional :class:`~repro.telemetry.live.LiveFeed`.
        self.live_feed = None

    # -- state management -------------------------------------------------------

    def set_table_entries(
        self, table: str, entries: Iterable[TableEntry]
    ) -> None:
        runtime = self._runtime(table)
        runtime.clear()
        for entry in entries:
            runtime.insert(entry)

    def edit_table_entries(
        self,
        table: str,
        removed: Optional[int] = None,
        added: Optional[TableEntry] = None,
    ) -> None:
        """One entry op on a runtime table: delete the entry with id
        ``removed``, then install ``added`` — an insert, a delete or a
        modify, each costing one entry rather than a table rebuild."""
        runtime = self._runtime(table)
        if removed is not None:
            runtime.delete(removed)
        if added is not None:
            runtime.insert(added)

    def _runtime(self, table: str) -> RuntimeTable:
        runtime = self.runtime_tables.get(table)
        if runtime is None:
            raise EmulationError(
                f"Emulator has no runtime table {table!r}"
            )
        return runtime

    def invalidate_caches_covering(self, table: str) -> list[str]:
        """Invalidate flow caches whose covered run includes ``table``.

        The paper: "an update in any of the original tables will
        invalidate the entire cache". Covered caches come from the
        precomputed reverse index; the native whole-program cache is
        flushed only when the updated table actually feeds this
        program's datapath (previously any update — even to a table
        this program never reads — cold-started it).
        """
        invalidated = []
        for name in self._cache_cover_index.get(table, ()):
            self.flow_caches[name].invalidate_all()
            invalidated.append(name)
        if (
            self.native_cache is not None
            and table in self._native_relevant
        ):
            self.native_cache.invalidate_all()
        return invalidated

    def flush_caches(self) -> None:
        """Cold-start every flow cache (and the native cache).

        The data-plane half of :meth:`repro.nic.control_plane.
        ControlPlane.flush_caches`; sharded workers apply it when the
        flush broadcast reaches them.
        """
        for cache in self.flow_caches.values():
            cache.invalidate_all()
        if self.native_cache is not None:
            self.native_cache.invalidate_all()

    def adopt_caches(self, previous: "NicEmulator") -> list[str]:
        """Incremental redeployment (§6): keep warm cache state.

        A flow cache whose covered tables, key fields and capacity are
        unchanged in ``previous`` adopts the previous cache object
        (contents, LRU order, stats), and the live feed moves over;
        returns the adopted names. One core applies it to its
        predecessor, a shard worker to its own emulator at a plan swap.
        The paper lists incremental compile-and-deploy as future work;
        this is its runtime half.
        """
        self.live_feed = previous.live_feed
        carried = []
        for name, cache in self.flow_caches.items():
            old_cache = previous.flow_caches.get(name)
            if old_cache is None:
                continue
            old_node = previous.program.table(name)
            new_node = self.program.table(name)
            if (
                old_node.cache_info.covers == new_node.cache_info.covers
                and old_node.match_fields == new_node.match_fields
                and old_cache.capacity == cache.capacity
            ):
                self.flow_caches[name] = old_cache
                carried.append(name)
        return carried

    @property
    def cache_stats(self) -> dict[str, CacheStats]:
        """Per-flow-cache stats by cache-node name."""
        return {
            name: cache.stats for name, cache in self.flow_caches.items()
        }

    @property
    def native_cache_stats(self) -> Optional[CacheStats]:
        cache = self.native_cache
        return cache.stats if cache is not None else None

    def reset_telemetry(self) -> None:
        """Zero what a profile reads (counters, cache hit/miss rates,
        tracer); cache contents and explicit counters stay."""
        self.counters.reset()
        for cache in (*self.flow_caches.values(), self.native_cache):
            if cache is not None:
                cache.stats.reset_rates()
        if self.tracer is not None:
            self.tracer.reset()

    def table_memory_bytes(self) -> dict[str, int]:
        return {
            name: runtime.memory_bytes
            for name, runtime in self.runtime_tables.items()
        }

    # -- data path ----------------------------------------------------------------

    def process(self, packet: Packet) -> PacketResult:
        """Run one packet to completion; returns its cost breakdown.

        With a tracer attached, its 1-in-N sampler decides whether this
        packet gets a :class:`~repro.telemetry.tracing.PacketTrace`.
        """
        busy: dict[Pipeline, float] = {}
        path: list[str] = []
        migrations = 0
        recordings: list[_CacheRecording] = []
        sampled = self.counters.begin_packet() if self.instrument else False
        tracer = self.tracer
        trace = (
            tracer.try_begin(self.clock.now_s)
            if tracer is not None
            else None
        )
        if trace is not None:
            trace.enter(PARSER_STEP, "parser", 0.0)

        def charge(pipeline: Pipeline, ns: float) -> None:
            busy[pipeline] = busy.get(pipeline, 0.0) + ns

        current = self.program.root
        if current is None:
            if trace is not None and tracer is not None:
                tracer.finish(trace, 0.0, False, None)
            return PacketResult(0.0, False, None, 0, busy, ())
        entry_pipeline = self._pipeline_map[current]

        # Vendor-native whole-program flow cache (Agilio CX).
        if self.native_cache is not None:
            core = self.target.core(entry_pipeline)
            if trace is not None:
                trace.enter(
                    NATIVE_CACHE_STEP, "cache", sum(busy.values())
                )
            charge(entry_pipeline, core.lookup_ns)
            key = cache_key(packet.flow_key())
            effect = self.native_cache.lookup(key)
            if effect is not None:
                if trace is not None:
                    trace.note("hit")
                for op, args in effect:
                    charge(entry_pipeline, core.action_ns)
                    apply_primitive(
                        packet, op, args, self.explicit_counters
                    )
                return self._finish(packet, busy, path, migrations, trace)
            if trace is not None:
                trace.note("miss")
            recordings.append(
                _CacheRecording(
                    "__native__", key, {"*"}, hit_next=None
                )
            )

        previous_pipeline: Optional[Pipeline] = None
        steps = 0
        while current is not None:
            steps += 1
            if steps > self.max_steps:
                raise EmulationError(
                    f"Packet exceeded {self.max_steps} steps; "
                    f"program {self.program.name!r} likely has a cycle"
                )
            for recording in recordings:
                if (
                    not recording.finished
                    and recording.hit_next == current
                ):
                    if self._commit_recording(recording):
                        self._charge_insert(recording, charge)
            node = self.program.node(current)
            pipeline = self._pipeline_map[current]
            core = self.target.core(pipeline)
            if trace is not None:
                trace.enter(
                    current,
                    "branch"
                    if isinstance(node, ConditionalNode)
                    else _TRACE_KINDS.get(node.kind, "table"),
                    sum(busy.values()),
                )
            if (
                previous_pipeline is not None
                and pipeline is not previous_pipeline
            ):
                charge(pipeline, self.target.migration_ns)
                migrations += 1
            previous_pipeline = pipeline
            path.append(current)

            if isinstance(node, ConditionalNode):
                charge(pipeline, core.branch_ns)
                taken = node.condition.evaluate(packet.get)
                if trace is not None:
                    trace.note("true" if taken else "false")
                if sampled:
                    self.counters.bump(
                        branch_counter(node.name, taken),
                        packet.size_bytes,
                    )
                    charge(pipeline, core.counter_update_ns)
                current = node.true_next if taken else node.false_next
                continue

            current = self._execute_table(
                node, packet, pipeline, core, charge, sampled, recordings,
                trace,
            )
            if packet.dropped:
                break

        self._finalize_recordings(packet, recordings, charge)
        return self._finish(packet, busy, path, migrations, trace)

    def _execute_table(self, node, packet, pipeline, core, charge,
                       sampled, recordings, trace=None):
        """Dispatch on table kind; returns the next node name."""
        kind = node.kind

        if kind is TableKind.NAVIGATION:
            charge(pipeline, core.lookup_ns)
            node_id = packet.metadata.get(NEXT_TAB_ID)
            if node_id is None:
                # First entry into the component: fall through.
                return node.next_map[node.default_action]
            target_name = self._id_nodes.get(node_id)
            if target_name is None:
                raise EmulationError(
                    f"Navigation table {node.name!r}: unknown "
                    f"next_tab_id {node_id}"
                )
            packet.metadata.pop(NEXT_TAB_ID, None)
            return target_name

        if kind is TableKind.MIGRATION:
            charge(pipeline, core.action_ns)
            resume = node.annotations.get("resume")
            if resume is not None:
                packet.set(NEXT_TAB_ID, self.node_ids[resume])
            return node.next_map[node.default_action]

        if (
            kind is TableKind.CACHE
            and node.cache_info
            and node.cache_info.mode == "flow"
        ):
            return self._execute_flow_cache(
                node, packet, pipeline, core, charge, sampled, recordings,
                trace,
            )

        if kind is TableKind.MERGED or (
            kind is TableKind.CACHE
            and node.cache_info
            and node.cache_info.mode == "merge"
        ):
            return self._execute_merged(
                node, packet, pipeline, core, charge, sampled, recordings,
                trace,
            )

        # Plain table.
        runtime = self.runtime_tables[node.name]
        charge(
            pipeline,
            core.match_cost_ns(
                node.worst_match_type,
                runtime.memory_accesses,
                node.memory_tier,
            ),
        )
        result = runtime.lookup(packet)
        if trace is not None:
            trace.note(result.action.name)
        if sampled:
            self.counters.bump(
                action_counter(node.name, result.action.name),
                packet.size_bytes,
            )
            charge(pipeline, core.counter_update_ns)
        bound = bind_action(result.action, result.action_data)
        for op, args in bound:
            charge(pipeline, core.action_ns)
            apply_primitive(packet, op, args, self.explicit_counters)
        self._record(node.name, bound, packet, recordings)
        if packet.dropped:
            return None
        return node.next_map[result.action.name]

    def _execute_flow_cache(self, node, packet, pipeline, core, charge,
                            sampled, recordings, trace=None):
        info = node.cache_info
        cache = self.flow_caches[node.name]
        charge(pipeline, core.lookup_ns)
        key = cache_key(packet.key(node.match_fields))
        effect = cache.lookup(key)
        if trace is not None:
            trace.note("hit" if effect is not None else "miss")
        if sampled:
            self.counters.bump(
                cache_counter(node.name, effect is not None),
                packet.size_bytes,
            )
            charge(pipeline, core.counter_update_ns)
        if effect is not None:
            for op, args in effect:
                charge(pipeline, core.action_ns)
                apply_primitive(packet, op, args, self.explicit_counters)
            # Replayed effects also belong in any outer recording.
            self._record(node.name, list(effect), packet, recordings,
                         covered_names=set(info.covers))
            if packet.dropped:
                return None
            return info.hit_next
        recordings.append(
            _CacheRecording(
                node.name,
                key,
                set(info.covers),
                hit_next=info.hit_next,
            )
        )
        return info.miss_next

    def _execute_merged(self, node, packet, pipeline, core, charge,
                        sampled, recordings, trace=None):
        info = node.cache_info
        runtime = self.runtime_tables[node.name]
        charge(
            pipeline,
            core.match_cost_ns(
                node.worst_match_type,
                runtime.memory_accesses,
                node.memory_tier,
            ),
        )
        result = runtime.lookup(packet)
        if trace is not None:
            trace.note("hit" if result.hit else "miss")
        if sampled:
            self.counters.bump(
                cache_counter(node.name, result.hit), packet.size_bytes
            )
            charge(pipeline, core.counter_update_ns)
        if not result.hit:
            # Fall back to the original tables (merge-as-cache, §3.2.3).
            return info.miss_next if info else None
        bound = bind_action(result.action, result.action_data)
        for op, args in bound:
            charge(pipeline, core.action_ns)
            apply_primitive(packet, op, args, self.explicit_counters)
        covered = set(info.covers) if info else set()
        self._record(node.name, bound, packet, recordings,
                     covered_names=covered)
        if packet.dropped:
            return None
        return info.hit_next if info else None

    # -- cache recording ------------------------------------------------------------

    def _record(self, table_name, bound, packet, recordings,
                covered_names=None):
        """Feed executed primitives into any active miss recordings."""
        names = covered_names or {table_name}
        for recording in recordings:
            if recording.finished:
                continue
            if "*" in recording.covers or recording.covers & names:
                recording.effects.extend(bound)

    def _finalize_recordings(self, packet, recordings, charge):
        """Commit whatever is still open once the packet terminates."""
        for recording in recordings:
            if not recording.finished:
                if self._commit_recording(recording):
                    self._charge_insert(recording, charge)

    def _charge_insert(self, recording: _CacheRecording, charge) -> None:
        """Bill a cache insertion to the owning pipeline (§3.2.2:
        cache inserts consume entry-insertion bandwidth)."""
        pipeline = self._pipeline_map.get(
            recording.cache_name,
            self._pipeline_map[self.program.root]
            if self.program.root
            else self.target.default_pipeline,
        )
        charge(pipeline, self.target.core(pipeline).table_insert_ns)

    def _commit_recording(self, recording: _CacheRecording) -> bool:
        """Install the recorded effect; True if an insert happened."""
        recording.finished = True
        effect: Effect = tuple(recording.effects)
        if recording.cache_name == "__native__":
            if self.native_cache is not None:
                return self.native_cache.insert(
                    recording.key, effect, self.clock.now_s
                )
            return False
        cache = self.flow_caches.get(recording.cache_name)
        if cache is not None:
            return cache.insert(recording.key, effect, self.clock.now_s)
        return False

    def _finish(
        self, packet, busy, path, migrations, trace=None
    ) -> PacketResult:
        result = PacketResult(
            latency_ns=sum(busy.values()),
            dropped=packet.dropped,
            egress_port=packet.egress_port,
            migrations=migrations,
            busy_ns=busy,
            path=tuple(path),
        )
        if trace is not None and self.tracer is not None:
            self.tracer.finish(
                trace,
                result.latency_ns,
                result.dropped,
                result.egress_port,
            )
        return result

    # -- batch runs --------------------------------------------------------------------

    def run(
        self,
        packets: Iterable[Packet],
        offered_pps: Optional[float] = None,
    ) -> RunStats:
        """Process packets; optionally advance the sim clock per packet."""
        stats = RunStats()
        dt = 1.0 / offered_pps if offered_pps else 0.0
        for packet in packets:
            if dt:
                self.clock.advance(dt)
            result = self.process(packet)
            stats.record(result, packet.size_bytes)
        return stats

    # -- columnar tier ----------------------------------------------------------------

    @property
    def fastpath(self):
        """Vestige of the deleted closure tier; always ``None``.

        ``benchmarks/e2e/workloads.py:298`` reads (and ignores) this
        attribute during set-up, and code PRs may not edit that
        directory. ROADMAP item 3's ``benchmark`` PR deletes that line
        and this property together; nothing under ``src/``, ``tests/``
        or ``benchmarks/`` outside ``benchmarks/e2e/`` may read it.
        """
        return None

    @property
    def columnar(self):
        """The columnar batch-kernel engine for the installed state.

        Compiled lazily and recompiled whenever a runtime table's
        entries changed or a cache, counter bank or tracer object was
        swapped (:meth:`repro.nic.columnar.ColumnarEngine.stale`).
        Packets it cannot express demote (counted per reason in
        :attr:`columnar_demotions`) to :meth:`process`, so replay
        through it is bit-identical to the interpreter regardless.
        """
        from repro.nic.columnar import ColumnarEngine

        engine = self._columnar
        if engine is None or engine.stale():
            engine = self._columnar = ColumnarEngine(self)
        return engine

    def replay_batch(
        self,
        packets,
        stats: RunStats,
        dt_s: float = 0.0,
        timestamps=None,
        engine: str = "auto",
    ):
        """Replay one batch through the selected execution tier.

        ``packets`` is a ``Packet`` list or a :class:`ColumnBatch`.
        ``engine`` picks the tier (:data:`ENGINES`): ``"auto"`` runs
        the batch kernels on the columns (returning a ``BatchOutcome``
        with per-packet latency/egress/dropped columns); ``"interp"``
        returns None, and a ``ColumnBatch`` handed to it is
        materialised into ``Packet`` objects here. Both tiers are
        bit-identical on stats, counters, caches and per-packet
        results. A :attr:`live_feed` sees every batch after it ran.
        """
        if engine == "auto":
            outcome = self.columnar.replay_batch(
                packets, stats, dt_s, timestamps
            )
        elif engine == "interp":
            outcome = None
            if isinstance(packets, ColumnBatch):
                batch = packets
                if timestamps is None and batch.timestamps is not None:
                    timestamps = batch.timestamps.tolist()
                packets = [batch.make_packet(i) for i in range(batch.n)]
            clock = self.clock
            if timestamps is None:
                for packet in packets:
                    if dt_s:
                        clock.advance(dt_s)
                    result = self.process(packet)
                    stats.record(result, packet.size_bytes)
            else:
                for packet, now_s in zip(packets, timestamps):
                    clock.now_s = now_s
                    result = self.process(packet)
                    stats.record(result, packet.size_bytes)
        else:
            raise ValueError(f"Unknown engine {engine!r}")
        if self.live_feed is not None:
            self.live_feed.observe(self, stats)
        return outcome

    def replay(
        self,
        packets: Iterable[Packet],
        offered_pps: Optional[float] = None,
        batch: int = DEFAULT_BATCH,
        stats: Optional[RunStats] = None,
        engine: str = "auto",
    ) -> RunStats:
        """Batch replay through the selected execution tier.

        Equivalent to :meth:`run` (same stats, counters and cache
        state), but packets are driven through the selected engine in
        ``batch``-sized chunks. ``engine`` is ``"auto"`` (columnar
        batch kernels, demoting to the interpreter) or ``"interp"``.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if stats is None:
            stats = RunStats()
        dt = 1.0 / offered_pps if offered_pps else 0.0
        # Only ``auto`` takes a column source's own batches: ``interp``
        # reads its ``Packet`` view, which is how an interpreter twin
        # checks the columns against FlowSpec.packet.
        for chunk in batched(packets, batch, columns=engine == "auto"):
            self.replay_batch(chunk, stats, dt, engine=engine)
        if self.live_feed is not None:
            self.live_feed.end(self)
        return stats
