"""Compiled fast-path replay engine for the NIC emulator.

:meth:`NicEmulator.process` is a per-packet *interpreter*: every step
re-resolves the current node from the program dict, its pipeline from the
pipeline map, its core model from the target, re-derives the match cost
from the engine's probe count, binds the hit entry's action data and
string-dispatches every primitive. That cost is pure Python overhead —
none of it depends on the packet.

The fast path moves all of that work to *deploy time*. Compiling walks
the program DAG once and emits one specialized step closure per node:

* per-node costs (``lookup_ns``, match cost with the frozen probe count
  ``m``, ``action_ns``, counter-update and migration penalties) are baked
  in as floats;
* key extraction is a pre-split header/metadata tuple builder;
* action primitives are pre-bound (``bind_action``) and pre-compiled to
  direct dict mutators (:func:`repro.nic.pipeline.compile_primitive`),
  memoized per table entry;
* next-node pointers are resolved to direct closure references (nodes
  are compiled in reverse topological order so successors exist when
  their predecessors compile; cyclic programs fall back to late-bound
  trampolines and still hit the interpreter-identical ``max_steps``
  guard).

The per-packet loop is then plain closure chaining:
``fn = fn(ctx)`` until ``None``.

The engine is a *replica*, not a replacement: the interpreter remains
the reference semantics, and the fast path must be bit-identical on
counter banks, execution paths, per-pool busy time, flow-cache contents
and statistics (differential tests in ``tests/test_nic_fastpath.py``
and ``tests/test_fastpath_property.py`` enforce this). It is also the
middle tier of the emulator's execution stack: the columnar engine
(:mod:`repro.nic.columnar`) runs whole batches per DAG node and demotes
the packets its kernels can't express to :meth:`FastPathEngine.
replay_one`, so this module's per-packet semantics anchor both faster
tiers. Compiled state
freezes table entries and probe counts, so the engine records the
version of every runtime table at compile time; :attr:`NicEmulator.
fastpath` recompiles automatically when any version moved (entry
insert/delete/modify/clear) or a cache object was swapped out (e.g.
warm-cache carry-over across redeployments).

Not thread-safe: each engine owns a single mutable replay context.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import EmulationError, IrError
from repro.ir.conditionals import _OPS, ConditionalNode
from repro.ir.tables import Pipeline, TableKind, TableNode
from repro.nic.counters import (
    action_counter,
    branch_counter,
    cache_counter,
)
from repro.nic.emulator import NicEmulator, _CacheRecording
from repro.nic.packet import FIVE_TUPLE, NEXT_TAB_ID, Packet
from repro.nic.pipeline import apply_primitive, bind_action, compile_effect
from repro.nic.stats import PacketResult, RunStats

#: A compiled step: runs one node against the context and returns the
#: next step closure (or ``None`` at the end of the pipeline / a drop).
StepFn = Callable[["ReplayContext"], Optional[Callable]]

_ASIC = Pipeline.ASIC
_CPU = Pipeline.CPU


class ReplayContext:
    """Mutable per-packet state threaded through the step closures.

    ``busy``/``used`` are two-slot lists indexed by pool (0 = ASIC,
    1 = CPU); accumulation order within a pool matches the interpreter's
    charge order exactly, so per-pool busy times agree bit for bit.
    """

    __slots__ = (
        "packet",
        "busy",
        "used",
        "path",
        "migrations",
        "recordings",
        "sampled",
        "prev",
    )

    def __init__(self) -> None:
        self.packet: Optional[Packet] = None
        self.busy = [0.0, 0.0]
        self.used = [False, False]
        self.path: list[str] = []
        self.migrations = 0
        self.recordings: list[_CacheRecording] = []
        self.sampled = False
        self.prev: Optional[Pipeline] = None


def _pool_index(pipeline: Pipeline) -> int:
    return 0 if pipeline is _ASIC else 1


def _make_extractor(
    field_names: tuple[str, ...],
) -> Callable[[Packet], tuple[int, ...]]:
    """Precompiled ``Packet.key``: namespace split done at compile time."""
    metas = tuple(name.startswith("meta.") for name in field_names)
    if not any(metas):
        if len(field_names) == 1:
            (n0,) = field_names

            def extract1(packet: Packet) -> tuple[int, ...]:
                return (packet.fields.get(n0) or 0,)

            return extract1
        if len(field_names) == 2:
            n0, n1 = field_names

            def extract2(packet: Packet) -> tuple[int, ...]:
                fields = packet.fields
                return (fields.get(n0) or 0, fields.get(n1) or 0)

            return extract2

        def extract_headers(
            packet: Packet, _names=field_names
        ) -> tuple[int, ...]:
            fields = packet.fields
            return tuple(fields.get(name) or 0 for name in _names)

        return extract_headers

    pairs = tuple(zip(metas, field_names))

    def extract_mixed(packet: Packet) -> tuple[int, ...]:
        fields = packet.fields
        metadata = packet.metadata
        return tuple(
            (metadata.get(name) if is_meta else fields.get(name)) or 0
            for is_meta, name in pairs
        )

    return extract_mixed


def _record(recordings, bound, names) -> None:
    """Mirror of ``NicEmulator._record`` over precomputed name sets."""
    for recording in recordings:
        if recording.finished:
            continue
        covers = recording.covers
        if "*" in covers or not covers.isdisjoint(names):
            recording.effects.extend(bound)


class FastPathEngine:
    """A program compiled against one emulator's installed state."""

    def __init__(self, emulator: NicEmulator):
        self._em = emulator
        self._ctx = ReplayContext()
        self._instrument = emulator.instrument
        self._counter_bank = emulator.counters
        self._max_steps = emulator.max_steps
        self._program_name = emulator.program.name
        self._native_cache_obj = emulator.native_cache
        # Sampled tracing: captured at compile time so the replay loops
        # branch on a local, and a tracer attach/detach recompiles.
        self._tracer = emulator.tracer
        self._fns: dict[str, StepFn] = {}
        self._by_id: dict[int, StepFn] = {}
        # Staleness fingerprints: runtime-table versions and cache object
        # identities as of compile time.
        self._table_versions = [
            (name, runtime, runtime.version)
            for name, runtime in emulator.runtime_tables.items()
        ]
        self._cache_objs = list(emulator.flow_caches.items())
        self._compile()

    # -- staleness ---------------------------------------------------------

    def stale(self) -> bool:
        """True if the emulator's state diverged from compiled state."""
        em = self._em
        if (
            em.instrument != self._instrument
            or em.counters is not self._counter_bank
            or em.native_cache is not self._native_cache_obj
            or em.max_steps != self._max_steps
            or em.tracer is not self._tracer
        ):
            return True
        for name, runtime, version in self._table_versions:
            current = em.runtime_tables.get(name)
            if current is not runtime or current.version != version:
                return True
        for name, cache in self._cache_objs:
            if em.flow_caches.get(name) is not cache:
                return True
        return False

    # -- compilation -------------------------------------------------------

    def _compile(self) -> None:
        em = self._em
        program = em.program
        try:
            order = list(reversed(program.topological_order()))
        except IrError:
            order = []  # cyclic program: trampolines keep it runnable
        ordered = set(order)
        names = order + [
            name for name in sorted(program.nodes) if name not in ordered
        ]
        for name in names:
            self._fns[name] = self._compile_node(program.nodes[name])
        # Navigation jump table (ids are dynamic next pointers).
        for name, node_id in em.node_ids.items():
            fn = self._fns.get(name)
            if fn is not None:
                self._by_id[node_id] = fn
        self._root_fn = (
            self._fns.get(program.root) if program.root else None
        )
        # Insert-billing: pipeline slot + cost per cache, mirroring
        # NicEmulator._charge_insert (unknown names bill the root pool).
        if program.root is not None:
            root_pipeline = em._pipeline_map[program.root]
        else:
            root_pipeline = em.target.default_pipeline
        self._root_charge = (
            _pool_index(root_pipeline),
            em.target.core(root_pipeline).table_insert_ns,
        )
        self._insert_charge = {}
        for name in em.flow_caches:
            pipeline = em._pipeline_map.get(name, root_pipeline)
            self._insert_charge[name] = (
                _pool_index(pipeline),
                em.target.core(pipeline).table_insert_ns,
            )
        self._native_fn = self._compile_native()

    def _resolve(self, name: Optional[str]) -> Optional[StepFn]:
        """Direct closure reference, or a late-bound trampoline for
        edges whose target is not compiled yet (cycles only)."""
        if name is None:
            return None
        fn = self._fns.get(name)
        if fn is not None:
            return fn
        fns = self._fns

        def trampoline(ctx: ReplayContext, _name=name):
            return fns[_name](ctx)

        return trampoline

    def _compile_node(self, node) -> StepFn:
        if isinstance(node, ConditionalNode):
            return self._compile_conditional(node)
        kind = node.kind
        if kind is TableKind.NAVIGATION:
            return self._compile_navigation(node)
        if kind is TableKind.MIGRATION:
            return self._compile_migration(node)
        if (
            kind is TableKind.CACHE
            and node.cache_info
            and node.cache_info.mode == "flow"
        ):
            return self._compile_flow_cache(node)
        if kind is TableKind.MERGED or (
            kind is TableKind.CACHE
            and node.cache_info
            and node.cache_info.mode == "merge"
        ):
            return self._compile_merged(node)
        return self._compile_plain(node)

    def _node_consts(self, node):
        """Shared per-node constants: pipeline slot, core, penalties."""
        em = self._em
        pipeline = em._pipeline_map[node.name]
        return (
            pipeline,
            _pool_index(pipeline),
            em.target.core(pipeline),
            em.target.migration_ns,
        )

    def _make_runner(self, bound, pool, action_ns):
        """Compile one bound-primitive list into a charged applier."""
        compiled = compile_effect(bound, self._em.explicit_counters)
        if not compiled:
            def run_nothing(ctx: ReplayContext, packet: Packet) -> None:
                return None

            return run_nothing

        def run(ctx: ReplayContext, packet: Packet) -> None:
            busy = ctx.busy
            for applier in compiled:
                busy[pool] += action_ns
                if applier is not None:
                    applier(packet)

        return run

    # -- node compilers ----------------------------------------------------

    def _compile_conditional(self, node: ConditionalNode) -> StepFn:
        name = node.name
        pipeline, pool, core, migration_ns = self._node_consts(node)
        branch_ns = core.branch_ns
        counter_ns = core.counter_update_ns
        condition = node.condition
        field = condition.field
        is_meta = field.startswith("meta.")
        is_valid = condition.op == "valid"
        op_fn = _OPS.get(condition.op)
        value = condition.value
        true_key = branch_counter(name, True)
        false_key = branch_counter(name, False)
        true_fn = self._resolve(node.true_next)
        false_fn = self._resolve(node.false_next)
        bump = self._counter_bank.bump
        commit_open = self._commit_open

        def step(ctx: ReplayContext):
            if ctx.recordings:
                commit_open(ctx, name)
            busy = ctx.busy
            prev = ctx.prev
            if prev is not pipeline:
                if prev is not None:
                    busy[pool] += migration_ns
                    ctx.migrations += 1
                ctx.prev = pipeline
            busy[pool] += branch_ns
            ctx.used[pool] = True
            ctx.path.append(name)
            packet = ctx.packet
            packet_value = (
                packet.metadata if is_meta else packet.fields
            ).get(field)
            if is_valid:
                taken = packet_value is not None
            else:
                taken = packet_value is not None and op_fn(
                    packet_value, value
                )
            if ctx.sampled:
                bump(true_key if taken else false_key, packet.size_bytes)
                busy[pool] += counter_ns
            return true_fn if taken else false_fn

        return step

    def _compile_navigation(self, node: TableNode) -> StepFn:
        name = node.name
        pipeline, pool, core, migration_ns = self._node_consts(node)
        lookup_ns = core.lookup_ns
        default_fn = self._resolve(node.next_map[node.default_action])
        by_id = self._by_id  # filled after all nodes compile
        commit_open = self._commit_open

        def step(ctx: ReplayContext):
            if ctx.recordings:
                commit_open(ctx, name)
            busy = ctx.busy
            prev = ctx.prev
            if prev is not pipeline:
                if prev is not None:
                    busy[pool] += migration_ns
                    ctx.migrations += 1
                ctx.prev = pipeline
            busy[pool] += lookup_ns
            ctx.used[pool] = True
            ctx.path.append(name)
            metadata = ctx.packet.metadata
            node_id = metadata.get(NEXT_TAB_ID)
            if node_id is None:
                return default_fn
            target_fn = by_id.get(node_id)
            if target_fn is None:
                raise EmulationError(
                    f"Navigation table {name!r}: unknown "
                    f"next_tab_id {node_id}"
                )
            metadata.pop(NEXT_TAB_ID, None)
            return target_fn

        return step

    def _compile_migration(self, node: TableNode) -> StepFn:
        name = node.name
        pipeline, pool, core, migration_ns = self._node_consts(node)
        action_ns = core.action_ns
        resume = node.annotations.get("resume")
        resume_id = (
            self._em.node_ids[resume] if resume is not None else None
        )
        next_fn = self._resolve(node.next_map[node.default_action])
        commit_open = self._commit_open

        def step(ctx: ReplayContext):
            if ctx.recordings:
                commit_open(ctx, name)
            busy = ctx.busy
            prev = ctx.prev
            if prev is not pipeline:
                if prev is not None:
                    busy[pool] += migration_ns
                    ctx.migrations += 1
                ctx.prev = pipeline
            busy[pool] += action_ns
            ctx.used[pool] = True
            ctx.path.append(name)
            if resume_id is not None:
                ctx.packet.metadata[NEXT_TAB_ID] = resume_id
            return next_fn

        return step

    def _compile_flow_cache(self, node: TableNode) -> StepFn:
        name = node.name
        info = node.cache_info
        pipeline, pool, core, migration_ns = self._node_consts(node)
        lookup_ns = core.lookup_ns
        action_ns = core.action_ns
        counter_ns = core.counter_update_ns
        extract = _make_extractor(node.match_fields)
        cache_lookup = self._em.flow_caches[name].lookup
        hit_key = cache_counter(name, True)
        miss_key = cache_counter(name, False)
        hit_fn = self._resolve(info.hit_next)
        miss_fn = self._resolve(info.miss_next)
        hit_next_name = info.hit_next
        covers_set = set(info.covers)
        covers_frozen = frozenset(info.covers)
        explicit_counters = self._em.explicit_counters
        bump = self._counter_bank.bump
        commit_open = self._commit_open

        def step(ctx: ReplayContext):
            recordings = ctx.recordings
            if recordings:
                commit_open(ctx, name)
            busy = ctx.busy
            prev = ctx.prev
            if prev is not pipeline:
                if prev is not None:
                    busy[pool] += migration_ns
                    ctx.migrations += 1
                ctx.prev = pipeline
            busy[pool] += lookup_ns
            ctx.used[pool] = True
            ctx.path.append(name)
            packet = ctx.packet
            key = extract(packet)
            effect = cache_lookup(key)
            if ctx.sampled:
                bump(
                    hit_key if effect is not None else miss_key,
                    packet.size_bytes,
                )
                busy[pool] += counter_ns
            if effect is not None:
                for op, args in effect:
                    busy[pool] += action_ns
                    apply_primitive(packet, op, args, explicit_counters)
                if recordings:
                    _record(recordings, effect, covers_frozen)
                if packet.dropped:
                    return None
                return hit_fn
            recordings.append(
                _CacheRecording(
                    name, key, covers_set, hit_next=hit_next_name
                )
            )
            return miss_fn

        return step

    def _compile_merged(self, node: TableNode) -> StepFn:
        name = node.name
        info = node.cache_info
        pipeline, pool, core, migration_ns = self._node_consts(node)
        runtime = self._em.runtime_tables[name]
        match_ns = core.match_cost_ns(
            node.worst_match_type,
            runtime.memory_accesses,
            node.memory_tier,
        )
        action_ns = core.action_ns
        counter_ns = core.counter_update_ns
        extract = _make_extractor(node.match_fields)
        lookup = runtime.engine.lookup
        hit_key = cache_counter(name, True)
        miss_key = cache_counter(name, False)
        hit_fn = self._resolve(info.hit_next) if info else None
        miss_fn = self._resolve(info.miss_next) if info else None
        record_names = (
            frozenset(info.covers) if info else frozenset((name,))
        )
        actions = node.actions
        bump = self._counter_bank.bump
        commit_open = self._commit_open
        make_runner = self._make_runner
        plans: dict[int, tuple] = {}

        def step(ctx: ReplayContext):
            recordings = ctx.recordings
            if recordings:
                commit_open(ctx, name)
            busy = ctx.busy
            prev = ctx.prev
            if prev is not pipeline:
                if prev is not None:
                    busy[pool] += migration_ns
                    ctx.migrations += 1
                ctx.prev = pipeline
            busy[pool] += match_ns
            ctx.used[pool] = True
            ctx.path.append(name)
            packet = ctx.packet
            entry = lookup(extract(packet))
            if entry is None:
                if ctx.sampled:
                    bump(miss_key, packet.size_bytes)
                    busy[pool] += counter_ns
                return miss_fn
            plan = plans.get(entry.entry_id)
            if plan is None:
                bound = bind_action(
                    actions[entry.action_name], entry.action_data
                )
                plan = plans[entry.entry_id] = (
                    make_runner(bound, pool, action_ns),
                    bound,
                )
            if ctx.sampled:
                bump(hit_key, packet.size_bytes)
                busy[pool] += counter_ns
            runner, bound = plan
            runner(ctx, packet)
            if recordings:
                _record(recordings, bound, record_names)
            if packet.dropped:
                return None
            return hit_fn

        return step

    def _compile_plain(self, node: TableNode) -> StepFn:
        name = node.name
        pipeline, pool, core, migration_ns = self._node_consts(node)
        runtime = self._em.runtime_tables[name]
        match_ns = core.match_cost_ns(
            node.worst_match_type,
            runtime.memory_accesses,
            node.memory_tier,
        )
        action_ns = core.action_ns
        counter_ns = core.counter_update_ns
        extract = _make_extractor(node.match_fields)
        lookup = runtime.engine.lookup
        record_names = frozenset((name,))
        actions = node.actions
        next_fns = {
            action_name: self._resolve(next_name)
            for action_name, next_name in node.next_map.items()
        }
        bump = self._counter_bank.bump
        commit_open = self._commit_open
        make_runner = self._make_runner

        default_action = actions[node.default_action]
        default_bound = bind_action(default_action, ())
        default_plan = (
            make_runner(default_bound, pool, action_ns),
            action_counter(name, default_action.name),
            next_fns[default_action.name],
            default_bound,
        )
        plans: dict[int, tuple] = {}

        def step(ctx: ReplayContext):
            recordings = ctx.recordings
            if recordings:
                commit_open(ctx, name)
            busy = ctx.busy
            prev = ctx.prev
            if prev is not pipeline:
                if prev is not None:
                    busy[pool] += migration_ns
                    ctx.migrations += 1
                ctx.prev = pipeline
            busy[pool] += match_ns
            ctx.used[pool] = True
            ctx.path.append(name)
            packet = ctx.packet
            entry = lookup(extract(packet))
            if entry is None:
                plan = default_plan
            else:
                plan = plans.get(entry.entry_id)
                if plan is None:
                    action = actions[entry.action_name]
                    bound = bind_action(action, entry.action_data)
                    plan = plans[entry.entry_id] = (
                        make_runner(bound, pool, action_ns),
                        action_counter(name, action.name),
                        next_fns[action.name],
                        bound,
                    )
            runner, counter_key, next_fn, bound = plan
            if ctx.sampled:
                bump(counter_key, packet.size_bytes)
                busy[pool] += counter_ns
            runner(ctx, packet)
            if recordings:
                _record(recordings, bound, record_names)
            if packet.dropped:
                return None
            return next_fn

        return step

    def _compile_native(self) -> Optional[Callable]:
        """Whole-program native-cache pre-step (Agilio CX model)."""
        em = self._em
        if em.native_cache is None or em.program.root is None:
            return None
        entry_pipeline = em._pipeline_map[em.program.root]
        pool = _pool_index(entry_pipeline)
        core = em.target.core(entry_pipeline)
        lookup_ns = core.lookup_ns
        action_ns = core.action_ns
        extract = _make_extractor(FIVE_TUPLE)
        native_lookup = em.native_cache.lookup
        explicit_counters = em.explicit_counters
        star = {"*"}

        def native_step(ctx: ReplayContext) -> bool:
            busy = ctx.busy
            busy[pool] += lookup_ns
            ctx.used[pool] = True
            packet = ctx.packet
            key = extract(packet)
            effect = native_lookup(key)
            if effect is not None:
                for op, args in effect:
                    busy[pool] += action_ns
                    apply_primitive(packet, op, args, explicit_counters)
                return True
            ctx.recordings.append(
                _CacheRecording("__native__", key, star, hit_next=None)
            )
            return False

        return native_step

    # -- cache recording ---------------------------------------------------

    def _commit_open(self, ctx: ReplayContext, node_name: str) -> None:
        """Commit recordings whose ``hit_next`` is the arriving node."""
        commit = self._em._commit_recording
        insert_charge = self._insert_charge
        root_charge = self._root_charge
        for recording in ctx.recordings:
            if not recording.finished and recording.hit_next == node_name:
                if commit(recording):
                    pool, insert_ns = insert_charge.get(
                        recording.cache_name, root_charge
                    )
                    ctx.busy[pool] += insert_ns
                    ctx.used[pool] = True

    def _finalize(self, ctx: ReplayContext) -> None:
        recordings = ctx.recordings
        if not recordings:
            return
        commit = self._em._commit_recording
        insert_charge = self._insert_charge
        root_charge = self._root_charge
        busy = ctx.busy
        used = ctx.used
        for recording in recordings:
            if not recording.finished and commit(recording):
                pool, insert_ns = insert_charge.get(
                    recording.cache_name, root_charge
                )
                busy[pool] += insert_ns
                used[pool] = True

    # -- replay ------------------------------------------------------------

    def _begin_packet(self) -> bool:
        if self._instrument:
            return self._counter_bank.begin_packet()
        return False

    def _run(self, packet: Packet) -> ReplayContext:
        """Drive one packet through the compiled program."""
        ctx = self._ctx
        ctx.sampled = self._begin_packet()
        ctx.packet = packet
        busy = ctx.busy
        busy[0] = 0.0
        busy[1] = 0.0
        used = ctx.used
        used[0] = False
        used[1] = False
        ctx.path.clear()
        ctx.migrations = 0
        ctx.recordings.clear()
        ctx.prev = None

        native = self._native_fn
        if native is not None and native(ctx):
            return ctx  # served from the native cache
        fn = self._root_fn
        max_steps = self._max_steps
        steps = 0
        while fn is not None:
            steps += 1
            if steps > max_steps:
                raise EmulationError(
                    f"Packet exceeded {max_steps} steps; "
                    f"program {self._program_name!r} likely has a cycle"
                )
            fn = fn(ctx)
        self._finalize(ctx)
        return ctx

    def replay_one(
        self, packet: Packet, into: Optional[PacketResult] = None
    ) -> PacketResult:
        """Process one packet; bit-identical to ``process()``.

        Pass ``into`` to fill a recycled result instead of allocating
        one.
        """
        tracer = self._tracer
        if tracer is not None:
            trace = tracer.try_begin(self._em.clock.now_s)
            if trace is not None:
                # Traced packets run through the interpreter, which is
                # bit-identical to this engine (differential contract),
                # so tracing can't perturb state or results.
                result = self._em.process(packet, trace=trace)
                if into is None:
                    return result
                into.latency_ns = result.latency_ns
                into.dropped = result.dropped
                into.egress_port = result.egress_port
                into.migrations = result.migrations
                into.busy_ns = result.busy_ns
                into.path = result.path
                return into
        if self._root_fn is None:
            self._begin_packet()
            if into is None:
                return PacketResult(0.0, False, None, 0, {}, ())
            into.latency_ns = 0.0
            into.dropped = False
            into.egress_port = None
            into.migrations = 0
            into.busy_ns = {}
            into.path = ()
            return into
        ctx = self._run(packet)
        busy_list = ctx.busy
        used = ctx.used
        busy: dict[Pipeline, float] = {}
        latency = 0.0
        if used[0]:
            busy[_ASIC] = busy_list[0]
            latency += busy_list[0]
        if used[1]:
            busy[_CPU] = busy_list[1]
            latency += busy_list[1]
        if into is None:
            return PacketResult(
                latency,
                packet.dropped,
                packet.egress_port,
                ctx.migrations,
                busy,
                tuple(ctx.path),
            )
        into.latency_ns = latency
        into.dropped = packet.dropped
        into.egress_port = packet.egress_port
        into.migrations = ctx.migrations
        into.busy_ns = busy
        into.path = tuple(ctx.path)
        return into

    def replay_batch(
        self,
        packets: Iterable[Packet],
        stats: RunStats,
        dt_s: float = 0.0,
        timestamps: Optional[Iterable[float]] = None,
    ) -> None:
        """Replay packets straight into ``stats`` (no result objects).

        ``timestamps``, when given, sets the sim clock to the provided
        absolute time before each packet instead of advancing it by
        ``dt_s``. Sharded replay uses this so every worker observes the
        same per-packet clock the single-core engine would (cache
        insertion rate limiting is clock-driven).
        """
        if self._tracer is not None:
            # One branch per batch: the traced loop lives elsewhere so
            # the untraced loops below stay exactly as fast as before.
            self._replay_batch_traced(packets, stats, dt_s, timestamps)
            return
        clock = self._em.clock
        record = stats.record_fast
        if timestamps is not None:
            packets = zip(packets, timestamps)
        if self._root_fn is None:
            if timestamps is not None:
                for packet, now_s in packets:
                    clock.now_s = now_s
                    self._begin_packet()
                    record(0.0, packet.size_bytes, False, 0, None, None)
                return
            for packet in packets:
                if dt_s:
                    clock.advance(dt_s)
                self._begin_packet()
                record(0.0, packet.size_bytes, False, 0, None, None)
            return
        run = self._run
        if timestamps is not None:
            for packet, now_s in packets:
                clock.now_s = now_s
                ctx = run(packet)
                busy = ctx.busy
                used = ctx.used
                asic = busy[0] if used[0] else None
                cpu = busy[1] if used[1] else None
                latency = 0.0
                if asic is not None:
                    latency += asic
                if cpu is not None:
                    latency += cpu
                record(
                    latency,
                    packet.size_bytes,
                    packet.dropped,
                    ctx.migrations,
                    asic,
                    cpu,
                )
            return
        for packet in packets:
            if dt_s:
                clock.advance(dt_s)
            ctx = run(packet)
            busy = ctx.busy
            used = ctx.used
            asic = busy[0] if used[0] else None
            cpu = busy[1] if used[1] else None
            latency = 0.0
            if asic is not None:
                latency += asic
            if cpu is not None:
                latency += cpu
            record(
                latency,
                packet.size_bytes,
                packet.dropped,
                ctx.migrations,
                asic,
                cpu,
            )

    def _replay_batch_traced(
        self,
        packets: Iterable[Packet],
        stats: RunStats,
        dt_s: float = 0.0,
        timestamps: Optional[Iterable[float]] = None,
    ) -> None:
        """Batch loop with a tracer attached: sample before each packet.

        Sampled packets run through the interpreter with the trace
        pre-begun (bit-identical by the differential contract, and
        ``RunStats.record`` lands the same samples ``record_fast``
        would), so tracing never perturbs stats, counters or cache
        state; every other packet takes the compiled path.
        """
        em = self._em
        clock = em.clock
        tracer = self._tracer
        record = stats.record_fast
        run = self._run
        root_missing = self._root_fn is None
        if timestamps is not None:
            pairs = zip(packets, timestamps)
        else:
            pairs = ((packet, None) for packet in packets)
        for packet, now_s in pairs:
            if now_s is not None:
                clock.now_s = now_s
            elif dt_s:
                clock.advance(dt_s)
            trace = tracer.try_begin(clock.now_s)
            if trace is not None:
                result = em.process(packet, trace=trace)
                stats.record(result, packet.size_bytes)
                continue
            if root_missing:
                self._begin_packet()
                record(0.0, packet.size_bytes, False, 0, None, None)
                continue
            ctx = run(packet)
            busy = ctx.busy
            used = ctx.used
            asic = busy[0] if used[0] else None
            cpu = busy[1] if used[1] else None
            latency = 0.0
            if asic is not None:
                latency += asic
            if cpu is not None:
                latency += cpu
            record(
                latency,
                packet.size_bytes,
                packet.dropped,
                ctx.migrations,
                asic,
                cpu,
            )
