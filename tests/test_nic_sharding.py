"""Differential tests: sharded multi-core replay vs. single-core.

The sharded engine is only allowed to exist because the merge of its
per-worker telemetry is bit-identical to a single-core replay of the
unsplit stream: same run stats (fsum totals), same counter banks, same
cache stats, and worker cache stores that partition the single-core
store. These tests drive identical traffic through both, on every
example app, at 2 and 4 workers, with and without mid-stream
control-plane updates.
"""

import numpy as np
import pytest

from repro.apps import EXAMPLE_APPS
from repro.core import Deployment, Pipeleon
from repro.errors import EmulationError
from repro.ir.tables import Pipeline
from repro.nic.columnar import ColumnBatch, ColumnSource
from repro.nic.packet import DEFAULT_PACKET_BYTES, make_packet
from repro.nic.sharding import ShardedEmulator, flow_shard
from repro.nic.stats import RunStats
from repro.nic.targets import EMULATED_NIC
from repro.telemetry.live import LiveOptions, LivePlane
from repro.traffic.flows import synth_flows
from repro.traffic.generator import PacketStream, TrafficGenerator

WORKER_COUNTS = [2, 4]


def app_packets(seed: int, n: int = 300) -> PacketStream:
    """A zipf stream over 64 flows: one-shot, and what a fleet ships as
    flow indices. ``list()`` it for a source without flow indices."""
    generator = TrafficGenerator(seed)
    flows = synth_flows(48) + synth_flows(16, dport=6666)
    return generator.stream(flows, n, locality="zipf")


def stats_fingerprint(stats: RunStats) -> tuple:
    return (
        stats.packets,
        stats.dropped,
        stats.migrations,
        stats.total_latency_ns,
        stats.total_bytes,
        stats.value_counts(),
        {pool: stats.value_counts(pool) for pool in Pipeline},
        stats._busy_ns,
    )


def make_twins(
    app: str,
    n_workers: int,
    optimize: bool = False,
    live: LiveOptions = None,
):
    """A single-core deployment and a sharded one, identically set up;
    with ``live``, each watched by a started plane of its own
    (``.live_plane``, for the caller to stop)."""
    build, install = EXAMPLE_APPS[app]
    target = EMULATED_NIC
    single_program = build()
    plan = (
        Pipeleon(target).optimize(single_program) if optimize else None
    )

    def plane():
        return LivePlane(live).start() if live is not None else None

    single = Deployment(
        single_program, target, plan=plan, live_plane=plane()
    )
    install(single.control_plane)
    sharded_program = build()
    plan = (
        Pipeleon(target).optimize(sharded_program) if optimize else None
    )
    sharded = Deployment(
        sharded_program,
        target,
        jobs=n_workers,
        plan=plan,
        live_plane=plane(),
    )
    install(sharded.control_plane)
    return single, sharded


def table_shapes(tables) -> dict:
    """Structural view of ``{name: entries}`` (entry ids are freshly
    assigned per replica)."""
    return {
        name: sorted(
            (
                entry.action_name,
                repr(entry.match_values),
                repr(entry.action_data),
                entry.priority,
            )
            for entry in entries
        )
        for name, entries in tables.items()
    }


def assert_sharded_identical(
    single: Deployment, sharded: Deployment
):
    emulator = single.emulator
    merged = sharded.emulator
    assert emulator.counters.snapshot() == merged.counters.snapshot()
    assert dict(emulator.explicit_counters) == merged.explicit_counters
    for name, cache in emulator.flow_caches.items():
        stats = merged.cache_stats[name]
        assert (cache.stats.hits, cache.stats.misses) == (
            stats.hits,
            stats.misses,
        )
        assert cache.stats.insertions == stats.insertions
        assert cache.stats.invalidations == stats.invalidations
    if emulator.native_cache is not None:
        native = merged.native_cache_stats
        assert native is not None
        assert (
            emulator.native_cache.stats.hits,
            emulator.native_cache.stats.misses,
        ) == (native.hits, native.misses)
    # Worker cache stores must partition the single-core store: flows
    # never cross shards, so the disjoint union reproduces it exactly.
    dumps = sharded.emulator.dump_caches()
    for name, cache in emulator.flow_caches.items():
        union: dict = {}
        for stores, _native, _tables in dumps:
            store = stores[name]
            assert not (set(union) & set(store))
            union.update(store)
        assert union == dict(cache.items())
    # And every worker's runtime tables mirror the template's.
    template = sharded.emulator.template
    template_tables = table_shapes(
        {
            name: runtime.entries()
            for name, runtime in template.runtime_tables.items()
        }
    )
    for _stores, _native, tables in dumps:
        assert table_shapes(tables) == template_tables


def perturb_control_plane(deployment) -> None:
    """App-agnostic mid-stream churn: delete + re-insert + flush."""
    control_plane = deployment.control_plane
    for table in control_plane.table_names():
        entries = control_plane.entries(table)
        if entries:
            victim = entries[0]
            control_plane.delete_entry(table, victim.entry_id)
            control_plane.insert_entry(table, victim.clone())
            break
    control_plane.flush_caches()


class TestShardedDifferential:
    @pytest.mark.parametrize("app", sorted(EXAMPLE_APPS))
    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_replay_identical_with_midstream_updates(
        self, app, n_workers
    ):
        single, sharded = make_twins(app, n_workers)
        try:
            first_single = single.replay(
                app_packets(7), offered_pps=1e6
            )
            first_sharded = sharded.replay(
                app_packets(7), offered_pps=1e6
            )
            assert stats_fingerprint(first_sharded) == (
                stats_fingerprint(first_single)
            )
            # Mid-stream churn lands between batches on both sides.
            perturb_control_plane(single)
            perturb_control_plane(sharded)
            second_single = single.replay(
                app_packets(8), offered_pps=1e6, batch=33
            )
            second_sharded = sharded.replay(
                app_packets(8), offered_pps=1e6, batch=33
            )
            assert stats_fingerprint(second_sharded) == (
                stats_fingerprint(second_single)
            )
            assert_sharded_identical(single, sharded)
        finally:
            sharded.close()

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_optimized_plan_replay_identical(self, n_workers):
        single, sharded = make_twins(
            "l2l3_acl", n_workers, optimize=True
        )
        # The optimized plan's flow cache keys on ``ipv4.dst`` alone.
        # Exact equivalence requires each cache key to resolve within
        # one shard, so every flow here has a distinct dst (flows that
        # share a dst across shards would each warm their own copy --
        # correct outputs, but more cold misses than one core).
        flows = synth_flows(64)
        packets = lambda: list(  # noqa: E731
            TrafficGenerator(11).stream(flows, 300, locality="zipf")
        )
        try:
            reference = single.replay(packets(), offered_pps=1e6)
            replayed = sharded.replay(packets(), offered_pps=1e6)
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
        finally:
            sharded.close()

    @pytest.mark.parametrize("n_workers", WORKER_COUNTS)
    def test_final_live_row_identical(self, n_workers):
        """Under the packet cadence, one core's in-process feed ends on
        the interval row a fleet's sidecar snapshots merge to."""
        single, sharded = make_twins(
            "l2l3_acl",
            n_workers,
            optimize=True,
            live=LiveOptions(every_packets=64),
        )
        flows = synth_flows(64)  # distinct dsts: see the test above
        rows = []
        try:
            for deployment in (single, sharded):
                for seed, batch in ((11, 256), (12, 33)):
                    deployment.replay(
                        TrafficGenerator(seed).stream(
                            flows, 300, locality="zipf"
                        ),
                        offered_pps=1e6,
                        batch=batch,
                    )
                deployment.live_plane.aggregator.stop()
                rows.append(deployment.live_plane.recorder.last("interval"))
        finally:
            for deployment in (single, sharded):
                deployment.close()
                deployment.live_plane.stop()
        fields = (
            "packets",
            "dropped",
            "demotions",
            "columnar_packets",
            "cache_hit_rate",
            "p50_ns",
            "p99_ns",
        )
        one_core, fleet = ({f: row[f] for f in fields} for row in rows)
        assert one_core["packets"] == 600
        assert one_core["cache_hit_rate"] is not None
        assert one_core == fleet
        assert len(rows[0]["shards"]) == 1
        assert len(rows[1]["shards"]) == n_workers

    def test_unpaced_replay_identical(self):
        single, sharded = make_twins("acl_chain", 2)
        try:
            reference = single.replay(app_packets(3))
            replayed = sharded.replay(app_packets(3))
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
        finally:
            sharded.close()


class MidwayAction(ColumnSource):
    """A column source that calls ``action`` just before it hands out
    batch ``at`` of ``source``: a control-plane change between two
    batches, wherever the replay dispatches them."""

    def __init__(self, source: ColumnSource, at: int, action):
        self.source = source
        self.at = at
        self.action = action

    def flow_batches(self, size: int):
        for index, item in enumerate(self.source.flow_batches(size)):
            if index == self.at:
                self.action()
            yield item


class TestOrderedStream:
    """The command pipe is a shard's one ordered stream: ring batches
    (a token on the pipe) and broadcasts are acted on in exactly the
    order the dispatcher sent them."""

    BATCH = 8
    N_BATCHES = 14

    @staticmethod
    def deployments(ring_slots):
        """Single-core and two-worker twins on the optimized l2l3_acl
        plan, whose flow cache holds one entry and inserts on every
        miss — any reordering changes hits, evictions and contents."""
        build, install = EXAMPLE_APPS["l2l3_acl"]
        options = dict(
            cache_capacity=1, cache_insertion_limit_pps=1e12
        )
        twins = []
        for sharded in (False, True):
            program = build()
            plan = Pipeleon(EMULATED_NIC).optimize(program)
            if sharded:
                deployment = Deployment(
                    program,
                    EMULATED_NIC,
                    jobs=2,
                    plan=plan,
                    batch=TestOrderedStream.BATCH,
                    ring_slots=ring_slots,
                    **options,
                )
            else:
                deployment = Deployment(
                    program, EMULATED_NIC, plan=plan, **options
                )
            install(deployment.control_plane)
            twins.append(deployment)
        return twins

    @staticmethod
    def flows():
        """Five shard-0 flows, so the fleet's dispatch batches are the
        single core's batches."""
        return [
            flow
            for flow in synth_flows(64)
            if flow_shard(flow.flow_key(), 2) == 0
        ][:5]

    @staticmethod
    def delete_routes(deployment) -> None:
        control_plane = deployment.control_plane
        for entry in control_plane.entries("l2l3_route"):
            control_plane.delete_entry("l2l3_route", entry.entry_id)

    def chain(self, index: int, position: int) -> int:
        """Batch ``index`` is half flow ``index`` and half the next
        one, so in order — and only in order — every batch boundary is
        a cache hit."""
        return (index + position // (self.BATCH // 2)) % 5

    def index_stream(self, deployment):
        """The chain as flow indices (every batch rides the ring). Odd
        batches draw flows holding a value outside int64, so a worker
        makes them the ``Packet``-list batch one core makes; halfway
        the cached table loses its entries."""
        flows = self.flows()
        odd = [flow.with_fields(**{"ipv4.tos": 2**64}) for flow in flows]
        indices = np.array(
            [
                (index % 2) * len(flows) + self.chain(index, position)
                for index in range(self.N_BATCHES)
                for position in range(self.BATCH)
            ],
            dtype=np.int64,
        )
        return MidwayAction(
            PacketStream(
                TrafficGenerator(0),
                lambda: (flows + odd, indices),
                DEFAULT_PACKET_BYTES,
            ),
            self.N_BATCHES // 2,
            lambda: self.delete_routes(deployment),
        )

    def replay_both(self, ring_slots, make_stream):
        """Single core and fleet on ``make_stream``'s traffic: same
        stats, counters and cache contents, in the same LRU order.
        Returns the fleet's transport totals."""
        single, sharded = self.deployments(ring_slots)
        try:
            reference = single.replay(
                make_stream(single), offered_pps=1e6, batch=self.BATCH
            )
            replayed = sharded.replay(
                make_stream(sharded), offered_pps=1e6, batch=self.BATCH
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
            assert single.emulator.flow_caches  # the plan has a cache
            stores, _native, _tables = sharded.emulator.dump_caches()[0]
            for name, cache in single.emulator.flow_caches.items():
                assert list(stores[name].items()) == list(cache.items())
                assert cache.stats.evictions > 0
                assert cache.stats.invalidations > 0
            return sharded.emulator.transport_stats()["totals"]
        finally:
            sharded.close()

    @pytest.mark.parametrize("ring_slots", [1, 16])
    def test_ring_batches_and_broadcast_keep_order(self, ring_slots):
        """Ring tokens — batches of both forms at the worker — and a
        broadcast."""
        totals = self.replay_both(ring_slots, self.index_stream)
        assert totals["pushed_batches"] == self.N_BATCHES
        assert totals["flow_sets_shipped"] == 2

    def test_ring_token_without_a_record_is_a_protocol_error(self):
        _, sharded = make_twins("l2l3_acl", 2)
        try:
            engine = sharded.emulator
            assert engine._guarded_send(
                0, ("ring",), context="forged token"
            )
            with pytest.raises(
                EmulationError,
                match="ring token without a published record",
            ):
                engine.collect()
        finally:
            sharded.close()


class TestBroadcastEpochs:
    def test_epoch_advances_and_workers_stay_synced(self):
        _, sharded = make_twins("l2l3_acl", 2)
        try:
            engine = sharded.emulator
            before = engine.epoch
            perturb_control_plane(sharded)
            # delete + insert each broadcast entries + invalidation;
            # flush broadcasts once more.
            assert engine.epoch > before
            # collect() asserts every worker acked the latest epoch.
            engine.collect()
        finally:
            sharded.close()

    def test_worker_failure_surfaces_as_emulation_error(self):
        _, sharded = make_twins("l2l3_acl", 2)
        try:
            engine = sharded.emulator
            # Forged: the fleet's own mutator applies to the template
            # first, which rejects the unknown table in the parent.
            engine._broadcast(
                ("entries", "no_such_table", [], engine.epoch),
                context="forged entries",
            )
            with pytest.raises(EmulationError, match="worker failed"):
                engine.collect()
        finally:
            sharded.close()

    def test_closed_engine_rejects_replay(self):
        _, sharded = make_twins("l2l3_acl", 2)
        sharded.close()
        sharded.close()  # idempotent
        with pytest.raises(EmulationError, match="closed"):
            sharded.emulator.replay([make_packet()])

    def test_killed_worker_surfaces_shard_and_exitcode(self):
        # Regression: a worker dying mid-conversation used to hang the
        # parent or raise a bare EOFError; it must surface as a clear
        # EmulationError naming the shard, and close() must still reap
        # the surviving workers.
        _, sharded = make_twins("l2l3_acl", 2)
        try:
            engine = sharded.emulator
            victim = engine._procs[0]
            victim.kill()
            victim.join(timeout=10.0)
            with pytest.raises(
                EmulationError, match="died without replying"
            ) as excinfo:
                engine.collect()
            message = str(excinfo.value)
            assert "0" in message  # shard index
            assert "repro-shard-0" in message
            assert "exitcode" in message
        finally:
            sharded.close()
        # Post-mortem close is clean and idempotent.
        sharded.close()
        assert all(not p.is_alive() for p in sharded.emulator._procs)

    def test_context_manager_tears_down_workers(self):
        build, install = EXAMPLE_APPS["l2l3_acl"]
        with Deployment(
            build(), EMULATED_NIC, jobs=2
        ) as sharded:
            install(sharded.control_plane)
            sharded.replay(app_packets(21, 50))
            procs = list(sharded.emulator._procs)
            assert all(p.is_alive() for p in procs)
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(EmulationError, match="closed"):
            sharded.replay([make_packet()])

    def test_atexit_hook_registered_then_released(self, monkeypatch):
        # Leak guard: the engine registers its close() with atexit at
        # spawn (so a mid-replay crash can't orphan forked workers) and
        # unregisters it on explicit close.
        import repro.nic.sharding as sharding_mod

        registered: list = []
        monkeypatch.setattr(
            sharding_mod.atexit, "register", registered.append
        )
        monkeypatch.setattr(
            sharding_mod.atexit,
            "unregister",
            lambda fn: registered.remove(fn),
        )
        _, sharded = make_twins("l2l3_acl", 2)
        try:
            assert registered == [sharded.emulator.close]
        finally:
            sharded.close()
        assert registered == []


class TestFlowSharding:
    def test_flow_shard_deterministic_and_in_range(self):
        for flow in synth_flows(100):
            key = flow.flow_key()
            for n in (1, 2, 4, 7):
                shard = flow_shard(key, n)
                assert 0 <= shard < n
                assert shard == flow_shard(key, n)
        assert flow_shard(synth_flows(1)[0].flow_key(), 1) == 0

    def test_flow_key_matches_packet(self):
        for flow in synth_flows(10):
            assert flow.flow_key() == flow.packet().flow_key()


def non_soa_batches(metadata_key: str = "meta.next_tab_id") -> dict:
    """One batch per reason the columns cannot express a batch."""
    tagged = make_packet()
    tagged.metadata[metadata_key] = 3
    wide = make_packet()
    wide.fields["ipv6.src"] = 1 << 100
    other = make_packet()
    other.fields["vlan.id"] = 7
    preset = make_packet()
    preset.dropped = True
    preset.egress_port = 9
    return {
        "metadata": [make_packet(), tagged],
        "oversized": [wide],
        "heterogeneous": [make_packet(), other],
        "preset": [preset],
        "empty": [],
    }


class TestBatchCodec:
    """The two payload forms: SoA for uniform batches, the ``Packet``
    list itself for what the columns cannot express."""

    def test_uniform_batch_columnises_and_round_trips(self):
        packets = [make_packet(sport=1000 + i) for i in range(8)]
        batch = ColumnBatch.from_packets(packets)
        assert batch is not None
        # What a worker rebuilds from the columns alone.
        shipped = ColumnBatch(batch.names, batch.values, batch.sizes)
        decoded = [shipped.make_packet(i) for i in range(shipped.n)]
        assert [p.fields for p in decoded] == [
            p.fields for p in packets
        ]
        assert [p.size_bytes for p in decoded] == [
            p.size_bytes for p in packets
        ]
        assert all(
            not p.dropped and p.egress_port is None and not p.metadata
            for p in decoded
        )

    @pytest.mark.parametrize("reason", sorted(non_soa_batches()))
    def test_not_expressible_as_columns(self, reason):
        assert ColumnBatch.from_packets(non_soa_batches()[reason]) is None

    def test_packet_list_batches_replay_like_single_core(self):
        """Every non-SoA reason, interleaved with uniform traffic."""

        def packets():
            stream = list(app_packets(5, 200))
            # A metadata key no table reads: only the encoding differs.
            odd = non_soa_batches("meta.mark")
            for index, reason in enumerate(sorted(odd)):
                stream[40 * index + 7 : 40 * index + 7] = odd[reason]
            return stream

        single, sharded = make_twins("l2l3_acl", 2)
        try:
            reference = single.replay(packets(), batch=16)
            replayed = sharded.replay(packets(), batch=16)
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
            # A Packet list becomes a flow set: every batch rides the
            # ring, the non-SoA ones made Packet lists in the worker.
            totals = sharded.emulator.transport_stats()["totals"]
            assert totals["pushed_packets"] == len(packets())
            assert sharded.emulator.columnar_demotions["input"] > 0
        finally:
            sharded.close()


class TestShardedEmulatorStandalone:
    def test_invalid_worker_and_batch_counts(self):
        single, _sharded = None, None
        build, _install = EXAMPLE_APPS["l2l3_acl"]
        from repro.nic.emulator import NicEmulator

        emulator = NicEmulator(build(), EMULATED_NIC)
        with pytest.raises(ValueError, match="n_workers"):
            ShardedEmulator(emulator, 0)
        with pytest.raises(ValueError, match="batch"):
            ShardedEmulator(emulator, 1, batch=0)

    def test_invalid_transport_and_ring_slots(self):
        build, _install = EXAMPLE_APPS["l2l3_acl"]
        from repro.nic.emulator import NicEmulator

        emulator = NicEmulator(build(), EMULATED_NIC)
        # The transport choice is gone, not defaulted.
        with pytest.raises(TypeError, match="transport"):
            ShardedEmulator(emulator, 1, transport="shm")
        with pytest.raises(ValueError, match="ring_slots"):
            ShardedEmulator(emulator, 1, ring_slots=0)
