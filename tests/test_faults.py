"""Fault injection and supervised recovery for the sharded runtime.

The contract under test (DESIGN.md §12): scripted worker failures —
kill, hang, delay, drop_reply — injected at deterministic points in the
packet stream are detected by the supervisor within its configured
timeouts, classified correctly, and recovered per policy:

* ``respawn`` rebuilds the shard from its last checkpoint and the
  journal since, and the merged run stats stay **bit-identical** to a
  fault-free twin;
* ``degraded`` reroutes the lost shard's future flows to survivors and
  accounts the lost packets;
* ``fail`` raises a diagnosable :class:`EmulationError` in bounded time
  (no indefinite hangs, including during ``close()``).
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.apps import EXAMPLE_APPS
from repro.core import Deployment, Pipeleon
from repro.errors import EmulationError
from repro.nic.faults import (
    AUTO_PACKET_SPAN,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    parse_fault,
)
from repro.nic import sharding
from repro.nic.emulator import NicEmulator
from repro.nic.sharding import (
    ShardedEmulator,
    ShardJournal,
    SupervisorOptions,
)
from repro.nic.shm_transport import ShardChannel
from repro.nic.targets import BLUEFIELD2, EMULATED_NIC
from repro.telemetry import Telemetry
from repro.telemetry.live import LiveFeed, LiveOptions
from repro.traffic import TrafficGenerator
from repro.traffic.flows import synth_flows
from repro.traffic.scenarios import rolling_update_action
from tests.test_nic_sharding import (
    app_packets,
    assert_sharded_identical,
    perturb_control_plane,
    stats_fingerprint,
)

#: Tight supervision for tests: failures classify in ~a second, not a
#: minute, and close() never dawdles.
def fast_options(**overrides) -> SupervisorOptions:
    base = dict(
        recv_timeout_s=5.0,
        slow_after_s=0.2,
        heartbeat_interval_s=0.01,
        send_timeout_s=1.0,
        send_retries=2,
        backoff_base_s=0.01,
        close_timeout_s=0.5,
    )
    base.update(overrides)
    return SupervisorOptions(**base)


def make_sharded(
    app: str,
    n_workers: int,
    *,
    options: SupervisorOptions,
    fault_plan=None,
    telemetry=None,
    engine: str = "auto",
    batch: int = 256,
) -> Deployment:
    build, install = EXAMPLE_APPS[app]
    sharded = Deployment(
        build(),
        EMULATED_NIC,
        jobs=n_workers,
        batch=batch,
        supervisor=options,
        fault_plan=fault_plan,
        telemetry=telemetry,
        engine=engine,
    )
    install(sharded.control_plane)
    return sharded


def make_single(app: str) -> Deployment:
    build, install = EXAMPLE_APPS[app]
    single = Deployment(build(), EMULATED_NIC)
    install(single.control_plane)
    return single


def event_kinds(telemetry: Telemetry, prefix: str = "") -> list[str]:
    return [
        e["kind"]
        for e in telemetry.events.events()
        if e["kind"].startswith(prefix)
    ]


class TestParseFault:
    def test_full_spec_round_trips(self):
        spec = parse_fault("kill:shard=1,batch=3")
        assert spec == FaultSpec("kill", shard=1, at_batch=3)
        assert parse_fault(spec.describe()) == spec

    def test_packet_position(self):
        spec = parse_fault("hang:shard=0,packet=500")
        assert spec.at_packet == 500 and spec.at_batch is None

    def test_delay_seconds(self):
        spec = parse_fault("delay:shard=2,batch=1,seconds=0.5")
        assert spec.delay_s == 0.5
        assert parse_fault("delay:delay=0.25").delay_s == 0.25

    def test_bare_kind_defers_to_auto_placement(self):
        spec = parse_fault("kill")
        assert spec.at_batch is None and spec.at_packet is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="Unknown fault kind"):
            parse_fault("explode:shard=0")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault("kill:shard")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="Unknown fault parameter"):
            parse_fault("kill:core=0")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="not both"):
            FaultSpec("kill", at_batch=1, at_packet=1)
        with pytest.raises(ValueError, match="shard"):
            FaultSpec("kill", shard=-1)
        with pytest.raises(ValueError, match="at_batch"):
            FaultSpec("kill", at_batch=-1)


class TestFaultPlan:
    def test_auto_placement_is_deterministic(self):
        specs = (FaultSpec("kill", shard=1), FaultSpec("hang"))
        first = FaultPlan(specs, seed=7)
        second = FaultPlan(specs, seed=7)
        assert first.specs == second.specs
        for spec in first.specs:
            assert 0 <= spec.at_packet < AUTO_PACKET_SPAN

    def test_explicit_positions_pass_through(self):
        spec = FaultSpec("kill", shard=0, at_batch=5)
        assert FaultPlan((spec,), seed=9).specs == (spec,)

    def test_from_args_and_shard_filters(self):
        plan = FaultPlan.from_args(
            ["kill:shard=0,batch=1", "hang:shard=2,batch=0"], seed=3
        )
        assert len(plan) == 2 and bool(plan)
        assert plan.max_shard() == 2
        assert [s.kind for s in plan.for_shard(2)] == ["hang"]
        assert plan.for_shard(1) == ()
        assert not FaultPlan()

    def test_plan_shard_out_of_range_rejected_by_emulator(self):
        build, install = EXAMPLE_APPS["l2l3_acl"]
        plan = FaultPlan((FaultSpec("kill", shard=5, at_batch=0),))
        with pytest.raises(ValueError, match="shard 5"):
            Deployment(
                build(), EMULATED_NIC, jobs=2, fault_plan=plan
            )

    def test_plan_at_one_core_rejected_by_deployment(self):
        """One core has no shard worker to fault: an error, not a
        silently unarmed plan — for a controller's deployment too."""
        from repro.core import PipeleonController

        build, _install = EXAMPLE_APPS["l2l3_acl"]
        plan = FaultPlan((FaultSpec("kill", shard=0, at_batch=0),))
        with pytest.raises(ValueError, match="fault plan needs jobs > 1"):
            Deployment(build(), EMULATED_NIC, fault_plan=plan)
        with pytest.raises(ValueError, match="fault plan needs jobs > 1"):
            PipeleonController(build(), EMULATED_NIC, fault_plan=plan)


class TestFaultInjector:
    def test_batch_trigger_fires_once_at_position(self):
        injector = FaultInjector(
            [FaultSpec("drop_reply", at_batch=2)]
        )
        injector.before_batch(10)
        injector.before_batch(10)
        assert injector.should_reply()  # not fired yet
        injector.before_batch(10)  # batch index 2: fires
        assert not injector.should_reply()  # suppressed exactly once
        assert injector.should_reply()
        injector.before_batch(10)  # one-shot: no re-fire
        assert injector.should_reply()

    def test_packet_trigger(self):
        injector = FaultInjector(
            [FaultSpec("drop_reply", at_packet=25)]
        )
        injector.before_batch(20)  # packets 0..19
        assert injector.should_reply()
        injector.before_batch(20)  # crosses packet 25
        assert not injector.should_reply()


class TestRespawnRecovery:
    """recovery='respawn': rebuilt shards converge to the exact
    pre-failure state, so merged stats are bit-identical to a
    fault-free run."""

    def run_pair(self, fault_plan, telemetry=None, **option_overrides):
        options = fast_options(
            recovery="respawn", **option_overrides
        )
        single = make_single("l2l3_acl")
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=options,
            fault_plan=fault_plan,
            telemetry=telemetry,
        )
        try:
            reference = single.replay(
                app_packets(7, 600), offered_pps=1e6, batch=32
            )
            replayed = sharded.replay(
                app_packets(7, 600), offered_pps=1e6, batch=32
            )
            return single, sharded, reference, replayed
        except BaseException:
            sharded.close()
            raise

    def test_kill_respawn_bit_identical(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            (FaultSpec("kill", shard=0, at_batch=3),)
        )
        single, sharded, reference, replayed = self.run_pair(
            plan, telemetry
        )
        try:
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
            assert sharded.emulator.respawns == [1, 0]
            assert sharded.emulator.total_respawns == 1
            kinds = event_kinds(telemetry)
            assert "worker_dead" in kinds
            assert "worker_respawned" in kinds
            assert "worker_recovered" in kinds
            assert telemetry.registry.value(
                "pipeleon_worker_respawns_total", shard=0
            ) == 1
            assert telemetry.registry.value(
                "pipeleon_worker_faults_total", kind="dead", shard=0
            ) == 1
        finally:
            sharded.close()

    @pytest.mark.parametrize("batch", [64, 1024])
    def test_kill_past_ring_depth_respawns_identical(
        self, batch, monkeypatch
    ):
        """Regression: a worker killed at batch 40 — deeper into the
        replay than any ring — is rebuilt from its journal. (The
        result ring this fleet used to have filled up during the
        journal replay, which the parent does not drain while sending,
        and the respawn died with "journal replay stalled".)

        The same run pins the supervisor's second progress word:
        while the reborn worker chews through the journal over the
        pipe, the data ring's consumer cursor stands still and the
        finished-batches word counts every replayed batch.
        """
        tokens: list = []
        real_replay_journal = ShardedEmulator._replay_journal

        def watching_replay_journal(self, shard):
            tokens.append(self._progress_token(shard))  # fresh ring
            real_replay_journal(self, shard)
            batches = self._journals[shard].batches
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                token = self._progress_token(shard)
                if token != tokens[-1]:
                    tokens.append(token)
                if token[1] >= batches:
                    break
                time.sleep(0.0005)
            tokens.append(("journal_batches", batches))

        monkeypatch.setattr(
            ShardedEmulator, "_replay_journal", watching_replay_journal
        )

        def packets():
            # ~2/3 of this traffic hashes to shard 0: >= 50 batches.
            return app_packets(7, 80 * batch)

        single = make_single("l2l3_acl")
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(recovery="respawn"),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=40),)
            ),
            batch=batch,
        )
        try:
            reference = single.replay(packets(), batch=batch)
            replayed = sharded.replay(packets(), batch=batch)
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
            assert sharded.emulator.respawns == [1, 0]
        finally:
            sharded.close()
        *observed, (_, journal_batches) = tokens
        assert journal_batches >= 40
        assert {consumed for consumed, _ in observed} == {0}
        assert observed[0] == (0, 0)
        assert observed[-1] == (0, journal_batches)

    def test_kill_after_control_updates_converges_epoch(self):
        # The journal retains every control broadcast, so a respawned
        # worker converges to the pre-failure epoch too — collect()
        # asserts every worker acked the latest epoch.
        single = make_single("l2l3_acl")
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(recovery="respawn"),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=1, at_batch=2),)
            ),
        )
        try:
            perturb_control_plane(single)
            perturb_control_plane(sharded)
            reference = single.replay(
                app_packets(9, 600), offered_pps=1e6, batch=32
            )
            replayed = sharded.replay(
                app_packets(9, 600), offered_pps=1e6, batch=32
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert sharded.emulator.epoch > 0
            sharded.emulator.collect()  # asserts epoch ack
            assert_sharded_identical(single, sharded)
        finally:
            sharded.close()

    def test_hang_escalates_to_respawn_identical(self):
        telemetry = Telemetry()
        plan = FaultPlan((FaultSpec("hang", shard=0, at_batch=2),))
        start = time.monotonic()
        single, sharded, reference, replayed = self.run_pair(
            plan, telemetry, recv_timeout_s=1.0
        )
        try:
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert sharded.emulator.respawns == [1, 0]
            assert "worker_hung" in event_kinds(telemetry)
            # Detection is deadline-bounded, not indefinite.
            assert time.monotonic() - start < 30.0
        finally:
            sharded.close()

    def test_drop_reply_starves_recv_then_respawns(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            (FaultSpec("drop_reply", shard=1, at_batch=0),)
        )
        single, sharded, reference, replayed = self.run_pair(
            plan, telemetry, recv_timeout_s=1.0
        )
        try:
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert sharded.emulator.respawns == [0, 1]
            assert "worker_hung" in event_kinds(telemetry)
        finally:
            sharded.close()

    def test_delay_reports_slow_without_escalating(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            (
                FaultSpec(
                    "delay", shard=0, at_batch=1, delay_s=0.6
                ),
            )
        )
        single, sharded, reference, replayed = self.run_pair(
            plan, telemetry
        )
        try:
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert sharded.emulator.respawns == [0, 0]
            kinds = event_kinds(telemetry)
            assert "worker_slow" in kinds
            assert "worker_respawned" not in kinds
            recovered = telemetry.events.last("worker_recovered")
            assert recovered is not None
            assert recovered["state"] == "slow"
        finally:
            sharded.close()

    def test_respawn_budget_exhaustion_raises(self):
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(
                recovery="respawn", max_respawns=0
            ),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=0),)
            ),
        )
        try:
            with pytest.raises(
                EmulationError, match="respawn budget exhausted"
            ):
                sharded.replay(
                    app_packets(7, 600), offered_pps=1e6, batch=32
                )
        finally:
            sharded.close()

    def test_journal_recovery_is_exact(self):
        """A kill several batches into the journal loses nothing: there
        is no journal horizon past which recovery turns approximate."""
        telemetry = Telemetry()
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(recovery="respawn"),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=5),)
            ),
            telemetry=telemetry,
        )
        try:
            stats = sharded.replay(
                app_packets(7, 600), offered_pps=1e6, batch=32
            )
            assert sharded.emulator.respawns == [1, 0]
            assert stats.packets == 600
            assert "journal_truncated" not in event_kinds(telemetry)
            respawned = telemetry.events.last("worker_respawned")
            assert respawned["checkpoint_epoch"] == 0  # construction
            # The five batches it retired, the one it died on, and
            # what the parent dispatched before noticing.
            assert respawned["suffix_batches"] >= 6
            assert respawned["suffix_bytes"] > 0
            assert "truncated" not in respawned
        finally:
            sharded.close()


@pytest.fixture
def checkpoint_every_barrier(monkeypatch):
    """Every ``end``/``collect`` barrier checkpoints (the journal is
    always past a one-byte threshold)."""
    monkeypatch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", 1)


CHECKPOINT_FLOWS = synth_flows(200)


def shard_batches(fleet, shard: int = 0) -> int:
    """Batches dispatched to ``shard`` so far (every one rides the
    ring)."""
    return fleet.ring_stats[shard]["pushed_batches"]


#: Low enough that each cache's insertion token bucket runs dry.
CHECKPOINT_INSERTION_PPS = 40.0


def checkpoint_session(*, fault_plan=None, before_last=None, kill=False):
    """``dash_routing`` under its Pipeleon plan on a two-worker respawn
    fleet, its flow caches behind a binding insertion limit (so the
    token bucket is state a recovery must get right): three zipf
    replays. In front of the last one ``before_last(deployment)`` may
    return a replacement deployment, then ``kill`` SIGKILLs shard 0.

    Returns what must match a fault-free twin, and the session's
    respawns, shard 0's batch count before the last replay and its
    telemetry."""
    build, install = EXAMPLE_APPS["dash_routing"]
    program = build()
    telemetry = Telemetry()
    deployment = Deployment(
        program,
        BLUEFIELD2,
        plan=Pipeleon(BLUEFIELD2).optimize(program),
        jobs=2,
        batch=64,
        supervisor=fast_options(recovery="respawn"),
        fault_plan=fault_plan,
        telemetry=telemetry,
        cache_insertion_limit_pps=CHECKPOINT_INSERTION_PPS,
    )
    install(deployment.control_plane)
    replays = []
    try:
        for seed in range(3):
            if seed == 2:
                batches_before_last = shard_batches(deployment.emulator)
                if before_last is not None:
                    deployment = before_last(deployment) or deployment
                if kill:
                    victim = deployment.emulator._procs[0]
                    victim.kill()
                    victim.join(timeout=10.0)
            stream = TrafficGenerator(seed).stream(
                CHECKPOINT_FLOWS, 1500, locality="zipf"
            )
            replays.append(
                stats_fingerprint(deployment.replay(stream, offered_pps=1e6))
            )
        fleet = deployment.emulator
        fleet.collect()
        observed = {
            "replays": replays,
            "counters": fleet.counters.snapshot(),
            "explicit": fleet.explicit_counters,
            "cache_stats": {
                name: vars(stats) for name, stats in fleet.cache_stats.items()
            },
            "columnar_packets": fleet.columnar_packets,
            # Every worker's cache contents, in LRU order.
            "caches": [
                {name: list(store.items()) for name, store in stores.items()}
                for stores, _native, _tables in fleet.dump_caches()
            ],
            "epoch": fleet.epoch,
        }
        return observed, fleet.respawns, batches_before_last, telemetry
    finally:
        deployment.close()


def redeploy_same_plan(deployment):
    """A ``swap``: the same plan into the same fleet, caches kept warm."""
    return Deployment(
        deployment.original,
        BLUEFIELD2,
        plan=deployment.plan,
        control_plane=deployment.control_plane,
        previous=deployment,
        jobs=2,
        batch=64,
        cache_insertion_limit_pps=CHECKPOINT_INSERTION_PPS,
    )


class TestCheckpointRecovery:
    """A respawn swaps to the shard's last barrier checkpoint, restores
    its state and replays only the journal since: every kill below ends
    where a fault-free twin does — stats, merged counters and cache
    stats, and every worker's cache contents in LRU order."""

    @pytest.fixture(scope="class")
    def clean(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", 1)
            observed, respawns, before_last, _ = checkpoint_session()
        assert respawns == [0, 0]
        assert observed["caches"][0]  # warm caches to get right
        assert all(  # and a token bucket that ran dry
            stats["rejected_insertions"]
            for stats in observed["cache_stats"].values()
        )
        return observed, before_last

    def recovered(self, telemetry, checkpoint_epoch=None) -> dict:
        """The respawn restored a barrier checkpoint, not construction."""
        respawned = telemetry.events.last("worker_respawned")
        assert respawned["checkpoint_epoch"] > 0
        if checkpoint_epoch is not None:
            assert respawned["checkpoint_epoch"] == checkpoint_epoch
        return respawned

    def test_kill_after_the_kth_checkpoint(
        self, checkpoint_every_barrier, clean
    ):
        reference, before_last = clean
        killed, respawns, _, telemetry = checkpoint_session(
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=before_last + 2),)
            )
        )
        assert respawns == [1, 0]
        assert killed == reference
        respawned = self.recovered(telemetry, reference["epoch"])
        # Only the last replay's batches are replayed: its begin, the
        # two the worker retired and the one it died on, and what the
        # parent dispatched before noticing.
        assert 3 <= respawned["suffix_batches"] < before_last

    def test_kill_after_an_entries_update_since_the_checkpoint(
        self, checkpoint_every_barrier
    ):
        def update(deployment):
            rolling_update_action(entries_per_tick=2)(deployment, 0.0)

        reference, *_ = checkpoint_session(before_last=update)
        killed, respawns, _, telemetry = checkpoint_session(
            before_last=update, kill=True
        )
        assert respawns == [1, 0]
        assert killed == reference
        respawned = self.recovered(telemetry)
        assert respawned["checkpoint_epoch"] < reference["epoch"]

    def test_kill_after_a_swap_since_the_checkpoint(
        self, checkpoint_every_barrier
    ):
        reference, *_ = checkpoint_session(before_last=redeploy_same_plan)
        killed, respawns, _, telemetry = checkpoint_session(
            before_last=redeploy_same_plan, kill=True
        )
        assert respawns == [1, 0]
        assert killed == reference
        respawned = self.recovered(telemetry)
        assert respawned["checkpoint_epoch"] < reference["epoch"]
        assert respawned["suffix_messages"] >= 2  # the swap and begin

    def test_restore_reads_like_the_checkpointed_emulator(self):
        """Field by field, what a respawned worker rebuilds: a blank
        emulator swapped to the spec and restored from the pickled
        checkpoint reads like the one checkpointed, clock included
        (an unpaced replay inserts at the clock's time)."""
        build, install = EXAMPLE_APPS["dash_routing"]
        program = build()
        deployment = Deployment(
            program,
            BLUEFIELD2,
            plan=Pipeleon(BLUEFIELD2).optimize(program),
            cache_insertion_limit_pps=CHECKPOINT_INSERTION_PPS,
        )
        install(deployment.control_plane)
        stream = TrafficGenerator(3).stream(CHECKPOINT_FLOWS, 1500)
        deployment.replay(stream, offered_pps=1e6)
        emulator = deployment.emulator
        # A spec reused from an earlier barrier: its clock is stale.
        spec = sharding._swap_spec(emulator)
        emulator.clock.advance(0.25)
        # A worker's live feed, part way through its life.
        life = (7, 3, 11, {"input": 2})
        emulator.live_feed = LiveFeed(lambda *_: True, LiveOptions())
        emulator.live_feed.restore((*life, None), emulator)
        state, saved = pickle.loads(
            pickle.dumps(
                (
                    sharding._worker_state(emulator),
                    sharding._checkpoint(emulator),
                )
            )
        )
        blank = NicEmulator(emulator.program, emulator.target)
        blank.live_feed = LiveFeed(lambda *_: True, LiveOptions())
        fresh = sharding._swapped(blank, spec)
        sharding._restore(fresh, state, saved)

        def view(em):
            caches = {
                name: (
                    list(cache.items()),
                    vars(cache.stats),
                    vars(cache._limiter),
                )
                for name, cache in em.flow_caches.items()
            }
            return (
                em.clock.now_s,
                em.counters.snapshot(),
                em.counters.packets_seen,
                em.explicit_counters,
                caches,
                em.columnar_packets,
                em.columnar_partitions,
                em.columnar_demotions,
                em.columnar_cache_arrivals,
            )

        assert emulator.flow_caches and emulator.columnar_packets
        assert view(fresh) == view(emulator)
        assert saved["life"][:4] == life
        # The feed moved to the swapped emulator and took the totals,
        # without folding in the columnar ones restored with it.
        assert fresh.live_feed.state(fresh)[:4] == life

    def test_journal_stays_bounded_over_a_session(self, monkeypatch):
        """Past the threshold the next barrier checkpoints: a shard's
        journal never holds more than the threshold plus one replay."""
        threshold = 64 << 10
        monkeypatch.setattr(sharding, "JOURNAL_CHECKPOINT_BYTES", threshold)
        sharded = make_sharded(
            "l2l3_acl", 2, options=fast_options(recovery="respawn")
        )
        try:
            fleet = sharded.emulator
            bases = set()
            for seed in range(12):
                before = [journal.bytes for journal in fleet._journals]
                # Index batches grow the journal (an entry op costs
                # one entry): 2 400 paced packets are about 19 KiB a
                # shard, so the threshold is crossed every few replays.
                sharded.replay(app_packets(seed, 2400), offered_pps=1e6)
                for shard, journal in enumerate(fleet._journals):
                    grown = journal.bytes - before[shard]
                    assert journal.bytes <= threshold + max(grown, 0)
                    bases.add(id(journal.checkpoint))
            per_shard = fleet.transport_stats()["per_shard"]
            assert [s["journal_bytes"] for s in per_shard] == [
                journal.bytes for journal in fleet._journals
            ]
            assert len(bases) > 2  # checkpoints were taken
        finally:
            sharded.close()

    def test_no_journal_no_checkpoint_without_respawn(
        self, checkpoint_every_barrier, monkeypatch
    ):
        """``recovery != "respawn"`` journals nothing, so no barrier
        ever asks for a checkpoint."""
        asked = []
        real = ShardedEmulator._rebase

        def spying_rebase(self, shard, epoch, state, saved):
            asked.append(saved)
            return real(self, shard, epoch, state, saved)

        monkeypatch.setattr(ShardedEmulator, "_rebase", spying_rebase)
        sharded = make_sharded("l2l3_acl", 2, options=fast_options())
        try:
            sharded.replay(app_packets(7, 600), offered_pps=1e6)
            sharded.emulator.collect()
            assert asked and not any(asked)
            per_shard = sharded.emulator.transport_stats()["per_shard"]
            assert [s["journal_bytes"] for s in per_shard] == [0, 0]
        finally:
            sharded.close()


class TestFailFast:
    """recovery='fail' (the default): clear errors in bounded time."""

    def test_hang_detected_within_timeout(self):
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(recv_timeout_s=0.8),
            fault_plan=FaultPlan(
                (FaultSpec("hang", shard=0, at_batch=0),)
            ),
        )
        start = time.monotonic()
        try:
            with pytest.raises(
                EmulationError, match="unresponsive"
            ) as excinfo:
                sharded.replay(
                    app_packets(7, 600), offered_pps=1e6, batch=32
                )
            message = str(excinfo.value)
            assert "repro-shard-0" in message
            assert "recovery='respawn'" in message
        finally:
            close_start = time.monotonic()
            sharded.close()
            # Regression: close() used to block forever on a hung
            # worker's full pipe; it must stay bounded.
            assert time.monotonic() - close_start < 15.0
        assert time.monotonic() - start < 30.0
        assert all(
            not p.is_alive() for p in sharded.emulator._procs
        )

    def test_kill_names_shard_and_exitcode(self):
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=1, at_batch=0),)
            ),
        )
        try:
            with pytest.raises(
                EmulationError, match="died without replying"
            ) as excinfo:
                sharded.replay(
                    app_packets(7, 600), offered_pps=1e6, batch=32
                )
            assert "repro-shard-1" in str(excinfo.value)
        finally:
            sharded.close()

    def test_broadcast_retry_exhaustion(self, monkeypatch):
        # A pipe that never becomes writable exhausts the bounded
        # retry/backoff budget and classifies the worker, instead of
        # blocking the broadcast forever.
        telemetry = Telemetry()
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(
                send_timeout_s=0.05, send_retries=2
            ),
            telemetry=telemetry,
        )
        try:
            monkeypatch.setattr(
                ShardedEmulator,
                "_wait_writable",
                staticmethod(lambda conn, timeout_s: False),
            )
            with pytest.raises(EmulationError, match="unresponsive"):
                sharded.emulator.flush_caches()
            assert telemetry.registry.value(
                "pipeleon_broadcast_retries_total", shard=0
            ) == 2
        finally:
            monkeypatch.undo()
            sharded.close()


class TestDegradedRecovery:
    def test_survivors_absorb_lost_shards_flows(self):
        telemetry = Telemetry()
        total = 600
        sharded = make_sharded(
            "l2l3_acl",
            3,
            options=fast_options(recovery="degraded"),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=1, at_batch=1),)
            ),
            telemetry=telemetry,
        )
        try:
            stats = sharded.replay(
                app_packets(7, total), offered_pps=1e6, batch=32
            )
            # Every packet is either replayed by a survivor or
            # accounted as lost with the dead shard — none vanish.
            assert stats.lost_packets > 0
            assert stats.packets == total - stats.lost_packets
            assert sharded.emulator.degraded_shards == [1]
            assert sharded.emulator.lost_packets == stats.lost_packets
            degraded = telemetry.events.last("shard_degraded")
            assert degraded is not None
            assert degraded["shard"] == 1
            assert degraded["survivors"] == 2
            assert telemetry.registry.value(
                "pipeleon_packets_lost_total", shard=1
            ) == stats.lost_packets
            assert "lost_packets" in stats.summary()
            # The fleet keeps working: a subsequent replay routes the
            # dead shard's flows to survivors from the start and loses
            # nothing further.
            second = sharded.replay(
                app_packets(8, 400), offered_pps=1e6, batch=32
            )
            assert second.packets == 400
            assert second.lost_packets == 0
            assert sharded.emulator.lost_packets == stats.lost_packets
        finally:
            sharded.close()

    def test_all_shards_lost_raises(self):
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(recovery="degraded"),
            fault_plan=FaultPlan(
                (
                    FaultSpec("kill", shard=0, at_batch=0),
                    FaultSpec("kill", shard=1, at_batch=0),
                )
            ),
        )
        try:
            with pytest.raises(EmulationError, match="no survivors"):
                sharded.replay(
                    app_packets(7, 600), offered_pps=1e6, batch=32
                )
        finally:
            sharded.close()


class TestDeathBetweenPublishAndToken:
    """The window the token protocol opens: the record is in the ring,
    the worker dies, the ``ring`` token has not been sent yet."""

    KILL_AT_PUSH = 3
    BATCH = 32
    TOTAL = 600

    def arm(self, monkeypatch, sharded, shard=0):
        """SIGKILL ``shard``'s worker right after its
        ``KILL_AT_PUSH``-th successful ring publish. Returns the ops of
        every message handed to that shard, each beside the ring it
        was addressed to."""
        engine = sharded.emulator
        doomed_ring = engine._channels[shard]
        doomed = engine._procs[shard]
        real_push = ShardChannel.try_push
        real_send = ShardedEmulator._guarded_send
        pushes = 0
        sent: list = []

        def killing_push(channel, *args):
            nonlocal pushes
            published = real_push(channel, *args)
            if published and channel is doomed_ring:
                pushes += 1
                if pushes == self.KILL_AT_PUSH:
                    os.kill(doomed.pid, signal.SIGKILL)
                    doomed.join(timeout=10.0)
            return published

        def spying_send(self, target, message, **kwargs):
            if target == shard:
                sent.append((message[0], self._channels[shard]))
            return real_send(self, target, message, **kwargs)

        monkeypatch.setattr(ShardChannel, "try_push", killing_push)
        monkeypatch.setattr(
            ShardedEmulator, "_guarded_send", spying_send
        )
        return doomed_ring, sent

    def test_respawn_merges_identical_and_owes_no_token(
        self, monkeypatch
    ):
        single = make_single("l2l3_acl")
        sharded = make_sharded(
            "l2l3_acl", 2, options=fast_options(recovery="respawn")
        )
        try:
            doomed_ring, sent = self.arm(monkeypatch, sharded)
            reference = single.replay(
                app_packets(7, self.TOTAL),
                offered_pps=1e6,
                batch=self.BATCH,
            )
            replayed = sharded.replay(
                app_packets(7, self.TOTAL),
                offered_pps=1e6,
                batch=self.BATCH,
            )
            assert stats_fingerprint(replayed) == stats_fingerprint(
                reference
            )
            assert_sharded_identical(single, sharded)
            assert sharded.emulator.respawns == [1, 0]
            # The orphaned record's token was the old ring's last; the
            # journal replay delivered that batch inline, and the fresh
            # ring saw exactly one token per record published to it.
            fresh_ring = sharded.emulator._channels[0]
            assert fresh_ring is not doomed_ring
            tokens = [ring for op, ring in sent if op == "ring"]
            assert tokens.count(doomed_ring) == self.KILL_AT_PUSH
            assert fresh_ring.data.produced > 0
            assert tokens.count(fresh_ring) == fresh_ring.data.produced
            assert fresh_ring.data.consumed == fresh_ring.data.produced
        finally:
            sharded.close()

    def test_degraded_reroutes_the_orphaned_batch(self, monkeypatch):
        sharded = make_sharded(
            "l2l3_acl", 2, options=fast_options(recovery="degraded")
        )
        try:
            self.arm(monkeypatch, sharded)
            stats = sharded.replay(
                app_packets(7, self.TOTAL),
                offered_pps=1e6,
                batch=self.BATCH,
            )
            assert sharded.emulator.degraded_shards == [0]
            # Lost: the batches delivered before the orphaned one. The
            # orphan itself was never delivered (no token), so it was
            # rerouted to the survivor with everything after it.
            assert stats.lost_packets == (
                (self.KILL_AT_PUSH - 1) * self.BATCH
            )
            assert stats.packets == self.TOTAL - stats.lost_packets
            assert sharded.emulator.lost_packets == stats.lost_packets
        finally:
            sharded.close()


class TestDeterminism:
    #: Enough packets that each of the two shards (flows split about
    #: 2:1 here) passes every auto-placed trigger, wherever it lands.
    PACKETS = 4 * AUTO_PACKET_SPAN

    def run_once(self, seed: int):
        telemetry = Telemetry()
        plan = FaultPlan(
            (FaultSpec("kill", shard=0), FaultSpec("hang", shard=1)),
            seed=seed,
        )
        sharded = make_sharded(
            "l2l3_acl",
            2,
            options=fast_options(
                recovery="respawn", recv_timeout_s=1.0
            ),
            fault_plan=plan,
            telemetry=telemetry,
        )
        try:
            stats = sharded.replay(
                app_packets(7, self.PACKETS), offered_pps=1e6, batch=32
            )
            return (
                stats_fingerprint(stats),
                [spec.at_packet for spec in plan.specs],
                event_kinds(telemetry, prefix="worker_"),
            )
        finally:
            sharded.close()

    def test_same_seed_same_failures_same_stats(self):
        first = self.run_once(seed=3)
        second = self.run_once(seed=3)
        assert first == second
        kinds = first[2]
        assert "worker_dead" in kinds and "worker_hung" in kinds


class TestShardJournal:
    def test_counts_array_bytes_and_pickled_messages(self):
        journal = ShardJournal()
        journal.append(("begin",))
        chosen = np.zeros(10, np.int64)
        journal.append(("index", 0, chosen, np.zeros(10)))
        journal.append(("flush", 3))
        assert journal.batches == 1
        assert [op for (op, *_), _size in journal.entries] == [
            "begin", "index", "flush"
        ]
        sizes_seen = [size for _message, size in journal.entries]
        assert sizes_seen[1] == 80 + 80
        assert journal.bytes == sum(sizes_seen)

    def test_rebase_drops_what_the_checkpoint_covers(self):
        journal = ShardJournal()
        for _ in range(3):
            journal.append(("index", 0, np.zeros(0, np.int64), None))
        checkpoint = sharding._Checkpoint({}, 4, {}, {})
        journal.rebase(checkpoint)
        assert journal.checkpoint is checkpoint
        assert (journal.entries, journal.batches, journal.bytes) == ([], 0, 0)
