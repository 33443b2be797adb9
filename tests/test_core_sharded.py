"""``Deployment(jobs=N)`` and controller wiring: profiles, redeploys.

Complements ``test_nic_sharding.py`` (raw engine equivalence) with the
deployment-layer contracts: a fleet's profile (its workers' pooled
counters) must match a single-core deployment's, and the adaptation
loop must work unchanged when ``jobs > 1`` — including redeploys,
which swap the plan into the running workers and keep warm caches
exactly as one core does.
"""

import json
import multiprocessing as mp
from pathlib import Path

import pytest

import repro.core.deployment as deployment_module
from repro.apps import EXAMPLE_APPS, l2l3_acl
from repro.core import (
    ControllerOptions,
    Deployment,
    Pipeleon,
    PipeleonController,
    plan_signature,
    profile_to_json,
)
from repro.core.transform import apply_copy, apply_naive_merge
from repro.ir import exact_entry, linear_program
from repro.nic.emulator import DEFAULT_BATCH
from repro.nic.faults import FaultPlan, FaultSpec
from repro.nic.sharding import ShardedEmulator
from repro.nic.targets import BLUEFIELD2, EMULATED_NIC
from repro.service.session import stats_payload
from repro.telemetry.live import LiveOptions, LivePlane
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator
from repro.traffic.scenarios import build_scenario
from tests.test_core_deployment import merge_plan
from tests.test_faults import fast_options, make_sharded, make_single
from tests.test_nic_sharding import (
    assert_sharded_identical,
    stats_fingerprint,
    table_shapes,
)


def packets(seed: int, n: int = 400):
    flows = synth_flows(64)
    return TrafficGenerator(seed).stream(flows, n, locality="zipf")


def make_pair(n_workers: int = 2):
    single = Deployment(l2l3_acl.build_program(), EMULATED_NIC)
    l2l3_acl.install_base_entries(single.control_plane)
    sharded = Deployment(
        l2l3_acl.build_program(), EMULATED_NIC, jobs=n_workers
    )
    l2l3_acl.install_base_entries(sharded.control_plane)
    return single, sharded


class TestShardMergedProfile:
    def test_profile_matches_single_core(self):
        single, sharded = make_pair(4)
        try:
            single.replay(packets(5), offered_pps=1e6)
            sharded.replay(packets(5), offered_pps=1e6)
            assert profile_to_json(
                sharded.profile(offered_pps=1e6)
            ) == profile_to_json(single.profile(offered_pps=1e6))
        finally:
            sharded.close()

    @pytest.mark.parametrize("seed", [4, 5])
    def test_pooled_counters_not_averaged_probabilities(self, seed):
        """Regression: per-shard profiles recombined as
        ``(c1/w1*w1 + c2/w2*w2) / (w1+w2)`` are not ``(c1+c2) /
        (w1+w2)`` in floating point — on this stream
        ``action_probs["acl_vm"]["acl_vm_deny"]`` came out an ulp low
        on three workers. The profile is one core's at any ``jobs``."""
        build, install = EXAMPLE_APPS["acl_chain"]
        profiles = []
        for jobs in (1, 2, 3):
            with Deployment(
                build(), EMULATED_NIC, jobs=jobs, batch=512
            ) as deployment:
                install(deployment.control_plane)
                deployment.replay(
                    TrafficGenerator(seed=seed).stream(
                        synth_flows(700), 7001, locality="zipf"
                    )
                )
                profiles.append(profile_to_json(deployment.profile()))
        assert profiles[1] == profiles[0]
        assert profiles[2] == profiles[0]

    @pytest.mark.parametrize("app", ["dash_routing", "load_balancer"])
    def test_optimized_plan_profile_equals_one_core(self, app):
        """Pipeleon's own plan, caches included, in the equivalence
        regime of ``nic/sharding.py``: capacity >= live flows, no
        insertion limit, every cache key produced by one flow only."""
        build, install = EXAMPLE_APPS[app]
        flows = [
            flow.with_fields(
                **{f"ipv4.reg{i}": (k << 8) + i for i in range(8)}
            )
            for k, flow in enumerate(synth_flows(300))
        ]
        profiles = []
        for jobs in (1, 2, 3):
            program = build()
            with Deployment(
                program,
                BLUEFIELD2,
                plan=Pipeleon(BLUEFIELD2).optimize(program),
                cache_insertion_limit_pps=1e12,
                jobs=jobs,
            ) as deployment:
                install(deployment.control_plane)
                deployment.replay(
                    TrafficGenerator(seed=4).stream(
                        flows, 3001, locality="zipf"
                    ),
                    offered_pps=1e6,
                )
                profile = deployment.profile(offered_pps=2.5e5)
                assert profile.offered_pps == 2.5e5
                assert profile.cache_hit_rates  # a cache plan
                profiles.append(profile_to_json(profile))
        assert profiles[1] == profiles[0]
        assert profiles[2] == profiles[0]

    def test_degraded_fleet_profiles_its_survivors(self):
        """A shard lost under ``recovery="degraded"`` takes its
        counters with it: the profile is what the survivors replayed,
        and once they carry every flow it is one core's again."""
        sharded = make_sharded(
            "l2l3_acl",
            3,
            options=fast_options(recovery="degraded"),
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=1, at_batch=1),)
            ),
        )
        single = make_single("l2l3_acl")
        try:
            stats = sharded.replay(
                packets(7, n=600), offered_pps=1e6, batch=32
            )
            assert stats.lost_packets > 0
            sharded.profile()
            fleet = sharded.emulator
            assert len(fleet.worker_states) == 2
            root = sharded.original.root
            assert stats.packets == sum(
                count
                for key, count in fleet.counters.snapshot().items()
                if key[:2] == ("action", root)
            )
            sharded.reset_telemetry()
            sharded.replay(packets(8), offered_pps=1e6, batch=32)
            single.replay(packets(8), offered_pps=1e6, batch=32)
            assert profile_to_json(sharded.profile()) == (
                profile_to_json(single.profile())
            )
        finally:
            sharded.close()

    def test_profile_support_counts_pool(self):
        _, sharded = make_pair(2)
        try:
            sharded.replay(packets(6, n=200))
            profile = sharded.profile()
            # What backs each probability is the sampled observations
            # pooled over shards: at stride 1, each table's support is
            # the traffic that reached it, bounded by the stream size.
            support: dict[str, float] = {}
            for key, count in sharded.emulator.counters.snapshot().items():
                if key[0] == "action":
                    support[key[1]] = support.get(key[1], 0) + count
            assert set(support) == set(profile.action_probs)
            for observed in support.values():
                assert 0 < observed <= 200
        finally:
            sharded.close()


class TestFleetLifecycle:
    def test_close_detaches_listener_and_workers(self):
        _, sharded = make_pair(2)
        listeners = sharded.control_plane._listeners
        assert sharded._on_update in listeners
        sharded.close()
        assert sharded._on_update not in listeners
        assert sharded.emulator._closed
        sharded.close()  # idempotent

    def test_context_manager(self):
        with Deployment(
            l2l3_acl.build_program(), EMULATED_NIC, jobs=2
        ) as sharded:
            l2l3_acl.install_base_entries(sharded.control_plane)
            stats = sharded.replay(packets(1, n=50))
            assert stats.packets == 50
        assert sharded.emulator._closed

    def test_run_is_replay(self):
        single, sharded = make_pair(2)
        try:
            reference = single.run(packets(9, n=100), offered_pps=1e6)
            replayed = sharded.run(packets(9, n=100), offered_pps=1e6)
            assert replayed.packets == reference.packets
            assert (
                replayed.total_latency_ns == reference.total_latency_ns
            )
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Update path: one listener, materialise -> template -> broadcast
# ---------------------------------------------------------------------------

UP = [f"up_t{i}" for i in range(7)]
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_update_path.json").read_text()
)


@pytest.fixture
def every_update_route(monkeypatch):
    """Deployments built under this fixture hold one table per update
    route: ``up_t0``/``up_t6`` mirror directly, ``up_t1`` also into a
    ``copy_of`` table, ``up_t2``/``up_t3`` also into a ``MERGED``
    node's cross product (the plan's own op), and ``up_t4``/``up_t5``
    only into the ``naive_merge_of`` table that replaced them. No plan
    op produces the copy or the naive merge, so they ride on
    ``apply_plan``."""
    real = deployment_module.apply_plan

    def apply(original, plan, **options):
        result = real(original, plan, **options)
        result.absorb(apply_copy(result.program, UP[1]))
        result.absorb(apply_naive_merge(result.program, UP[4:6]))
        return result

    monkeypatch.setattr(deployment_module, "apply_plan", apply)


def update_twins(supervisor=None):
    return [
        Deployment(
            linear_program("up", 7),
            EMULATED_NIC,
            plan=merge_plan(UP, UP[2:4]),
            jobs=jobs,
            batch=32,
            supervisor=supervisor,
        )
        for jobs in (1, 2)
    ]


def update_script(deployment):
    """Apply the scripted control-plane sequence one event at a time;
    after each, yield how many runtime tables it re-materialises."""
    control_plane = deployment.control_plane
    ids = {}

    def insert(table, value):
        ids[table] = control_plane.insert_entry(
            table, exact_entry(value, f"{table}_a0")
        )

    def modify(table, value):
        entry = exact_entry(value, f"{table}_a0")
        control_plane.modify_entry(table, ids[table], entry)
        ids[table] = entry.entry_id

    for table, value, tables in (
        (UP[0], 1, 1),  # direct
        (UP[1], 2, 2),  # direct + copy
        (UP[2], 3, 2),  # direct + MERGED node
        (UP[3], 1, 2),
        (UP[4], 2, 1),  # naive merge only: the original is gone
        (UP[5], 4, 1),
    ):
        insert(table, value)
        yield tables
    modify(UP[1], 3)
    yield 2
    modify(UP[3], 0)
    yield 2
    modify(UP[4], 1)
    yield 1
    control_plane.delete_entry(UP[2], ids[UP[2]])
    yield 2
    control_plane.delete_entry(UP[5], ids[UP[5]])
    yield 1
    control_plane.delete_entry(UP[0], ids[UP[0]])
    yield 1
    control_plane.flush_caches()
    yield 0


def update_traffic(step: int):
    flows = [
        flow.with_fields(
            **{f"ipv4.f{i}": (k * (i + 2)) % 5 for i in range(7)}
        )
        for k, flow in enumerate(synth_flows(40))
    ]
    return TrafficGenerator(seed=step).stream(flows, 150, locality="zipf")


def journal_ops(fleet: ShardedEmulator) -> list[list[str]]:
    """Per shard, each journaled message as ``op[:table][@epoch]``.

    The golden sequence predates flow-index dispatch: an ``index``
    batch reads as the ``batch`` it replaced, and the ``flows`` message
    is checked here and left out. Every step's traffic is one flow set
    (equal flows, so the process-wide keeper hands back one matrix):
    it crosses once, right after the first ``begin``."""
    def describe(message):
        op = message[0]
        if op == "entries":
            return f"entries:{message[1]}@{message[3]}"
        if op == "invalidate":
            return f"invalidate:{message[1]}@{message[2]}"
        if op == "flush":
            return f"flush@{message[1]}"
        if op == "index":
            return "batch"
        return op

    sequences = []
    for journal in fleet._journals:
        ops = [describe(message) for message, _n in journal.entries]
        flows = [i for i, op in enumerate(ops) if op == "flows"]
        assert flows == [ops.index("begin") + 1]
        sequences.append([op for op in ops if op != "flows"])
    return sequences


def drive_update_script(single, sharded, kill_after=None) -> dict:
    """Run the script on both twins, checking the jobs-1-vs-2 contract
    after every event; returns what the golden file records."""
    fleet = sharded.emulator
    steps = zip(update_script(single), update_script(sharded))
    epoch = fleet.epoch
    for step, (tables, _same) in enumerate(steps):
        assert fleet.epoch - epoch == tables + 1, step
        epoch = fleet.epoch
        assert sharded.materialized_updates == single.materialized_updates
        if step == kill_after:
            victim = fleet._procs[0]
            victim.kill()
            victim.join(timeout=10.0)
        reference = single.replay(update_traffic(step), offered_pps=1e6)
        replayed = sharded.replay(update_traffic(step), offered_pps=1e6)
        assert stats_fingerprint(replayed) == stats_fingerprint(
            reference
        ), step
        assert fleet.counters.snapshot() == (
            single.emulator.counters.snapshot()
        ), step
        template = table_shapes(
            {
                name: runtime.entries()
                for name, runtime in fleet.template.runtime_tables.items()
            }
        )
        assert template == table_shapes(
            {
                name: runtime.entries()
                for name, runtime in single.emulator.runtime_tables.items()
            }
        ), step
        for _stores, _native, tables in fleet.dump_caches():
            assert table_shapes(tables) == template, step
    totals = fleet.transport_stats()["totals"]
    return {
        "journals": journal_ops(fleet),
        "materialized_updates": sharded.materialized_updates,
        "transport": {"pushed_batches": totals["pushed_batches"]},
    }


class TestUpdatePath:
    """Insert / modify / delete / flush over every update route, on
    ``Deployment(jobs=1)`` and ``Deployment(jobs=2)`` side by side."""

    def test_layout_has_every_route(self, every_update_route):
        single, sharded = update_twins()
        with sharded:
            program = sharded.program
            assert sharded.emulator.runtime_tables is (
                sharded.emulator.template.runtime_tables
            )
            assert set(sharded.emulator.runtime_tables) == set(
                single.emulator.runtime_tables
            )
        copies = [
            t.name for t in program.tables()
            if t.annotations.get("copy_of") == UP[1]
        ]
        naive = [
            t.name for t in program.tables()
            if t.annotations.get("naive_merge_of") == UP[4:6]
        ]
        assert len(copies) == len(naive) == 1
        assert [n.name for n in sharded._merged_nodes] == [
            f"merged__{UP[2]}__{UP[3]}", naive[0]
        ]
        assert UP[4] not in program.nodes and UP[0] in program.nodes

    def test_fleet_tracks_one_core_and_the_parent_commits_messages(
        self, every_update_route
    ):
        """The per-shard message sequence (ops and epochs, read from the
        respawn journals) and the transport / amplification counters
        are the ones recorded at the commit before the fleet became a
        drop-in emulator (``golden_update_path.json``)."""
        single, sharded = update_twins(fast_options(recovery="respawn"))
        with sharded:
            assert drive_update_script(single, sharded) == GOLDEN
            assert sharded.emulator.respawns == [0, 0]

    def test_journal_replay_rebuilds_the_same_tables(
        self, every_update_route
    ):
        single, sharded = update_twins(fast_options(recovery="respawn"))
        with sharded:
            observed = drive_update_script(single, sharded, kill_after=6)
            assert sharded.emulator.respawns == [1, 0]
            # The journal is parent-side: a respawn replays it, it does
            # not rewrite it.
            assert observed["journals"] == GOLDEN["journals"]
            assert observed["materialized_updates"] == (
                GOLDEN["materialized_updates"]
            )


# ---------------------------------------------------------------------------
# Redeploy: one path for every jobs, warm caches carried by the workers
# ---------------------------------------------------------------------------

REG_FLOWS = [
    flow.with_fields(**{f"ipv4.reg{i}": (k << 8) + i for i in range(8)})
    for k, flow in enumerate(synth_flows(300))
]


def redeploy_twin(jobs, supervisor=None, fault_plan=None):
    """``dash_routing`` under Pipeleon's plan in the sharding
    equivalence regime (as in ``test_optimized_plan_profile_equals_
    one_core``): replay, redeploy the same plan with ``previous=``,
    replay again. Returns the redeployed deployment (caller closes)
    and both replays' stats."""
    build, install = EXAMPLE_APPS["dash_routing"]
    program = build()
    plan = Pipeleon(BLUEFIELD2).optimize(program)
    options = dict(cache_insertion_limit_pps=1e12, jobs=jobs)
    first = Deployment(
        program,
        BLUEFIELD2,
        plan=plan,
        supervisor=supervisor,
        fault_plan=fault_plan,
        **options,
    )
    install(first.control_plane)
    replays = [
        first.replay(
            TrafficGenerator(seed=4).stream(REG_FLOWS, 3001, locality="zipf"),
            offered_pps=1e6,
        )
    ]
    second = Deployment(
        program,
        BLUEFIELD2,
        plan=plan,
        control_plane=first.control_plane,
        previous=first,
        **options,
    )
    assert first._closed  # taken over, not torn down
    replays.append(
        second.replay(
            TrafficGenerator(seed=5).stream(REG_FLOWS, 3001, locality="zipf"),
            offered_pps=1e6,
        )
    )
    return second, replays


def cache_state(deployment) -> dict:
    return {
        name: vars(stats)
        for name, stats in deployment.emulator.cache_stats.items()
    }


def worker_caches(fleet: Deployment) -> list:
    """Per worker: cache stores in LRU order, native store, tables."""
    return [
        (
            {name: list(store.items()) for name, store in stores.items()},
            native,
            table_shapes(tables),
        )
        for stores, native, tables in fleet.emulator.dump_caches()
    ]


class TestFleetRedeploy:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_fleet_matches_one_core_across_a_redeploy(self, jobs):
        single, single_replays = redeploy_twin(1)
        fleet, fleet_replays = redeploy_twin(jobs)
        with fleet:
            assert single.carried_caches  # the plan's cache stays warm
            assert fleet.carried_caches == single.carried_caches
            for replayed, reference in zip(fleet_replays, single_replays):
                assert stats_fingerprint(replayed) == (
                    stats_fingerprint(reference)
                )
            assert profile_to_json(fleet.profile()) == profile_to_json(
                single.profile()
            )
            assert cache_state(fleet) == cache_state(single)
            assert_sharded_identical(single, fleet)

    def test_swap_then_kill_recovers_bit_identically(self):
        """Shard 0 dies at its first batch after the swap: the respawn
        forks the birth template and replays the journal, swap
        included, so every worker ends where the fault-free twin's
        did."""
        options = fast_options(recovery="respawn")
        clean, clean_replays = redeploy_twin(2, supervisor=options)
        with clean:
            ops = [m[0] for m, _ in clean.emulator._journals[0].entries]
            first_after_swap = ops[: ops.index("swap")].count("index")
            clean_caches = worker_caches(clean)
            clean_counters = clean.emulator.counters.snapshot()
        killed, killed_replays = redeploy_twin(
            2,
            supervisor=options,
            fault_plan=FaultPlan(
                (FaultSpec("kill", shard=0, at_batch=first_after_swap),)
            ),
        )
        with killed:
            assert killed.emulator.respawns == [1, 0]
            for replayed, reference in zip(killed_replays, clean_replays):
                assert stats_fingerprint(replayed) == (
                    stats_fingerprint(reference)
                )
            assert killed.emulator.counters.snapshot() == clean_counters
            assert killed.carried_caches == clean.carried_caches
            assert worker_caches(killed) == clean_caches

    def test_jobs_must_match_the_data_plane_taken_over(self):
        single = make_single("l2l3_acl")
        with pytest.raises(ValueError, match="jobs=2"):
            Deployment(
                single.original,
                EMULATED_NIC,
                control_plane=single.control_plane,
                previous=single,
                jobs=2,
            )
        assert not single._closed


class TestControllerJobs:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            PipeleonController(
                l2l3_acl.build_program(), EMULATED_NIC, jobs=0
            )

    def test_sharded_controller_matches_single(self):
        reference_controller = PipeleonController(
            l2l3_acl.build_program(), EMULATED_NIC, enabled=False
        )
        sharded_controller = PipeleonController(
            l2l3_acl.build_program(), EMULATED_NIC, enabled=False, jobs=2
        )
        try:
            assert isinstance(
                sharded_controller.deployment.emulator, ShardedEmulator
            )
            for controller in (
                reference_controller,
                sharded_controller,
            ):
                l2l3_acl.install_base_entries(controller.control_plane)
            reference = reference_controller.deployment.replay(
                packets(13), offered_pps=1e6
            )
            replayed = sharded_controller.deployment.replay(
                packets(13), offered_pps=1e6
            )
            assert replayed.packets == reference.packets
            assert replayed.dropped == reference.dropped
            assert (
                replayed.total_latency_ns == reference.total_latency_ns
            )
            assert replayed._busy_ns == reference._busy_ns
        finally:
            sharded_controller.deployment.close()

    def test_fleet_controller_plans_what_one_core_plans(self):
        """``adapt_storm``'s scenario (shortened as the e2e oracle
        does): every replan of a two-worker controller sees the profile
        a one-core controller sees — the whole record, which the
        per-shard merge did not give — so the plans, their gains to
        the last bit and the replan ticks are equal; and since an
        accepted plan keeps the same caches warm on both, so is every
        tick's merged stats fingerprint."""
        build, install = EXAMPLE_APPS["dash_routing"]
        timelines = []
        for jobs in (1, 2):
            with PipeleonController(
                build(),
                BLUEFIELD2,
                options=ControllerOptions(profile_period_s=3.0),
                jobs=jobs,
            ) as controller:
                install(controller.control_plane)
                controller.start_scenario()
                scenario = build_scenario(
                    "update_storm",
                    seed="7",
                    calm_s=5.0,
                    storm_s=6.0,
                    settle_s=5.0,
                )
                timeline = []
                for time_s, phase in scenario.ticks():
                    _, stats = controller.scenario_tick(time_s, phase, 500)
                    plan = controller.current_plan
                    timeline.append(
                        (
                            stats_payload(stats)["fingerprint"],
                            controller.reoptimizations,
                            plan and plan.total_gain_ns,
                            plan and plan_signature(plan),
                            controller.last_profile
                            and profile_to_json(controller.last_profile),
                        )
                    )
                timelines.append(timeline)
        assert timelines[0][-1][1] >= 1  # it did accept a replan
        assert timelines[1] == timelines[0]

    def test_replay_batch_above_ring_geometry(self):
        """``replay(batch=2 * DEFAULT_BATCH)`` on a fleet whose rings
        hold ``DEFAULT_BATCH``-packet batches is dispatched at the
        ring's batch (a longer batch would not fit a slot and go over
        the pipe), and says so."""
        single = Deployment(l2l3_acl.build_program(), EMULATED_NIC)
        l2l3_acl.install_base_entries(single.control_plane)
        controller = PipeleonController(
            l2l3_acl.build_program(),
            EMULATED_NIC,
            enabled=False,
            jobs=2,
        )
        try:
            l2l3_acl.install_base_entries(controller.control_plane)
            fleet = controller.deployment.emulator
            assert fleet.batch == DEFAULT_BATCH
            reference = single.replay(
                packets(17, n=9000), batch=2 * DEFAULT_BATCH
            )
            replayed = controller.deployment.replay(
                packets(17, n=9000), batch=2 * DEFAULT_BATCH
            )
            assert replayed.packets == reference.packets == 9000
            assert replayed.total_latency_ns == reference.total_latency_ns
            assert replayed._busy_ns == reference._busy_ns
            transport = fleet.transport_stats()
            assert transport["batch"] == DEFAULT_BATCH
            assert transport["clamped_replays"] == 1
            assert transport["totals"]["pushed_packets"] == 9000
            controller.deployment.replay(packets(18, n=500), batch=64)
            assert fleet.transport_stats()["clamped_replays"] == 1
        finally:
            controller.deployment.close()

    def test_redeploy_is_shard_wide(self):
        """An accepted plan forks nothing: it reaches every running
        worker as one swap message, and processes, rings and the live
        plane's adoption are the ones the controller started with."""
        plane = LivePlane(LiveOptions(interval_s=0.05)).start()
        controller = PipeleonController(
            l2l3_acl.build_program(),
            EMULATED_NIC,
            jobs=2,
            options=ControllerOptions(profile_period_s=1.0),
            live_plane=plane,
        )
        try:
            l2l3_acl.install_base_entries(controller.control_plane)
            controller.deployment.replay(packets(2), offered_pps=1e6)
            previous = controller.deployment
            fleet = previous.emulator

            def processes():
                return (
                    [process.pid for process in fleet._procs],
                    [channel.data.name for channel in fleet._channels],
                    sorted(child.pid for child in mp.active_children()),
                )

            before = processes()
            epoch = fleet.epoch
            # No plan deployed yet: any plan is a change.
            assert controller.maybe_reoptimize()
            assert controller.deployment is not previous
            assert previous._closed and not fleet._closed
            assert controller.deployment.emulator is fleet
            assert fleet.epoch == epoch + 1  # one swap broadcast
            assert processes() == before
            assert plane.aggregator.emulator is fleet
            stats = controller.deployment.replay(
                packets(3, n=100), offered_pps=1e6
            )
            assert stats.packets == 100
            # The plane's counters run on across the redeploy.
            plane.aggregator.flush()
            assert plane.aggregator.sample()["packets"] == 400 + 100
        finally:
            controller.close()
            plane.stop()
        assert fleet._closed
