"""The five workloads, each driven through the program's public entry points.

A workload is a closed loop with one client: a *cycle* replays a slice
of traffic and then asks for a replan, and the next cycle starts when
the previous one has returned. The benchmark times the calls from
outside; nothing here reaches into the program beyond public functions,
attributes and the counters it already exposes.

With tracing off a cycle calls exactly what the CLI and the daemon
call. With tracing on the same calls are made with spans around each
layer; on the one-core replay workloads the benchmark then runs
``NicEmulator.replay``'s batch loop itself so that generating, encoding
and replaying a batch are three separate spans.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from multiprocessing import resource_tracker
from typing import Iterator, Optional

import oracle
from tracing import Trace

import repro.core.controller as controller_module
import repro.traffic.scenarios as scenarios_module
from repro.apps import EXAMPLE_APPS
from repro.core import Deployment, Pipeleon
from repro.core.controller import PipeleonController, plan_ops
from repro.core.sharded import ShardedDeployment
from repro.nic.columnar import ColumnBatch
from repro.nic.stats import RunStats
from repro.nic.targets import get_target
from repro.service.session import ServeSession, SessionConfig, stats_payload
from repro.traffic.flows import synth_flows
from repro.traffic.generator import TrafficGenerator

TARGET = "bluefield2"
BATCH = 4096
#: Batches replayed inside every set-up so that lazily compiled tiers
#: and worker-side kernels are built before anything is timed.
SETUP_WARM_BATCHES = 2
#: Offset between a run's traffic seed and its verification seed.
VERIFY_SEED_OFFSET = 1_000_003

DEMOTION_REASONS = (
    "cache-record",
    "cascade",
    "migrated",
    "unsupported",
    "input",
    "traced",
)


@dataclass
class Cycle:
    """What one cycle offered, what came back, and how long it took
    by the wall clock."""

    offered: int = 0
    accounted: int = 0
    replay_s: float = 0.0
    #: One entry per replan asked for after a replay.
    replan_ms: list[float] = field(default_factory=list)
    #: Busy seconds of each shard worker during the replay (fleets
    #: driven directly; a serve session does not expose them).
    worker_busy_s: Optional[list[float]] = None


@dataclass
class Verdict:
    """Outcome of the interpreter check on the verification stream."""

    problems: list[str]
    offered: int
    #: The system's ``stats_payload`` on the verification stream: the
    #: modeled-NIC numbers, a pure function of plan and seed.
    payload: dict


def timed(call):
    """``(call(), wall seconds it took)``."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def stop_child_processes() -> None:
    """Stop and wait for every process this interpreter started.

    A closed workload has joined its shard workers already; any still
    alive (a close that raised half-way) is killed here. What then
    remains is the helper process `multiprocessing.shared_memory` starts
    with the first ring and keeps until the interpreter exits: it would
    outlive the run by the moment it takes to notice. Stopping it closes
    its pipe and waits for it; the next ring starts a new one.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


# Per-layer metric prefixes of layers a workload never enters. A traced
# run reports 0 for these and refuses to report 0 for anything else, so
# a span that stops firing is an error and not a quiet zero.
STATIC_PLAN_LAYERS = ("core.pipeleon.",)
ONE_CORE_LAYERS = (
    "nic.columnar.encode.",
    "nic.emulator.replay_batch.",
    "nic.columnar.kernel.",
    "nic.columnar.engine_self.",
    "nic.columnar.compile.",
    "core.deployment.build.",
)
FLEET_LAYERS = ("nic.sharding.", "nic.shm_transport.")
SERVE_LAYERS = (
    "service.",
    "traffic.scenarios.",
    "nic.control_plane.action.",
    "core.controller.",
    "core.deployment.materialized_updates",
    "telemetry.",
)


def chunked(stream, trace: Trace, size: int = BATCH) -> Iterator:
    """``stream`` unchanged, pulled ``size`` packets at a time inside a
    ``traffic.generator`` span (one span per packet would cost more than
    the packet)."""
    iterator = iter(stream)
    while True:
        with trace.span("traffic.generator"):
            chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield from chunk


def tier_counts(emulator) -> dict[str, float]:
    """Cumulative columnar-tier and flow-cache counters of a one-core or
    sharded emulator (both expose the same attribute names)."""
    counts = {
        "nic.columnar.packets": emulator.columnar_packets,
        "nic.columnar.partitions": emulator.columnar_partitions,
    }
    demotions = emulator.columnar_demotions
    for reason in DEMOTION_REASONS:
        counts[f"nic.columnar.demoted.{reason}"] = demotions.get(reason, 0)
    caches = cache_stats(emulator).values()
    counts["flow_cache.hits"] = sum(stats.hits for stats in caches)
    counts["flow_cache.lookups"] = sum(stats.lookups for stats in caches)
    return counts


def cache_stats(emulator) -> dict:
    merged = getattr(emulator, "cache_stats", None)
    if merged is not None:
        return merged
    return {name: cache.stats for name, cache in emulator.flow_caches.items()}


def fleet_counts(emulator) -> dict[str, float]:
    """Cumulative transport and supervision counters of a shard fleet."""
    totals = emulator.transport_stats()["totals"]
    return {
        "nic.shm_transport.pushed_batches": totals["pushed_batches"],
        "nic.shm_transport.stalls": totals["stalls"],
        "nic.shm_transport.pipe_fallbacks": (
            totals["fallback_encoding"] + totals["fallback_capacity"]
        ),
        "nic.sharding.respawns": emulator.total_respawns,
        "nic.sharding.lost_packets": emulator.lost_packets,
    }


def deployed_gauges(plan, emulator) -> dict[str, float]:
    """Values read once after the traced cycles, not differenced."""
    gauges = {
        "nic.flow_cache.caches": len(cache_stats(emulator)),
        "core.search.plan_gain_ns": (
            float(plan.total_gain_ns) if plan is not None else 0.0
        ),
        "core.plan.ops": len(plan_ops(plan)),
    }
    if hasattr(emulator, "transport_stats"):
        gauges["nic.shm_transport.max_occupancy"] = (
            emulator.transport_stats()["totals"]["max_occupancy"]
        )
    return gauges


# ---------------------------------------------------------------------------
# Replay workloads: `repro replay` on one core or a two-worker fleet
# ---------------------------------------------------------------------------


class ReplayWorkload:
    """Seeded traffic through a deployment, then profile and search."""

    def __init__(
        self,
        trace: Trace,
        *,
        app: str,
        optimized: bool,
        flows: int,
        locality: str,
        jobs: int,
        cycle_batches: int,
        cycles_per_s: float,
    ):
        self.trace = trace
        self.optimized = optimized
        self.n_flows = flows
        self.locality = locality
        self.jobs = jobs
        #: Batches per cycle. Short cycles (0.2-0.5 s at the baseline)
        #: give a run dozens of samples for its median; the fleet keeps
        #: longer replays because each one pays a fixed begin/end
        #: barrier.
        self.cycle_batches = cycle_batches
        #: Cycles per second at the baseline, rounded: sizes the traced
        #: run, whose work is fixed so that its counts repeat exactly.
        self.cycles_per_s = cycles_per_s
        self.target = get_target(TARGET)
        self.pipeleon = Pipeleon(self.target)
        self.build, self.install = EXAMPLE_APPS[app]
        self.plan = None
        self.deployment = None
        self._stack = ExitStack()
        #: Layers this configuration never enters.
        self.unused = SERVE_LAYERS + (
            ONE_CORE_LAYERS if jobs > 1 else FLEET_LAYERS
        )
        if not optimized:
            self.unused += STATIC_PLAN_LAYERS

    # -- building ----------------------------------------------------------

    def _deploy(self, stack: ExitStack, engine: str, jobs: int):
        """Deploy the way ``repro replay`` and the controller do."""
        trace = self.trace
        program = self.build()
        if jobs > 1:
            with trace.span("nic.sharding.fork"):
                deployment = ShardedDeployment(
                    program,
                    self.target,
                    n_workers=jobs,
                    plan=self.plan,
                    batch=BATCH,
                    transport="shm",
                    engine=engine,
                )
            stack.callback(deployment.close)
        elif self.plan is not None:
            with trace.span("core.deployment.build"):
                controller = PipeleonController(
                    program,
                    self.target,
                    baseline_plan=self.plan,
                    enabled=False,
                    engine=engine,
                )
            stack.callback(controller.close)
            deployment = controller.deployment
        else:
            with trace.span("core.deployment.build"):
                deployment = Deployment(program, self.target, engine=engine)
            stack.callback(deployment.close)
        with trace.span("nic.control_plane.install"):
            self.install(deployment.control_plane)
        return deployment

    def _stream(self, generator: TrafficGenerator, packets: int):
        return generator.stream(
            self.flows, packets, locality=self.locality, zipf_skew=1.2
        )

    def set_up(self, seed: int) -> None:
        trace = self.trace
        if self.optimized:
            with trace.span("core.pipeleon.optimize"):
                self.plan = self.pipeleon.optimize(self.build())
        self.deployment = self._deploy(self._stack, "auto", self.jobs)
        if self.jobs == 1:
            with trace.span("nic.columnar.compile"):
                # Both tiers compile lazily on first use; `auto` needs
                # the closure tier too, for demoted packets.
                self.deployment.emulator.columnar
                self.deployment.emulator.fastpath
        self.flows = synth_flows(self.n_flows)
        self.generator = TrafficGenerator(seed=seed)
        with trace.span("setup.warm_up"), trace.paused():
            self.deployment.replay(
                self._stream(self.generator, SETUP_WARM_BATCHES * BATCH),
                batch=BATCH,
            )

    def warm_up(self) -> None:
        """A few untimed cycles so flow caches and pools are full."""
        for _ in range(3):
            self.cycle()

    def close(self) -> None:
        self._stack.close()
        self.deployment = None

    # -- verification ------------------------------------------------------

    def verify(self, seed: int) -> Verdict:
        """Fresh system and interpreter twin on the same-seed stream."""
        system_stream, twin_stream = (
            self._stream(
                TrafficGenerator(seed=seed + VERIFY_SEED_OFFSET),
                oracle.VERIFY_PACKETS,
            )
            for _ in range(2)
        )
        with ExitStack() as stack, self.trace.paused():
            system = self._deploy(stack, "auto", self.jobs)
            stats = system.replay(system_stream, batch=BATCH)
            payload = stats_payload(stats, self.target)
            twin = self._deploy(stack, "interp", 1)
            expected = oracle.expect_replay(twin, twin_stream, BATCH)
        return Verdict(
            oracle.mismatches(payload, expected),
            oracle.VERIFY_PACKETS,
            payload,
        )

    # -- one cycle ---------------------------------------------------------

    def cycle(self) -> Cycle:
        offered = self.cycle_batches * BATCH
        stream = self._stream(self.generator, offered)
        stats, replay_s = timed(lambda: self._replay(stream))
        busy = None
        if self.jobs > 1:
            busy = list(self.deployment.emulator.worker_busy_s)
        _, replan_s = timed(self._replan)
        return Cycle(offered, stats.packets, replay_s, [replan_s * 1e3], busy)

    def _replay(self, stream) -> RunStats:
        trace = self.trace
        if self.jobs > 1:
            with trace.span("nic.sharding.replay"):
                return self.deployment.replay(
                    chunked(stream, trace) if trace.enabled else stream,
                    batch=BATCH,
                )
        if trace.enabled:
            return self._replay_traced(stream)
        return self.deployment.replay(stream, batch=BATCH)

    def _replan(self) -> None:
        """Profile and search as `repro optimize --profile` would; the
        plan is discarded, the deployment stays as it is."""
        with self.trace.span("core.profiling.collect"):
            profile = self.deployment.profile()
        with self.trace.span("core.search.optimize"):
            self.pipeleon.optimize(self.deployment.original, profile)

    def _replay_traced(self, stream) -> RunStats:
        """``NicEmulator.replay``'s loop with a span around each layer."""
        trace = self.trace
        emulator = self.deployment.emulator
        iterator = iter(stream)
        stats = RunStats()
        while True:
            with trace.span("traffic.generator"):
                packets = list(islice(iterator, BATCH))
            if not packets:
                return stats
            with trace.span("nic.columnar.encode"):
                # None when the batch is not SoA-uniform; the engine
                # then takes the list and demotes it (reason `input`).
                batch = ColumnBatch.from_packets(packets)
            with trace.span("nic.emulator.replay_batch"):
                emulator.replay_batch(
                    batch if batch is not None else packets,
                    stats,
                    engine=self.deployment.engine,
                )

    # -- counters the program already keeps --------------------------------

    def counts(self) -> dict[str, float]:
        """Cumulative counters; the runner reports their growth."""
        emulator = self.deployment.emulator
        counts = tier_counts(emulator)
        if self.jobs > 1:
            counts.update(fleet_counts(emulator))
            return counts
        engine = emulator.columnar
        counts["nic.columnar.kernel.node_visits"] = sum(
            engine.node_packets.values()
        )
        for node, seconds in engine.node_time_s.items():
            counts[f"kernel.node_s.{node}"] = seconds
        return counts

    def gauges(self) -> dict[str, float]:
        return deployed_gauges(self.plan, self.deployment.emulator)


# ---------------------------------------------------------------------------
# Adaptation workload: `repro serve` under rolling updates and bursts
# ---------------------------------------------------------------------------

#: One rotation: each scenario cut to three one-second phases, so every
#: rotation replays one slice of each and samples are like for like.
ROTATION = (
    ("update_storm", {"calm_s": 1.0, "storm_s": 1.0, "settle_s": 1.0}),
    ("ddos_burst", {"pre_s": 1.0, "attack_s": 1.0, "post_s": 1.0}),
    ("flash_crowd", {"steady_s": 1.0, "spike_s": 1.0, "decay_s": 1.0}),
)
PACKETS_PER_TICK = 3000
TICKS_PER_REPLAY = 3
#: Rotations before replans settle: the first few replans meet empty
#: profiles or accept a plan and redeploy (5-20 ms or a fleet restart),
#: later ones run the full search and keep the deployed plan.
ADAPT_WARM_ROTATIONS = 3


class AdaptWorkload:
    """A serve session replaying scenario slices, replanning after each.

    A cycle is one rotation: three replays, each followed by a replan.
    """

    jobs = 2
    cycles_per_s = 0.5
    #: The session forks and drives its fleet itself, and streams from
    #: scenario phases, not from a `TrafficGenerator` of the benchmark's.
    unused = (
        STATIC_PLAN_LAYERS
        + ONE_CORE_LAYERS
        + (
            "traffic.generator.",
            "nic.control_plane.install.",
            "nic.sharding.fork.",
            "nic.sharding.replay.",
            "nic.sharding.worker_busy_",
            "nic.sharding.parent_overhead_",
            "nic.sharding.busy_imbalance",
        )
    )

    def __init__(self, trace: Trace):
        self.trace = trace
        self.target = get_target(TARGET)
        self.session: Optional[ServeSession] = None
        self._stack = ExitStack()
        self._replays = 0
        self.replans = 0
        self.replans_accepted = 0

    def _config(self, profile_period_s: float) -> SessionConfig:
        return SessionConfig(
            app="dash_routing",
            target=TARGET,
            jobs=self.jobs,
            baseline="none",
            profile_period_s=profile_period_s,
        )

    def set_up(self, seed: int) -> None:
        trace = self.trace
        self.seed = seed
        self._replays = 0
        with trace.span("service.session.start"):
            # Replans happen only when a cycle asks for one.
            self.session = ServeSession(self._config(1e9))
        self._stack.callback(self.session.close)
        if trace.enabled:
            self._instrument()
        with trace.span("setup.warm_up"), trace.paused():
            self.cycle()

    def warm_up(self) -> None:
        for _ in range(ADAPT_WARM_ROTATIONS - 1):
            self.cycle()
        self.replans = self.replans_accepted = 0

    def close(self) -> None:
        self._stack.close()
        self.session = None

    def _instrument(self) -> None:
        """Spans around the layers `run_replay`/`run_optimize` call into.

        `run_replay` resolves its scenario in the public registry
        `repro.traffic.scenarios.SCENARIO_BUILDERS`, and
        `maybe_reoptimize` searches through
        `repro.core.controller.optimize`; the rotation's registry
        entries and that name are replaced for the traced run and put
        back by `close`. Should either stop being the way in, the
        traced run fails for want of the span.
        """
        trace = self.trace
        builders = scenarios_module.SCENARIO_BUILDERS
        original = {name: builders[name] for name, _ in ROTATION}
        search = controller_module.optimize
        controller = self.session.controller

        def traced_scenario(build, **kwargs):
            scenario = build(**kwargs)
            for phase in scenario.phases:
                make_stream = phase.stream_factory
                # `scenario_tick` lists the stream at once, so listing
                # it here puts the generator's work inside the span.
                phase.stream_factory = trace.wrap(
                    "traffic.scenarios.stream",
                    lambda n, make=make_stream: list(make(n)),
                )
                if phase.control_action is not None:
                    phase.control_action = trace.wrap(
                        "nic.control_plane.action", phase.control_action
                    )
            return scenario

        def undo():
            builders.update(original)
            controller_module.optimize = search
            del controller.collect_profile

        for name, build in original.items():
            builders[name] = partial(traced_scenario, build)
        controller_module.optimize = trace.wrap("core.search.optimize", search)
        controller.collect_profile = trace.wrap(
            "core.profiling.collect", controller.collect_profile
        )
        self._stack.callback(undo)

    # -- verification ------------------------------------------------------

    def verify(self, seed: int) -> Verdict:
        config = self._config(oracle.ADAPT_PROFILE_PERIOD_S)
        storm_seed = str(seed + VERIFY_SEED_OFFSET)
        with self.trace.paused():
            session = ServeSession(config)
            try:
                result = session.run_replay(
                    {
                        "scenario": oracle.ADAPT_SCENARIO,
                        "seed": storm_seed,
                        "packets_per_tick": oracle.ADAPT_PACKETS_PER_TICK,
                        "kwargs": oracle.ADAPT_KWARGS,
                    }
                )
                payload = result["stats"]
                payload["reoptimizations"] = (
                    session.controller.reoptimizations
                )
            finally:
                session.close()
            build, install = EXAMPLE_APPS[config.app]
            expected = oracle.expect_adapt(
                build(), install, self.target, storm_seed, config
            )
        offered = result["ticks"] * oracle.ADAPT_PACKETS_PER_TICK
        return Verdict(oracle.mismatches(payload, expected), offered, payload)

    # -- one cycle = one rotation -----------------------------------------

    def cycle(self) -> Cycle:
        cycle = Cycle()
        for scenario, kwargs in ROTATION:
            params = {
                "scenario": scenario,
                "seed": f"{self.seed}:{self._replays}",
                "packets_per_tick": PACKETS_PER_TICK,
                "kwargs": kwargs,
            }
            self._replays += 1
            result, replay_s = timed(lambda: self._run_replay(params))
            cycle.replay_s += replay_s
            cycle.offered += TICKS_PER_REPLAY * PACKETS_PER_TICK
            cycle.accounted += result["stats"]["packets"]
            outcome, replan_s = timed(self._run_optimize)
            cycle.replan_ms.append(replan_s * 1e3)
            self.replans += 1
            self.replans_accepted += bool(outcome["changed"])
        return cycle

    def _run_replay(self, params: dict) -> dict:
        with self.trace.span("service.session.run_replay"):
            return self.session.run_replay(params)

    def _run_optimize(self) -> dict:
        with self.trace.span("service.session.run_optimize"):
            return self.session.run_optimize({})

    # -- counters the program already keeps --------------------------------

    def counts(self) -> dict[str, float]:
        deployment = self.session.controller.deployment
        counts = tier_counts(deployment.emulator)
        counts.update(fleet_counts(deployment.emulator))
        counts["core.deployment.materialized_updates"] = sum(
            deployment.materialized_updates.values()
        )
        report = self.session.run_report({})
        counts["telemetry.live.flight_rows"] = report["flight_rows"]
        counts["telemetry.live.slo_breaches"] = report["slo_breaches_seen"]
        counts["core.controller.replans"] = self.replans
        counts["core.controller.replans_accepted"] = self.replans_accepted
        return counts

    def gauges(self) -> dict[str, float]:
        controller = self.session.controller
        return deployed_gauges(
            controller.current_plan, controller.deployment.emulator
        )


#: name -> constructor taking the run's Trace. Every
#: workload runs on the bluefield2 target model with 512-byte packets,
#: `engine="auto"` and batches of 4096.
WORKLOADS = {
    "base_lowcard": partial(
        ReplayWorkload,
        app="l2l3_acl",
        optimized=False,
        flows=1024,
        locality="zipf",
        jobs=1,
        cycle_batches=8,
        cycles_per_s=5,
    ),
    "base_highcard": partial(
        ReplayWorkload,
        app="l2l3_acl",
        optimized=False,
        flows=20_000,
        locality="uniform",
        jobs=1,
        cycle_batches=2,
        cycles_per_s=5,
    ),
    "opt_highcard": partial(
        ReplayWorkload,
        app="dash_routing",
        optimized=True,
        flows=20_000,
        locality="zipf",
        jobs=1,
        cycle_batches=1,
        cycles_per_s=2,
    ),
    "sharded_2w": partial(
        ReplayWorkload,
        app="l2l3_acl",
        optimized=False,
        flows=1024,
        locality="zipf",
        jobs=2,
        cycle_batches=24,
        cycles_per_s=2,
    ),
    "adapt_storm": AdaptWorkload,
}
