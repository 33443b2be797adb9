"""The Pipeleon runtime: periodic profiling and re-optimization (§5.3).

The controller owns a :class:`Deployment`, collects a profile every
``profile_period_s`` emulated seconds, recomputes the optimization plan
from the *original* program, and redeploys when the plan structurally
changes — reordering on drop-rate shifts, dropping caches when insertion
bursts wreck their hit rates, reversing merges whose source tables grew
or churn too much, exactly the adaptation loop of Figure 11. A redeploy
is ``Deployment(previous=...)`` at every ``jobs``: the data plane —
one emulator, or one fleet for the controller's lifetime — takes the
new plan in place and keeps every cache whose shape it leaves alone.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from repro.core.costmodel import CostModel
from repro.core.deployment import Deployment
from repro.core.plan import OptimizationPlan, ResourceBudget
from repro.core.profiling import RuntimeProfile
from repro.core.search import (
    SearchMemo,
    SearchOptions,
    evaluate_plan_gain,
    optimize,
)
from repro.ir.program import Program
from repro.nic.control_plane import ControlPlane, SimClock
from repro.nic.packet import Packet
from repro.nic.targets import TargetModel
from repro.traffic.scenarios import Scenario


def plan_signature(plan: OptimizationPlan) -> tuple:
    """Structural identity of a plan (ignores estimated gains)."""
    return tuple(
        sorted(
            (
                c.pipelet_id,
                c.order,
                tuple((s.op, s.tables) for s in c.segments),
            )
            for c in plan.candidates
        )
    )


def plan_ops(plan: Optional[OptimizationPlan]) -> set:
    """The plan's active transforms as ``(pipelet, op, tables)`` keys.

    Diffing two plans' op sets is how the event log names what a
    redeploy actually did: a ``cache`` op present before but not after
    is a dropped cache, a vanished ``merge`` op is a reversed merge.
    """
    if plan is None:
        return set()
    return {
        (c.pipelet_id, s.op, s.tables)
        for c in plan.candidates
        for s in c.segments
        if s.op != "none"
    }


@dataclass(frozen=True)
class ControllerOptions:
    profile_period_s: float = 5.0
    offered_pps: float = 1e6
    update_window_s: float = 10.0
    #: Replace the estimated hit rate with the measured one when replanning.
    adapt_hit_rates: bool = True
    #: Redeploy only when the new plan beats the deployed one by this
    #: relative margin (hysteresis against profile noise; redeploying
    #: cold-starts every cache whose shape the new plan changes).
    replan_margin: float = 0.1


@dataclass
class TimePoint:
    """One emulated second of a scenario run."""

    time_s: float
    throughput_gbps: float
    mean_latency_ns: float
    phase: str
    reoptimized: bool = False
    plan: str = ""


class PipeleonController:
    """Closed-loop runtime optimizer around one deployment."""

    def __init__(
        self,
        program: Program,
        target: TargetModel,
        budget: Optional[ResourceBudget] = None,
        search: Optional[SearchOptions] = None,
        options: Optional[ControllerOptions] = None,
        model: Optional[CostModel] = None,
        clock: Optional[SimClock] = None,
        enabled: bool = True,
        sample_stride: int = 1,
        native_cache: Optional[bool] = None,
        baseline_plan: Optional[OptimizationPlan] = None,
        jobs: int = 1,
        telemetry=None,
        supervisor=None,
        fault_plan=None,
        engine: str = "auto",
        live_plane=None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.telemetry = telemetry
        #: Worker supervision policy + scripted faults of the fleet the
        #: first deployment forks; every redeploy swaps its plan into
        #: that same fleet, so faults count batches across redeploys.
        self.supervisor = supervisor
        self.fault_plan = fault_plan
        #: Execution tier every deployment this controller builds
        #: replays through ("auto"|"interp").
        self.engine = engine
        self.original = program
        self.target = target
        self.budget = budget or ResourceBudget()
        self.search = search or SearchOptions()
        self.options = options or ControllerOptions()
        self.model = model or CostModel.for_target(target)
        self.enabled = enabled
        self.clock = clock or SimClock()
        self.control_plane = ControlPlane(program, self.clock)
        self._sample_stride = sample_stride
        self._native_cache = native_cache
        #: Number of shard workers; 1 keeps the in-process data plane.
        self.jobs = jobs
        #: Shared daemon-lifetime telemetry plane (``repro serve``): the
        #: controller's one fleet adopts into it and releases it at
        #: :meth:`close`.
        self.live_plane = live_plane
        self.deployment = self._make_deployment(baseline_plan)
        self.current_plan: Optional[OptimizationPlan] = baseline_plan
        self.last_profile: Optional[RuntimeProfile] = None
        self.reoptimizations = 0
        #: Replans re-search only the hot pipelets whose inputs moved.
        self.search_memo = SearchMemo()
        #: Attached SLO watchdog (see :meth:`attach_slo_watchdog`).
        self.slo_watchdog = None
        self.slo_breaches_seen = 0
        self.slo_breaches_suppressed = 0
        self._slo_lock = threading.Lock()
        self._slo_pending = False
        #: Breach scopes (``rule`` or ``rule:shard``, the watchdog's
        #: episode keys) whose pending episode already scheduled a
        #: replan. A second breach of the same scope before its clear —
        #: e.g. the breach re-latching while the scheduled replan is
        #: still queued behind an in-flight replay batch — is
        #: suppressed: one consume per episode.
        self._slo_consumed_scopes: set[str] = set()
        self._closed = False

    # -- SLO subscription ---------------------------------------------------

    def attach_slo_watchdog(self, watchdog) -> None:
        """Subscribe to a live SLO watchdog's breach/clear events.

        Each ``slo_breach`` schedules an *immediate* re-optimization:
        the next :meth:`run_scenario` tick profiles and replans without
        waiting out ``profile_period_s`` — the paper's SLA-triggered
        adaptation, as opposed to the periodic loop. Events land from
        the aggregator thread, so scheduling state is lock-protected,
        and triggering is idempotent *per episode*: a breach scope that
        has already scheduled a replan schedules nothing more until its
        ``slo_clear`` arrives, no matter how many times the breach
        re-fires while the replan is queued behind an in-flight replay
        batch (the double-breach-under-kill case).
        """
        self.slo_watchdog = watchdog
        watchdog.subscribe(self._on_slo_event)

    @staticmethod
    def _slo_scope(event: dict) -> str:
        """The watchdog's episode key: ``rule`` or ``rule:shard``."""
        rule = event.get("rule", "")
        shard = event.get("shard")
        return rule if shard is None else f"{rule}:{shard}"

    def _on_slo_event(self, event: dict) -> None:
        kind = event.get("kind")
        scope = self._slo_scope(event)
        if kind == "slo_clear":
            # Episode over: the scope may consume a replan again.
            with self._slo_lock:
                self._slo_consumed_scopes.discard(scope)
            return
        if kind != "slo_breach":
            return
        with self._slo_lock:
            self.slo_breaches_seen += 1
            if scope in self._slo_consumed_scopes:
                self.slo_breaches_suppressed += 1
                suppressed = True
            else:
                self._slo_consumed_scopes.add(scope)
                self._slo_pending = True
                suppressed = False
        self._emit(
            "slo_reoptimize_suppressed"
            if suppressed
            else "slo_reoptimize_scheduled",
            rule=event.get("rule"),
            shard=event.get("shard"),
            value=event.get("value"),
        )

    def consume_slo_trigger(self) -> bool:
        """True once per pending breach-triggered replan request."""
        with self._slo_lock:
            pending = self._slo_pending
            self._slo_pending = False
        return pending

    # -- re-optimization --------------------------------------------------------

    def collect_profile(self) -> RuntimeProfile:
        return self.deployment.profile(
            update_window_s=self.options.update_window_s,
            offered_pps=self.options.offered_pps,
        )

    def cell_snapshot(self) -> dict:
        """Deterministic runtime facts for one DSE run-database record.

        Everything here is a pure function of (config, seed) — no wall
        clocks — so resumed sweeps reproduce it bit-identically.
        """
        plan = self.current_plan
        return {
            "jobs": self.jobs,
            "engine": self.engine,
            "enabled": self.enabled,
            "reoptimizations": self.reoptimizations,
            "plan": plan.describe() if plan is not None else None,
            "plan_gain_ns": (
                float(plan.total_gain_ns) if plan is not None else 0.0
            ),
            "plan_memory_bytes": (
                float(plan.total_memory_bytes) if plan is not None else 0.0
            ),
            "plan_update_pps": (
                float(plan.total_update_pps) if plan is not None else 0.0
            ),
        }

    def _emit(self, kind: str, **fields) -> None:
        """Record a controller decision (no-op without telemetry)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.events.emit(kind, **fields)
        telemetry.registry.inc(
            "pipeleon_controller_decisions_total",
            help="Controller decisions by kind",
            kind=kind,
        )

    def maybe_reoptimize(self) -> bool:
        """Profile, re-search, redeploy if the best plan changed."""
        if not self.enabled:
            return False
        start = time.perf_counter()
        profile = self.collect_profile()
        collect_wall_s = time.perf_counter() - start
        self.last_profile = profile
        self._emit(
            "profile_collected",
            collect_wall_s=collect_wall_s,
            offered_pps=profile.offered_pps,
            caches_observed=len(profile.cache_hit_rates),
            tables_profiled=len(profile.entry_counts),
        )
        if self.deployment.emulator.counters.packets_seen == 0:
            # No traffic since the last reset: every measured
            # probability reads 0, the deployed plan would re-price to
            # nothing and any plan could displace it.
            self._emit("replan_skipped", reason="empty_window")
            return False
        search = self.search
        if self.options.adapt_hit_rates and profile.cache_hit_rates:
            # A cache that is being invalidated constantly reports a low
            # hit rate; feed the *worst observed* rate back into the
            # search's expectation so the search can drop the cache.
            worst = min(profile.cache_hit_rates.values())
            if worst < search.default_hit_rate:
                # Floor the adapted estimate: a single thrashing cache
                # should not veto caching everywhere (the update-rate
                # invalidation penalty already handles churn).
                search = replace(
                    search, default_hit_rate=max(0.3, worst)
                )
        plan = optimize(
            self.original,
            profile,
            self.model,
            budget=self.budget,
            options=search,
            memo=self.search_memo,
        )
        search_cost = dict(
            search_wall_s=plan.search_time_s,
            combos_evaluated=plan.combos_evaluated,
            segment_steps=plan.segment_steps,
            search_memo_hits=plan.search_memo_hits,
            search_memo_misses=plan.search_memo_misses,
        )
        changed = self.current_plan is None or plan_signature(
            plan
        ) != plan_signature(self.current_plan)
        if changed and self.current_plan is not None:
            # Hysteresis: keep the deployed plan unless the new one is
            # clearly better under the fresh profile.
            current_gain = evaluate_plan_gain(
                self.original,
                self.current_plan,
                profile,
                self.model,
                search,
            )
            # Floor at zero gain: a deployed plan re-evaluating
            # *negative* under the fresh profile must not lower the
            # bar (multiplying a negative gain by (1 + margin) would
            # invert the margin and make regressions sticky) — any
            # positive-gain candidate should displace it.
            threshold = max(current_gain, 0.0) * (
                1.0 + self.options.replan_margin
            ) + 1e-9
            if plan.total_gain_ns <= threshold:
                changed = False
                self._emit(
                    "replan_rejected",
                    margin=self.options.replan_margin,
                    current_gain_ns=current_gain,
                    candidate_gain_ns=plan.total_gain_ns,
                    threshold_ns=threshold,
                    plan=plan.describe(),
                    **search_cost,
                )
        if changed:
            old_ops = plan_ops(self.current_plan)
            new_ops = plan_ops(plan)
            for pipelet_id, op, tables in sorted(old_ops - new_ops):
                if op == "cache":
                    self._emit(
                        "cache_dropped",
                        pipelet=pipelet_id,
                        tables=list(tables),
                    )
                elif op == "merge":
                    self._emit(
                        "merge_reversed",
                        pipelet=pipelet_id,
                        tables=list(tables),
                    )
            self._emit(
                "replan_accepted",
                margin=self.options.replan_margin,
                gain_ns=plan.total_gain_ns,
                plan=plan.describe(),
                signature=repr(plan_signature(plan)),
                **search_cost,
            )
            self._redeploy(plan)
        else:
            self.deployment.reset_telemetry()
        return changed

    def _make_deployment(
        self,
        plan: Optional[OptimizationPlan],
        previous: Optional[Deployment] = None,
    ) -> Deployment:
        """Build the data plane (``jobs`` workers, or in-process at 1).

        With ``previous`` the new deployment takes over its data plane:
        on a fleet, the plan reaches every running worker as one swap
        message, in order with its batches (shard-wide, nothing forked),
        and each keeps its same-shape caches warm as one core does.
        """
        return Deployment(
            self.original,
            self.target,
            plan=plan,
            control_plane=self.control_plane,
            sample_stride=self._sample_stride,
            cache_capacity=self.search.cache_capacity,
            cache_insertion_limit_pps=(
                self.search.cache_insertion_limit_pps
            ),
            default_hit_rate=self.search.default_hit_rate,
            native_cache=self._native_cache,
            previous=previous,
            telemetry=self.telemetry,
            engine=self.engine,
            jobs=self.jobs,
            supervisor=self.supervisor,
            fault_plan=self.fault_plan,
            live_plane=self.live_plane,
        )

    def _redeploy(self, plan: OptimizationPlan) -> None:
        start = time.perf_counter()
        self.deployment = self._make_deployment(
            plan, previous=self.deployment
        )
        swap_wall_s = time.perf_counter() - start
        self.current_plan = plan
        self.reoptimizations += 1
        self._emit(
            "redeploy",
            reoptimizations=self.reoptimizations,
            jobs=self.jobs,
            plan=plan.describe(),
            carried_caches=list(self.deployment.carried_caches),
            swap_wall_s=swap_wall_s,
        )

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Tear down the current data plane (fleet, live adoption).

        Idempotent. The ``live_plane`` (if any) is released by the
        deployment's own close and survives for its owner to stop.
        """
        if self._closed:
            return
        self._closed = True
        self.deployment.close()

    def __enter__(self) -> "PipeleonController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- traffic ------------------------------------------------------------------

    def run(self, packets: Iterable[Packet]):
        """Replay ``packets`` through the controller's ``engine``."""
        return self.deployment.replay(packets)

    def start_scenario(self) -> None:
        """Arm the periodic-profiling schedule for a scenario run.

        :meth:`scenario_tick` can then be called tick-by-tick by an
        external driver (the serve-mode job loop, which checks for
        cancellation between ticks); :meth:`run_scenario` is the
        one-shot wrapper over the same pair.
        """
        self._next_profile_at = self.options.profile_period_s

    def scenario_tick(
        self,
        time_s: float,
        phase,
        packets_per_tick: int = 300,
    ):
        """Run one emulated second: control action, replay, replan.

        Returns ``(TimePoint, RunStats)`` — the timeline entry plus the
        tick's raw merged stats, so callers can fold per-tick RunStats
        with :meth:`~repro.nic.stats.RunStats.merge` into a bit-stable
        session total. Watchdog-triggered replans are consumed here, at
        the tick boundary, *between* replay batches — never inside one
        — which is what serializes chaos-scheduled replans against
        in-flight traffic.
        """
        if phase.control_action is not None:
            phase.control_action(self.deployment, time_s)
        stats = self.deployment.replay(
            phase.stream_factory(packets_per_tick)
        )
        reoptimized = False
        self.clock.advance(1.0)
        slo_triggered = self.consume_slo_trigger()
        if self.enabled and (
            slo_triggered or self.clock.now_s >= self._next_profile_at
        ):
            reoptimized = self.maybe_reoptimize()
            self._next_profile_at = (
                self.clock.now_s + self.options.profile_period_s
            )
        point = TimePoint(
            time_s=time_s,
            throughput_gbps=stats.throughput_gbps(self.target),
            mean_latency_ns=stats.mean_latency_ns,
            phase=phase.name,
            reoptimized=reoptimized,
            plan=(
                self.current_plan.describe()
                if self.current_plan
                else "none"
            ),
        )
        return point, stats

    def run_scenario(
        self,
        scenario: Scenario,
        packets_per_tick: int = 300,
    ) -> list[TimePoint]:
        """Drive a timed scenario, one emulated second per tick."""
        timeline: list[TimePoint] = []
        self.start_scenario()
        for time_s, phase in scenario.ticks():
            point, _ = self.scenario_tick(
                time_s, phase, packets_per_tick
            )
            timeline.append(point)
        return timeline
