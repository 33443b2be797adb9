"""One serve-mode session: controller + data plane + daemon-lifetime plane.

A session owns exactly one data plane (via
:class:`~repro.core.controller.PipeleonController`) — a supervised
fleet at ``jobs > 1``, else in process; every redeploy keeps it — and
one :class:`~repro.telemetry.live.LivePlane`: the scrape endpoint and
SLO watchdog run from daemon start to drain, not per replay.

Replay jobs stream phases from the string-seeded scenario library
(:mod:`repro.traffic.scenarios`) one emulated second at a time through
:meth:`~repro.core.controller.PipeleonController.scenario_tick`,
checking the job's cancel event between ticks and folding each tick's
merged :class:`~repro.nic.stats.RunStats` with
:meth:`~repro.nic.stats.RunStats.merge`. Because both the scenario and
the fault plan are pure functions of their string seeds and the merge
is exact, two same-seed sessions return bit-identical stats
fingerprints even when a worker is killed and respawned mid-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from repro.nic.emulator import ENGINES
from repro.nic.stats import RunStats

__all__ = ["ServeSession", "SessionConfig", "stats_payload"]


def stats_payload(stats: RunStats, target=None) -> dict:
    """JSON-safe RunStats view plus a bit-identity fingerprint.

    The fingerprint hashes the exact merged aggregates (floats as
    ``float.hex``, so every bit counts): two runs agree on it iff
    their merged stats are bit-identical — the serve-mode determinism
    acceptance check.
    """
    exact = {
        "packets": stats.packets,
        "dropped": stats.dropped,
        "migrations": stats.migrations,
        "total_bytes": stats.total_bytes,
        "lost_packets": stats.lost_packets,
        "total_latency_ns": stats.total_latency_ns.hex(),
        "p99_latency_ns": stats.percentile_latency_ns(99.0).hex(),
    }
    fingerprint = hashlib.sha256(
        json.dumps(exact, sort_keys=True).encode("utf-8")
    ).hexdigest()
    payload = {
        "packets": stats.packets,
        "dropped": stats.dropped,
        "migrations": stats.migrations,
        "total_bytes": stats.total_bytes,
        "lost_packets": stats.lost_packets,
        "mean_latency_ns": stats.mean_latency_ns,
        "p99_latency_ns": stats.percentile_latency_ns(99.0),
        "fingerprint": fingerprint,
    }
    if target is not None:
        payload["throughput_gbps"] = stats.throughput_gbps(target)
    return payload


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to stand a serve-mode session up."""

    app: str = "l2l3_acl"
    target: str = "bluefield2"
    jobs: int = 2
    engine: str = "auto"
    #: Worker-failure policy + hang threshold for the supervisor.
    recovery: str = "respawn"
    recv_timeout_s: float = 60.0
    heartbeat_interval_s: float = 0.05
    #: Scripted fault specs (``kill:shard=0,batch=3`` …), armed on the
    #: session's fleet (an error at ``jobs=1``); batches count over the
    #: session, across redeploys — FaultPlan semantics.
    faults: tuple[str, ...] = ()
    fault_seed: str = "0"
    #: Controller cadence/hysteresis.
    profile_period_s: float = 5.0
    offered_pps: float = 1e6
    replan_margin: float = 0.1
    controller_enabled: bool = True
    #: Live plane: wall cadence or deterministic packet cadence, SLO
    #: rules file, flight sink, scrape port (None = no HTTP endpoint).
    live_interval_s: float = 0.05
    live_every_packets: Optional[int] = None
    live_window: int = 512
    flight_path: Optional[str] = None
    slo_rules_path: Optional[str] = None
    serve_metrics_port: Optional[int] = None
    serve_metrics_host: str = "127.0.0.1"
    default_packets_per_tick: int = 300
    #: "optimized" deploys the statically-optimized layout at session
    #: start (deterministic: uniform-profile search). A session that
    #: starts from a real plan replans to *no change* under a stable
    #: workload — SLO-triggered replans then cannot perturb replay
    #: stats, which is what the serve-mode bit-identity check pins.
    #: "none" starts from the unoptimized program.
    baseline: str = "optimized"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine={self.engine!r} not one of {', '.join(ENGINES)}"
            )
        if self.baseline not in ("optimized", "none"):
            raise ValueError(
                f"baseline must be 'optimized' or 'none', "
                f"got {self.baseline!r}"
            )
        object.__setattr__(self, "faults", tuple(self.faults))


class ServeSession:
    """The daemon's long-lived controller/fleet/telemetry bundle."""

    def __init__(self, config: SessionConfig):
        from repro.apps import EXAMPLE_APPS
        from repro.core.controller import (
            ControllerOptions,
            PipeleonController,
        )
        from repro.nic.faults import FaultPlan
        from repro.nic.sharding import SupervisorOptions
        from repro.nic.targets import get_target
        from repro.telemetry import (
            LiveOptions,
            LivePlane,
            Telemetry,
            load_slo_rules,
        )

        self.config = config
        try:
            build, install = EXAMPLE_APPS[config.app]
        except KeyError:
            raise ValueError(
                f"unknown app {config.app!r} "
                f"(choose from {', '.join(sorted(EXAMPLE_APPS))})"
            ) from None
        self.target = get_target(config.target)
        rules = ()
        if config.slo_rules_path:
            rules = load_slo_rules(config.slo_rules_path)
        fault_plan = None
        if config.faults:
            fault_plan = FaultPlan.from_args(
                list(config.faults), seed=config.fault_seed
            )
        self.telemetry = Telemetry()
        self.live_plane = LivePlane(
            LiveOptions(
                interval_s=config.live_interval_s,
                every_packets=config.live_every_packets,
                window=config.live_window,
                flight_path=config.flight_path,
                rules=rules,
                serve_port=config.serve_metrics_port,
                serve_host=config.serve_metrics_host,
            ),
            telemetry=self.telemetry,
        )
        program = build()
        baseline_plan = None
        if config.baseline == "optimized":
            from repro.core import Pipeleon

            baseline_plan = Pipeleon(self.target).optimize(program)
        self.controller = None
        try:
            self.live_plane.start()
            self.controller = PipeleonController(
                program,
                self.target,
                options=ControllerOptions(
                    profile_period_s=config.profile_period_s,
                    offered_pps=config.offered_pps,
                    replan_margin=config.replan_margin,
                ),
                enabled=config.controller_enabled,
                baseline_plan=baseline_plan,
                jobs=config.jobs,
                telemetry=self.telemetry,
                supervisor=SupervisorOptions(
                    recovery=config.recovery,
                    recv_timeout_s=config.recv_timeout_s,
                    heartbeat_interval_s=config.heartbeat_interval_s,
                ),
                fault_plan=fault_plan,
                engine=config.engine,
                live_plane=self.live_plane,
            )
            install(self.controller.control_plane)
            self.controller.attach_slo_watchdog(self.live_plane.watchdog)
        except BaseException:
            self.close()
            raise
        self.replays = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        try:
            if self.controller is not None:
                self.controller.close()
        finally:
            try:
                self.live_plane.stop()
            finally:
                self.telemetry.close()

    @property
    def metrics_port(self) -> Optional[int]:
        return self.live_plane.port

    # -- job executors ---------------------------------------------------------

    def run_replay(self, params: dict, cancel_event=None) -> dict:
        """Stream one library scenario through the controller loop.

        ``params``: ``scenario`` (library name), ``seed`` (string),
        ``packets_per_tick``, plus builder keywords under ``kwargs``.
        Cancellation is honoured between ticks — never inside a replay
        batch — so a cancelled replay still returns exact merged stats
        for the ticks it completed.
        """
        from repro.traffic.scenarios import build_scenario

        name = params.get("scenario")
        if not name:
            raise ValueError("replay params need a 'scenario' name")
        seed = str(params.get("seed", "0"))
        packets_per_tick = int(
            params.get(
                "packets_per_tick", self.config.default_packets_per_tick
            )
        )
        scenario = build_scenario(
            name, seed=seed, **params.get("kwargs", {})
        )
        controller = self.controller
        controller.start_scenario()
        merged = RunStats()
        timeline: list[dict] = []
        ticks_run = 0
        reoptimized_ticks = 0
        cancelled = False
        for time_s, phase in scenario.ticks():
            if cancel_event is not None and cancel_event.is_set():
                cancelled = True
                break
            point, stats = controller.scenario_tick(
                time_s, phase, packets_per_tick
            )
            merged.merge(stats)
            ticks_run += 1
            if point.reoptimized:
                reoptimized_ticks += 1
            timeline.append(
                {
                    "time_s": point.time_s,
                    "phase": point.phase,
                    "throughput_gbps": point.throughput_gbps,
                    "mean_latency_ns": point.mean_latency_ns,
                    "reoptimized": point.reoptimized,
                }
            )
        self.replays += 1
        fleet = self._fleet()
        # A replay can be shorter than the aggregator's interval: sample
        # once here so the SLO block below has seen the whole replay.
        self.live_plane.aggregator.flush()
        watchdog = self.live_plane.watchdog
        return {
            "scenario": scenario.name,
            "phases": scenario.describe(),
            "seed": seed,
            "packets_per_tick": packets_per_tick,
            "ticks": ticks_run,
            "cancelled": cancelled,
            "reoptimized_ticks": reoptimized_ticks,
            "stats": stats_payload(merged, self.target),
            "slo": {
                "breaches": watchdog.breaches,
                "clears": watchdog.clears,
                "active": watchdog.active_breaches,
            },
            "respawns": list(fleet.respawns) if fleet else [],
            "timeline": timeline[-200:],
        }

    def run_optimize(self, params: dict, cancel_event=None) -> dict:
        """Profile + replan right now (the manual SLO trigger)."""
        controller = self.controller
        changed = controller.maybe_reoptimize()
        plan = controller.current_plan
        return {
            "changed": changed,
            "reoptimizations": controller.reoptimizations,
            "plan": plan.describe() if plan is not None else None,
        }

    def run_report(self, params: dict, cancel_event=None) -> dict:
        """Deterministic controller/session facts (no replay)."""
        controller = self.controller
        report = controller.cell_snapshot()
        report.update(
            {
                "replays": self.replays,
                "slo_breaches_seen": controller.slo_breaches_seen,
                "slo_breaches_suppressed": (
                    controller.slo_breaches_suppressed
                ),
                "events_emitted": self.telemetry.events.emitted,
                "flight_rows": self.live_plane.recorder.appended,
            }
        )
        return report

    def status(self) -> dict:
        """Cheap synchronous snapshot for the ``status`` op."""
        controller = self.controller
        watchdog = self.live_plane.watchdog
        plan = controller.current_plan
        fleet = self._fleet()
        return {
            "app": self.config.app,
            "target": self.config.target,
            "jobs": self.config.jobs,
            "engine": controller.engine,
            "plan": plan.describe() if plan is not None else None,
            "reoptimizations": controller.reoptimizations,
            "replays": self.replays,
            "slo_breaches": watchdog.breaches,
            "slo_clears": watchdog.clears,
            "slo_active": watchdog.active_breaches,
            "metrics_port": self.metrics_port,
            "worker_respawns": list(fleet.respawns) if fleet else [],
            "journal_bytes": [
                shard["journal_bytes"]
                for shard in fleet.transport_stats()["per_shard"]
            ]
            if fleet
            else [],
        }

    def _fleet(self):
        """The session's shard fleet; None at ``jobs=1`` (no worker)."""
        if self.config.jobs == 1:
            return None
        return self.controller.deployment.emulator
