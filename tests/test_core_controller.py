"""Tests for the runtime adaptation controller (§5.3)."""

import pytest

from repro.core import PipeleonController, ResourceBudget
from repro.core.controller import (
    ControllerOptions,
    plan_ops,
    plan_signature,
)
from repro.core.plan import Candidate, OptimizationPlan, Segment
from repro.core.search import SearchOptions
from repro.ir import exact_entry, linear_program
from repro.ir.tables import MatchType
from repro.nic.packet import make_packet
from repro.nic.targets import BLUEFIELD2
from repro.telemetry import Telemetry
from repro.traffic import Scenario


def make_plan(gain=1.0, segments=None):
    return OptimizationPlan(
        candidates=[
            Candidate(
                pipelet_id="pl_0",
                run=("a", "b"),
                order=("b", "a"),
                segments=tuple(
                    segments
                    if segments is not None
                    else (
                        Segment("none", ("b",)),
                        Segment("none", ("a",)),
                    )
                ),
                gain_ns=gain,
                memory_bytes=0.0,
                update_pps=0.0,
            )
        ]
    )


class TestPlanSignature:
    def test_ignores_gain(self):
        assert plan_signature(make_plan(1.0)) == plan_signature(
            make_plan(99.0)
        )

    def test_detects_structural_change(self):
        other = OptimizationPlan(
            candidates=[
                Candidate(
                    pipelet_id="pl_0",
                    run=("a", "b"),
                    order=("a", "b"),
                    segments=(Segment("cache", ("a", "b")),),
                    gain_ns=1.0,
                    memory_bytes=0.0,
                    update_pps=0.0,
                )
            ]
        )
        assert plan_signature(make_plan()) != plan_signature(other)

    def test_order_insensitive_across_pipelets(self):
        a = make_plan()
        b = make_plan()
        b.candidates = list(reversed(b.candidates))
        assert plan_signature(a) == plan_signature(b)


class TestController:
    def make_controller(self, enabled=True):
        program = linear_program("p", 6, MatchType.TERNARY)
        return PipeleonController(
            program,
            BLUEFIELD2,
            budget=ResourceBudget(memory_bytes=1e6, update_pps=1e5),
            search=SearchOptions(k=1.0),
            options=ControllerOptions(profile_period_s=1.0),
            enabled=enabled,
        )

    def test_first_reoptimization_applies_plan(self):
        controller = self.make_controller()
        controller.run([make_packet() for _ in range(20)])
        changed = controller.maybe_reoptimize()
        assert changed
        assert controller.current_plan is not None
        assert controller.reoptimizations == 1

    def test_stable_profile_no_redeploy(self):
        controller = self.make_controller()
        controller.run([make_packet() for _ in range(20)])
        controller.maybe_reoptimize()
        controller.run([make_packet() for _ in range(20)])
        changed = controller.maybe_reoptimize()
        assert not changed
        assert controller.reoptimizations == 1

    def test_disabled_controller_never_optimizes(self):
        controller = self.make_controller(enabled=False)
        controller.run([make_packet() for _ in range(20)])
        assert not controller.maybe_reoptimize()
        assert controller.current_plan is None

    def test_entries_survive_redeployment(self):
        controller = self.make_controller()
        program = controller.original
        table = program.table("p_t0")
        action = next(iter(table.actions))
        controller.deployment.insert_entry(
            "p_t0", exact_entry(1, action)
        )
        controller.run([make_packet() for _ in range(20)])
        controller.maybe_reoptimize()
        assert controller.control_plane.entry_count("p_t0") == 1

    def test_run_scenario_produces_timeline(self):
        controller = self.make_controller()
        scenario = Scenario("s").add_phase(
            "steady",
            5.0,
            lambda n: [make_packet() for _ in range(n)],
        )
        timeline = controller.run_scenario(
            scenario, packets_per_tick=30
        )
        assert len(timeline) == 5
        assert any(point.reoptimized for point in timeline)
        assert all(point.throughput_gbps > 0 for point in timeline)

    def test_scenario_control_action_invoked(self):
        controller = self.make_controller()
        calls = []

        def burst(deployment, time_s):
            calls.append(time_s)

        scenario = Scenario("s").add_phase(
            "phase",
            3.0,
            lambda n: [make_packet() for _ in range(n)],
            control_action=burst,
        )
        controller.run_scenario(scenario, packets_per_tick=5)
        assert len(calls) == 3


class TestPlanOps:
    def test_none_segments_and_empty_plan_produce_no_ops(self):
        assert plan_ops(None) == set()
        assert plan_ops(make_plan()) == set()

    def test_active_ops_are_keyed_by_pipelet_op_tables(self):
        plan = make_plan(
            segments=(
                Segment("cache", ("a", "b")),
                Segment("merge", ("c",)),
            )
        )
        assert plan_ops(plan) == {
            ("pl_0", "cache", ("a", "b")),
            ("pl_0", "merge", ("c",)),
        }


def make_hysteresis_controller(telemetry=None, margin=0.1):
    program = linear_program("p", 6, MatchType.TERNARY)
    return PipeleonController(
        program,
        BLUEFIELD2,
        budget=ResourceBudget(memory_bytes=1e6, update_pps=1e5),
        search=SearchOptions(k=1.0),
        options=ControllerOptions(
            profile_period_s=1.0, replan_margin=margin
        ),
        telemetry=telemetry,
    )


class TestReplanHysteresis:
    """Decision-logic tests with the search pinned (§5.3 hysteresis)."""

    def pin_search(
        self, monkeypatch, controller, candidate, deployed_gain
    ):
        """Pin optimize() and the deployed plan's re-evaluated gain."""
        monkeypatch.setattr(
            "repro.core.controller.optimize",
            lambda *args, **kwargs: candidate,
        )
        monkeypatch.setattr(
            "repro.core.controller.evaluate_plan_gain",
            lambda *args, **kwargs: deployed_gain,
        )
        # The plan structures are synthetic (tables "a"/"b" are not in
        # the program), so redeployment is stubbed out: these tests pin
        # the accept/reject decision, not plan materialisation.
        applied = []
        monkeypatch.setattr(
            controller, "_redeploy", lambda plan: applied.append(plan)
        )
        return applied

    def test_within_margin_keeps_deployed_plan(self, monkeypatch):
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry, margin=0.1)
        controller.current_plan = make_plan(
            gain=100.0, segments=(Segment("cache", ("a", "b")),)
        )
        # Structurally different, 5% better: below the 10% margin.
        candidate = make_plan(gain=105.0)
        applied = self.pin_search(
            monkeypatch, controller, candidate, deployed_gain=100.0
        )
        controller.run([make_packet() for _ in range(20)])
        assert not controller.maybe_reoptimize()
        assert not applied
        rejected = telemetry.events.last("replan_rejected")
        assert rejected is not None
        assert rejected["margin"] == 0.1
        assert rejected["current_gain_ns"] == 100.0
        assert rejected["candidate_gain_ns"] == 105.0
        assert rejected["threshold_ns"] == pytest.approx(110.0)
        assert telemetry.events.last("replan_accepted") is None

    def test_beyond_margin_redeploys(self, monkeypatch):
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry, margin=0.1)
        controller.current_plan = make_plan(gain=100.0)
        candidate = make_plan(
            gain=150.0, segments=(Segment("cache", ("a",)),)
        )
        applied = self.pin_search(
            monkeypatch, controller, candidate, deployed_gain=100.0
        )
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        assert applied == [candidate]
        accepted = telemetry.events.last("replan_accepted")
        assert accepted is not None
        assert accepted["gain_ns"] == 150.0
        assert telemetry.events.last("replan_rejected") is None

    def test_negative_deployed_gain_does_not_invert_margin(
        self, monkeypatch
    ):
        # Regression: the hysteresis threshold used to be
        # current_gain * (1 + margin) even when the deployed plan
        # re-evaluated *negative* under the fresh profile — which
        # LOWERS the bar below the deployed gain (margin inverted) yet
        # still rejected modest positive candidates relative to zero.
        # A regressing deployed plan must not be sticky: any
        # positive-gain candidate displaces it.
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry, margin=0.1)
        controller.current_plan = make_plan(
            gain=100.0, segments=(Segment("cache", ("a", "b")),)
        )
        candidate = make_plan(gain=5.0)
        applied = self.pin_search(
            monkeypatch, controller, candidate, deployed_gain=-50.0
        )
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        assert applied == [candidate]
        accepted = telemetry.events.last("replan_accepted")
        assert accepted is not None and accepted["gain_ns"] == 5.0

    def test_negative_gains_on_both_sides_keeps_deployed(
        self, monkeypatch
    ):
        # The floor is at zero: a candidate that is itself negative
        # still loses to the (floored) threshold, so churn between two
        # bad plans is suppressed and the rejection event records the
        # floored threshold.
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry, margin=0.1)
        controller.current_plan = make_plan(
            gain=100.0, segments=(Segment("cache", ("a", "b")),)
        )
        candidate = make_plan(gain=-5.0)
        applied = self.pin_search(
            monkeypatch, controller, candidate, deployed_gain=-50.0
        )
        controller.run([make_packet() for _ in range(20)])
        assert not controller.maybe_reoptimize()
        assert not applied
        rejected = telemetry.events.last("replan_rejected")
        assert rejected is not None
        assert rejected["current_gain_ns"] == -50.0
        assert rejected["threshold_ns"] == pytest.approx(0.0, abs=1e-6)

    def test_zero_margin_accepts_any_improvement(self, monkeypatch):
        controller = make_hysteresis_controller(margin=0.0)
        controller.current_plan = make_plan(gain=100.0)
        candidate = make_plan(
            gain=100.5, segments=(Segment("cache", ("a",)),)
        )
        applied = self.pin_search(
            monkeypatch, controller, candidate, deployed_gain=100.0
        )
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        assert applied == [candidate]

    def test_identical_signature_never_redeploys(self, monkeypatch):
        # Same structure, wildly better gain estimate: no-op, and no
        # accept/reject event (hysteresis only arbitrates real changes).
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry)
        controller.current_plan = make_plan(gain=1.0)
        applied = self.pin_search(
            monkeypatch,
            controller,
            make_plan(gain=1000.0),
            deployed_gain=1.0,
        )
        controller.run([make_packet() for _ in range(20)])
        assert not controller.maybe_reoptimize()
        assert not applied
        assert telemetry.events.last("replan_accepted") is None
        assert telemetry.events.last("replan_rejected") is None

    def test_dropped_cache_and_reversed_merge_are_logged(
        self, monkeypatch
    ):
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry)
        controller.current_plan = make_plan(
            gain=10.0,
            segments=(
                Segment("cache", ("a", "b")),
                Segment("merge", ("c", "d")),
            ),
        )
        candidate = make_plan(
            gain=100.0, segments=(Segment("cache", ("b",)),)
        )
        self.pin_search(
            monkeypatch, controller, candidate, deployed_gain=10.0
        )
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        dropped = telemetry.events.last("cache_dropped")
        assert dropped["pipelet"] == "pl_0"
        assert dropped["tables"] == ["a", "b"]
        reversed_ = telemetry.events.last("merge_reversed")
        assert reversed_["pipelet"] == "pl_0"
        assert reversed_["tables"] == ["c", "d"]


class TestControllerTelemetry:
    def test_decisions_land_in_event_log_and_registry(self):
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry)
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        kinds = {e["kind"] for e in telemetry.events.events()}
        assert "profile_collected" in kinds
        assert "replan_accepted" in kinds
        assert "redeploy" in kinds
        profiled = telemetry.events.last("profile_collected")
        assert profiled["offered_pps"] > 0
        assert 0.0 < profiled["collect_wall_s"] < 5.0
        accepted = telemetry.events.last("replan_accepted")
        assert "signature" in accepted and "plan" in accepted
        # What the swap kept warm and what it cost on the host clock.
        redeploy = telemetry.events.last("redeploy")
        assert redeploy["carried_caches"] == (
            controller.deployment.carried_caches
        )
        assert 0.0 < redeploy["swap_wall_s"] < 5.0
        assert telemetry.registry.value(
            "pipeleon_controller_decisions_total",
            kind="replan_accepted",
        ) == 1.0
        # Stable second round: profile collected again, no new accept.
        controller.run([make_packet() for _ in range(20)])
        assert not controller.maybe_reoptimize()
        assert telemetry.registry.value(
            "pipeleon_controller_decisions_total",
            kind="profile_collected",
        ) == 2.0
        assert telemetry.registry.value(
            "pipeleon_controller_decisions_total",
            kind="replan_accepted",
        ) == 1.0

    def test_replan_events_carry_search_cost(self, monkeypatch):
        telemetry = Telemetry()
        controller = make_hysteresis_controller(telemetry)
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        accepted = telemetry.events.last("replan_accepted")
        plan = controller.current_plan
        assert accepted["search_wall_s"] == plan.search_time_s > 0.0
        assert accepted["combos_evaluated"] == plan.combos_evaluated > 0
        assert accepted["segment_steps"] == plan.segment_steps > 0
        # A rejection reports the search it threw away.
        candidate = make_plan(gain=plan.total_gain_ns)
        candidate.search_time_s, candidate.combos_evaluated = 0.25, 7
        candidate.segment_steps = 9
        monkeypatch.setattr(
            "repro.core.controller.optimize",
            lambda *args, **kwargs: candidate,
        )
        controller.run([make_packet() for _ in range(20)])
        assert not controller.maybe_reoptimize()
        rejected = telemetry.events.last("replan_rejected")
        assert rejected["search_wall_s"] == 0.25
        assert rejected["combos_evaluated"] == 7
        assert rejected["segment_steps"] == 9

    def test_controller_without_telemetry_is_silent_noop(self):
        controller = make_hysteresis_controller(telemetry=None)
        controller.run([make_packet() for _ in range(20)])
        assert controller.maybe_reoptimize()
        assert controller.telemetry is None


class TestEmptyWindow:
    """A replan over a window with no packets keeps the deployed plan:
    its zero counters carry no probabilities to search on."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_window_keeps_the_deployed_plan(self, jobs):
        from repro.apps import dash_routing
        from repro.core import Pipeleon
        from repro.traffic import TrafficGenerator
        from repro.traffic.flows import synth_flows

        program = dash_routing.build_program()
        baseline = Pipeleon(BLUEFIELD2).optimize(program)
        assert plan_ops(baseline)  # a cache plan worth keeping
        telemetry = Telemetry()
        controller = PipeleonController(
            program,
            BLUEFIELD2,
            baseline_plan=baseline,
            jobs=jobs,
            telemetry=telemetry,
        )
        with controller:
            dash_routing.install_base_entries(controller.control_plane)
            controller.deployment.replay(
                TrafficGenerator(seed=1).stream(synth_flows(200), 5000)
            )
            controller.deployment.reset_telemetry()
            assert not controller.maybe_reoptimize()
            assert controller.current_plan is baseline
            assert controller.reoptimizations == 0
            skipped = telemetry.events.last("replan_skipped")
            assert skipped["reason"] == "empty_window"
            assert telemetry.events.last("replan_accepted") is None


class TestControllerEngine:
    """``engine=`` selects the tier at ``jobs=1`` as it does on a fleet."""

    TICKS = 6
    PER_TICK = 60

    def run_scenario(self, engine):
        from repro.apps import EXAMPLE_APPS
        from repro.nic.targets import EMULATED_NIC
        from repro.traffic import build_scenario

        build, install = EXAMPLE_APPS["l2l3_acl"]
        controller = PipeleonController(
            build(),
            EMULATED_NIC,
            options=ControllerOptions(profile_period_s=2.0),
            engine=engine,
        )
        install(controller.control_plane)
        scenario = build_scenario(
            "flash_crowd", seed="7", steady_s=3, spike_s=2, decay_s=1
        )
        timeline, emulators = [], []
        controller.start_scenario()
        for time_s, phase in scenario.ticks():
            # A redeploy swaps the emulator; count on each one once.
            if controller.deployment.emulator not in emulators:
                emulators.append(controller.deployment.emulator)
            point, _ = controller.scenario_tick(
                time_s, phase, self.PER_TICK
            )
            timeline.append(point)
        snapshot = controller.cell_snapshot()
        assert snapshot.pop("engine") == engine
        observed = (
            timeline,
            snapshot,
            controller.deployment.emulator.counters.snapshot(),
        )
        return observed, emulators

    def test_auto_runs_the_kernels_and_matches_interp(self):
        auto, auto_emulators = self.run_scenario("auto")
        interp, interp_emulators = self.run_scenario("interp")
        assert len(auto[0]) == self.TICKS
        assert (
            sum(em.columnar_packets for em in auto_emulators)
            == self.TICKS * self.PER_TICK
        )
        assert not any(em.columnar_demotions for em in auto_emulators)
        assert not any(em.columnar_packets for em in interp_emulators)
        assert auto == interp
        assert auto[1]["reoptimizations"] >= 1
