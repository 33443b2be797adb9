"""Expected outputs from the reference interpreter.

The interpreter (``engine="interp"``, ``jobs=1``) is the repository's
specification: every faster tier, transport and shard count must give
bit-identical merged statistics. Each workload replays a seed-derived
verification stream through its own configuration and hands the result
here to be compared with an interpreter twin of the same plan.

Emulation mutates packets, so the two sides never share a packet list:
each replays its own fresh stream made from the same seed.
"""

from __future__ import annotations

from repro.core.controller import ControllerOptions, PipeleonController
from repro.nic.stats import RunStats
from repro.service.session import stats_payload
from repro.traffic.scenarios import build_scenario

#: Packets in the replay workloads' verification stream.
VERIFY_PACKETS = 10_000

#: The shortened ``update_storm`` the adaptation workload is checked on:
#: 16 emulated seconds, a replan every 3, so entry churn, cache
#: invalidation and redeploys all happen inside the checked run.
ADAPT_SCENARIO = "update_storm"
ADAPT_KWARGS = {"calm_s": 5.0, "storm_s": 6.0, "settle_s": 5.0}
ADAPT_PACKETS_PER_TICK = 500
ADAPT_PROFILE_PERIOD_S = 3.0


def mismatches(actual: dict, expected: dict) -> list[str]:
    """Differences in the fields that must be bit-identical."""
    return [
        f"{key}: system gave {actual.get(key)!r}, "
        f"interpreter gave {expected[key]!r}"
        for key in ("fingerprint", "packets", "dropped", "reoptimizations")
        if key in expected and actual.get(key) != expected[key]
    ]


def expect_replay(twin, packets, batch: int) -> dict:
    """Replay ``packets`` through the interpreter ``twin`` deployment."""
    stats = twin.replay(packets, batch=batch, engine="interp")
    return stats_payload(stats, twin.target)


def expect_adapt(program, install, target, seed: str, options) -> dict:
    """Drive the shortened storm through a one-core interpreter controller.

    ``options`` are the session's controller cadence and hysteresis
    (``SessionConfig`` fields); the twin must replan on the same ticks.
    """
    controller = PipeleonController(
        program,
        target,
        options=ControllerOptions(
            profile_period_s=options.profile_period_s,
            offered_pps=options.offered_pps,
            replan_margin=options.replan_margin,
        ),
        jobs=1,
        engine="interp",
    )
    try:
        install(controller.control_plane)
        controller.start_scenario()
        merged = RunStats()
        scenario = build_scenario(ADAPT_SCENARIO, seed=seed, **ADAPT_KWARGS)
        for time_s, phase in scenario.ticks():
            _, stats = controller.scenario_tick(
                time_s, phase, ADAPT_PACKETS_PER_TICK
            )
            merged.merge(stats)
        payload = stats_payload(merged, target)
        payload["reoptimizations"] = controller.reoptimizations
        return payload
    finally:
        controller.close()
