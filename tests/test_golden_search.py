"""Golden search plans: every plan the optimizer picks, to the last bit.

``golden_search_plans.json`` holds, for the five example apps on every
target model, the plan :func:`repro.core.search.optimize` returns under
the uniform profile and under a profile recorded from an adaptation
rotation (an ``update_storm``, ``ddos_burst`` and ``flash_crowd`` slice
replayed under the app's uniform-profile plan). Per plan it records each
candidate's pipelet, order and segments with the ``repr`` of its gain,
memory and update rate, the number of combinations the search priced,
and :func:`~repro.core.search.evaluate_plan_gain` of the plan under the
same profile. A change to the search's arithmetic that moves any float
by one ulp fails here.

Re-record (only when a plan is *meant* to change) with::

    PYTHONPATH=src python tests/test_golden_search.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.apps import EXAMPLE_APPS
from repro.core import CostModel, Pipeleon, ResourceBudget
from repro.core.controller import PipeleonController
from repro.core.profiling import (
    profile_from_json,
    profile_to_json,
    uniform_profile,
)
from repro.core.hotspots import top_k
from repro.core.pipelets import partition
from repro.core.search import (
    SearchOptions,
    evaluate_plan_gain,
    local_candidates,
    optimize,
)
from repro.nic.targets import TARGETS
from repro.traffic import build_scenario

GOLDEN_PATH = Path(__file__).parent / "golden_search_plans.json"

#: One adaptation rotation, each scenario cut to three one-second
#: phases (the shape of the ``adapt_storm`` benchmark workload).
ROTATION = (
    ("update_storm", {"calm_s": 1.0, "storm_s": 1.0, "settle_s": 1.0}),
    ("ddos_burst", {"pre_s": 1.0, "attack_s": 1.0, "post_s": 1.0}),
    ("flash_crowd", {"steady_s": 1.0, "spike_s": 1.0, "decay_s": 1.0}),
)
RECORD_TARGET = "bluefield2"
#: Local candidates recorded per hot pipelet, best first.
LOCAL_TOP = 8


def record_rotation_profile(app: str) -> dict:
    """Replay one rotation on one core under the app's uniform-profile
    plan, with replanning off, and return the collected profile."""
    build, install = EXAMPLE_APPS[app]
    program = build()
    target = TARGETS[RECORD_TARGET]
    controller = PipeleonController(
        program,
        target,
        baseline_plan=Pipeleon(target).optimize(program),
        enabled=False,
    )
    with controller:
        install(controller.control_plane)
        for name, kwargs in ROTATION:
            controller.run_scenario(
                build_scenario(name, seed=f"golden:{app}", **kwargs),
                packets_per_tick=500,
            )
        return profile_to_json(controller.collect_profile())


def describe_candidates(candidates) -> list:
    return [
        [
            c.pipelet_id,
            list(c.order),
            [[s.op, list(s.tables)] for s in c.segments],
            repr(c.gain_ns),
            repr(c.memory_bytes),
            repr(c.update_pps),
        ]
        for c in candidates
    ]


def describe_plan(program, profile, target) -> dict:
    """The plan, plus the best few local candidates of every hot
    pipelet (so a profile under which nothing is worth deploying still
    pins the pricing arithmetic)."""
    model = CostModel.for_target(target)
    options = SearchOptions()
    plan = optimize(program, profile, model, ResourceBudget(), options)
    pipelets = partition(program, max_len=options.max_pipelet_len)
    local = []
    for cost in top_k(program, pipelets, profile, model, k=options.k):
        if cost.pipelet.is_switch_case:
            continue
        candidates, evaluated, _steps = local_candidates(
            program, cost.pipelet, profile, model, options,
            cost.probability,
        )
        local.append(
            [
                cost.pipelet.pipelet_id,
                evaluated,
                describe_candidates(candidates[:LOCAL_TOP]),
            ]
        )
    return {
        "candidates": describe_candidates(plan.candidates),
        "local": local,
        "combos_evaluated": plan.combos_evaluated,
        "evaluate_plan_gain": repr(
            evaluate_plan_gain(program, plan, profile, model, options)
        ),
    }


KINDS = ("uniform", "rotation")


def build_profile(app: str, kind: str, profiles: dict):
    program = EXAMPLE_APPS[app][0]()
    if kind == "uniform":
        return program, uniform_profile(program)
    return program, profile_from_json(profiles[app])


def record() -> dict:
    profiles = {app: record_rotation_profile(app) for app in EXAMPLE_APPS}
    plans = {}
    for app in EXAMPLE_APPS:
        for target_name, target in TARGETS.items():
            for kind in KINDS:
                program, profile = build_profile(app, kind, profiles)
                plans[f"{app}/{target_name}/{kind}"] = describe_plan(
                    program, profile, target
                )
    return {"profiles": profiles, "plans": plans}


@functools.lru_cache(maxsize=1)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("target_name", sorted(TARGETS))
@pytest.mark.parametrize("app", sorted(EXAMPLE_APPS))
def test_plan_is_bit_identical(app, target_name, kind):
    recorded = golden()
    program, profile = build_profile(app, kind, recorded["profiles"])
    observed = describe_plan(program, profile, TARGETS[target_name])
    assert observed == recorded["plans"][f"{app}/{target_name}/{kind}"]


def test_recorded_profiles_carry_the_rotation_signals():
    """The rotation profile is not a uniform one in disguise: it has
    measured update rates, entry counts and cache hit rates."""
    profiles = golden()["profiles"]
    for app, data in profiles.items():
        assert data["entry_counts"], app
        assert any(rate > 0 for rate in data["update_rates"].values()), app
    assert profiles["dash_routing"]["cache_hit_rates"]


if __name__ == "__main__":  # pragma: no cover - golden recording
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True))
