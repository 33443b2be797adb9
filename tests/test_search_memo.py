"""The controller's candidate memo is exact.

:class:`repro.core.search.SearchMemo` answers a hot pipelet's local
search from an earlier one with the same inputs. These tests hold it to
"a hit is a cold search, field for field":

* a memoised search equals cold :func:`~repro.core.search.optimize`
  over the synthesized corpus and the five example apps, across a
  sequence of profiles and cost models that revisits earlier inputs;
* every input the key stamps misses when it alone moves: an action
  probability, an entry count, an update rate, ``table_m``,
  ``offered_pps``, a :class:`SearchOptions` field, ``reach_p``, a
  table's actions edited in place and the cost model (by identity);
* the memo keeps at most ``SEARCH_MEMO_CAPACITY`` entries, least
  recently used out, and a hit hands out nothing that writes back;
* a controller replaying ``update_storm``, ``ddos_burst`` and
  ``flash_crowd`` makes the same decisions with its memo as with a
  fresh memo per replan.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

import repro.core.controller as controller_module
import repro.core.search as search_module
from repro.apps import EXAMPLE_APPS
from repro.core import CostModel, ResourceBudget
from repro.core.controller import ControllerOptions, PipeleonController
from repro.core.hotspots import top_k
from repro.core.pipelets import partition
from repro.core.profiling import profile_from_json, uniform_profile
from repro.core.search import (
    SearchMemo,
    SearchOptions,
    local_candidates,
    optimize,
)
from repro.ir.actions import Action, prim
from repro.ir.tables import TableKind
from repro.nic.targets import TARGETS
from repro.synthesis import synthesize_corpus, synthesize_profile
from repro.telemetry import Telemetry
from repro.traffic import build_scenario

GOLDEN_PROFILES = Path(__file__).parent / "golden_search_plans.json"
TARGET_NAMES = ("bluefield2", "agilio_cx")


@functools.lru_cache(maxsize=1)
def rotation_profiles() -> dict:
    """Each app's profile recorded from an adaptation rotation."""
    return json.loads(GOLDEN_PROFILES.read_text())["profiles"]


def plan_fields(plan) -> tuple:
    """Everything a plan says except its wall time and memo counters,
    floats by ``repr`` so a hit must match to the last bit."""
    return (
        repr(plan.candidates),
        plan.pipelets_considered,
        plan.combos_evaluated,
        plan.segment_steps,
    )


def profile_sequence(program, recorded):
    """Profiles a replanning controller could meet, revisiting some."""
    scaled = recorded.copy()
    scaled.offered_pps *= 2
    return [
        uniform_profile(program),
        recorded,
        scaled,
        uniform_profile(program),
        recorded.copy(),
        scaled,
    ]


def programs_and_profiles():
    for app in sorted(EXAMPLE_APPS):
        program = EXAMPLE_APPS[app][0]()
        recorded = profile_from_json(rotation_profiles()[app])
        yield app, program, profile_sequence(program, recorded)
    corpus = synthesize_corpus(6, 4, 2, 6, base_seed=42)
    for i, program in enumerate(corpus):
        recorded = synthesize_profile(program, seed=i, max_update_rate=5.0)
        yield f"synth{i}", program, profile_sequence(program, recorded)


def test_memoised_search_equals_cold_search():
    # One memo across every program, profile and cost model: keys that
    # collide by pipelet id or table name must still tell them apart.
    memo = SearchMemo()
    models = {
        target: CostModel.for_target(TARGETS[target])
        for target in TARGET_NAMES
    }
    hits = 0
    for label, program, profiles in programs_and_profiles():
        for target, model in models.items():
            for step, profile in enumerate(profiles):
                cold = optimize(program, profile, model, ResourceBudget())
                warm = optimize(
                    program, profile, model, ResourceBudget(), memo=memo
                )
                assert plan_fields(warm) == plan_fields(cold), (
                    label,
                    target,
                    step,
                )
                assert cold.search_memo_hits == 0
                searched = warm.search_memo_hits + warm.search_memo_misses
                assert searched == cold.search_memo_misses
                hits += warm.search_memo_hits
    assert hits > 0


# ---------------------------------------------------------------------------
# Every key component misses
# ---------------------------------------------------------------------------


@pytest.fixture
def hot_search():
    """dash_routing's hottest pipelet under its rotation profile, with
    everything :meth:`SearchMemo.search` takes."""
    program = EXAMPLE_APPS["dash_routing"][0]()
    profile = profile_from_json(rotation_profiles()["dash_routing"])
    model = CostModel.for_target(TARGETS["bluefield2"])
    options = SearchOptions()
    pipelets = partition(program, max_len=options.max_pipelet_len)
    cost = next(
        c
        for c in top_k(program, pipelets, profile, model, k=options.k)
        if len(c.pipelet.table_names) > 1
    )
    return {
        "program": program,
        "pipelet": cost.pipelet,
        "profile": profile,
        "model": model,
        "options": options,
        "reach_p": cost.probability,
    }


def search_twice(memo, inputs):
    """Prime ``memo`` with ``inputs`` and check the repeat hits."""
    first = memo.search(**inputs)
    again = memo.search(**inputs)
    assert not first[3] and again[3]
    assert again[:3] == first[:3]


def assert_exact_miss(memo, inputs):
    cands, evaluated, walked, hit = memo.search(**inputs)
    assert not hit
    cold = local_candidates(**inputs)
    assert (repr(list(cands)), evaluated, walked) == (
        repr(cold[0]),
        cold[1],
        cold[2],
    )


def hot_table(inputs, index=0):
    name = inputs["pipelet"].table_names[index]
    return inputs["program"].table(name)


def move_action_prob(inputs):
    table = hot_table(inputs)
    profile = inputs["profile"].copy()
    probs = dict(profile.action_probs.get(table.name) or {})
    first = next(iter(table.actions))
    probs[first] = probs.get(first, 0.0) + 0.25
    profile.set_action_probs(table.name, probs)
    return {**inputs, "profile": profile}


def move_profile_map(field, value):
    def move(inputs):
        name = hot_table(inputs).name
        profile = inputs["profile"].copy()
        rates = getattr(profile, field)
        rates[name] = value(rates.get(name))
        return {**inputs, "profile": profile}

    return move


def move_offered_pps(inputs):
    profile = inputs["profile"].copy()
    profile.offered_pps *= 1.5
    return {**inputs, "profile": profile}


def move_option(inputs):
    options = dataclasses.replace(inputs["options"], default_hit_rate=0.5)
    return {**inputs, "options": options}


def move_reach_p(inputs):
    return {**inputs, "reach_p": inputs["reach_p"] * 0.5}


def edit_actions_in_place(inputs):
    table = hot_table(inputs, index=-1)
    name, action = next(iter(table.actions.items()))
    table.actions[name] = Action(
        name, action.primitives + (prim("no_op"),)
    )
    return inputs


def another_model(inputs):
    """An equal model is another model: the memo keys it by identity."""
    return {**inputs, "model": CostModel.for_target(TARGETS["bluefield2"])}


MUTATIONS = {
    "action_prob": move_action_prob,
    "entry_count": move_profile_map(
        "entry_counts", lambda count: (count or 0) + 7
    ),
    "update_rate": move_profile_map(
        "update_rates", lambda rate: (rate or 0.0) + 0.5
    ),
    "table_m": move_profile_map("table_m", lambda m: (m or 1) + 1),
    "offered_pps": move_offered_pps,
    "search_option": move_option,
    "reach_p": move_reach_p,
    "actions_in_place": edit_actions_in_place,
    "another_model": another_model,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_key_component_misses(hot_search, mutation):
    memo = SearchMemo()
    search_twice(memo, hot_search)
    assert_exact_miss(memo, MUTATIONS[mutation](hot_search))


# ---------------------------------------------------------------------------
# Bounded, and nothing writes back
# ---------------------------------------------------------------------------


def test_lru_bound(monkeypatch, hot_search):
    monkeypatch.setattr(search_module, "SEARCH_MEMO_CAPACITY", 3)
    memo = SearchMemo()
    searches = [
        {**hot_search, "reach_p": hot_search["reach_p"] * (1 + i / 8)}
        for i in range(5)
    ]
    for inputs in searches:
        assert not memo.search(**inputs)[3]
        assert len(memo) <= 3
    assert len(memo) == 3
    # The two least recently used are gone; the newest three hit.
    assert [memo.search(**inputs)[3] for inputs in searches[2:]] == [
        True
    ] * 3
    assert not memo.search(**searches[0])[3]
    assert len(memo) == 3


def test_a_hit_hands_out_nothing_that_writes_back(hot_search):
    program, profile = hot_search["program"], hot_search["profile"]
    model = hot_search["model"]
    memo = SearchMemo()
    cold = optimize(program, profile, model)
    first = optimize(program, profile, model, memo=memo)
    first.candidates.clear()
    cands, *_ = memo.search(**hot_search)
    assert isinstance(cands, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cands[0].gain_ns = 0.0
    hit = optimize(program, profile, model, memo=memo)
    assert hit.search_memo_hits > 0
    hit.candidates.append(hit.candidates[0])
    again = optimize(program, profile, model, memo=memo)
    assert plan_fields(again) == plan_fields(cold)


def test_a_run_that_is_not_plain_is_searched_cold(hot_search):
    """A flow cache in the run is priced from the tables it covers, so
    its search is never kept."""
    table = hot_table(hot_search)
    memo = SearchMemo()
    original = table.kind
    table.kind = TableKind.CACHE
    try:
        assert not memo.search(**hot_search)[3]
        assert not memo.search(**hot_search)[3]
        assert len(memo) == 0
    finally:
        table.kind = original


# ---------------------------------------------------------------------------
# The controller decides the same with its memo
# ---------------------------------------------------------------------------

ROTATION = (
    ("update_storm", {"calm_s": 1.0, "storm_s": 1.0, "settle_s": 1.0}),
    ("ddos_burst", {"pre_s": 1.0, "attack_s": 1.0, "post_s": 1.0}),
    ("flash_crowd", {"steady_s": 1.0, "spike_s": 1.0, "decay_s": 1.0}),
)
#: What the controller emits: its decisions (the control plane's
#: events carry entry ids, which are numbered process-wide).
CONTROLLER_KINDS = {
    "profile_collected",
    "replan_skipped",
    "replan_rejected",
    "replan_accepted",
    "cache_dropped",
    "merge_reversed",
    "redeploy",
}
#: Event fields read off the host clock, and the memo's own counters.
VOLATILE = {
    "collect_wall_s",
    "search_wall_s",
    "swap_wall_s",
    "search_memo_hits",
    "search_memo_misses",
}


def run_rotations(rotations=3):
    build, install = EXAMPLE_APPS["dash_routing"]
    telemetry = Telemetry()
    controller = PipeleonController(
        build(),
        TARGETS["bluefield2"],
        options=ControllerOptions(profile_period_s=1.0),
        telemetry=telemetry,
    )
    timelines = []
    with controller:
        install(controller.control_plane)
        for rotation in range(rotations):
            for name, kwargs in ROTATION:
                scenario = build_scenario(
                    name, seed=f"memo:{rotation}", **kwargs
                )
                timelines.append(
                    controller.run_scenario(scenario, packets_per_tick=300)
                )
    events = telemetry.events.events()
    return controller, timelines, events


def test_controller_memo_keeps_every_decision(monkeypatch):
    memo_run = run_rotations()

    def fresh_memo_per_call(*args, memo=None, **kwargs):
        return optimize(*args, memo=SearchMemo(), **kwargs)

    monkeypatch.setattr(controller_module, "optimize", fresh_memo_per_call)
    cold_run = run_rotations()
    (warm, warm_timelines, warm_events) = memo_run
    (cold, cold_timelines, cold_events) = cold_run
    assert warm_timelines == cold_timelines
    assert warm.reoptimizations == cold.reoptimizations > 0
    assert controller_module.plan_signature(
        warm.current_plan
    ) == controller_module.plan_signature(cold.current_plan)

    def decisions(events):
        return [
            {k: v for k, v in event.items() if k not in VOLATILE | {"seq"}}
            for event in events
            if event["kind"] in CONTROLLER_KINDS
        ]

    assert decisions(warm_events) == decisions(cold_events)
    replans = [
        event
        for event in warm_events
        if event["kind"] in ("replan_accepted", "replan_rejected")
    ]
    assert sum(event["search_memo_hits"] for event in replans) > 0
    assert all(
        event["search_memo_hits"] == 0
        for event in cold_events
        if event["kind"] in ("replan_accepted", "replan_rejected")
    )
