"""Tests for the optimization search (§4.2, Figure 16)."""

import math

import pytest

from repro.core import (
    CostModel,
    ResourceBudget,
    enumerate_segmentations,
    exhaustive_search,
    global_search,
    local_candidates,
    optimize,
    partition,
    uniform_profile,
)
from repro.core.plan import Candidate, Segment
from repro.core.search import SearchOptions
from repro.ir import linear_program
from repro.ir.tables import MatchType
from repro.nic.targets import BLUEFIELD2


@pytest.fixture
def model():
    return CostModel.for_target(BLUEFIELD2)


def make_candidate(pipelet_id, gain, mem=0.0, upd=0.0):
    tables = ("t1", "t2")
    return Candidate(
        pipelet_id=pipelet_id,
        run=tables,
        order=tables,
        segments=(Segment("cache", tables),),
        gain_ns=gain,
        memory_bytes=mem,
        update_pps=upd,
    )


class TestSegmentEnumeration:
    def test_single_table(self):
        options = SearchOptions()
        labelings = enumerate_segmentations(1, options)
        assert set(labelings) == {
            (("none", 1),),
            (("cache", 1),),
        }

    def test_two_tables_include_merge(self):
        labelings = enumerate_segmentations(2, SearchOptions())
        assert (("merge", 2),) in labelings
        assert (("cache", 2),) in labelings
        assert (("cache", 1), ("cache", 1)) in labelings
        assert (("none", 1), ("none", 1)) in labelings

    def test_merge_respects_max_tables(self):
        options = SearchOptions(merge_max_tables=2)
        labelings = enumerate_segmentations(3, options)
        assert (("merge", 3),) not in labelings
        options = SearchOptions(merge_max_tables=3)
        assert (("merge", 3),) in enumerate_segmentations(3, options)

    def test_disabled_techniques(self):
        options = SearchOptions(enable_cache=False, enable_merge=False)
        labelings = enumerate_segmentations(3, options)
        assert labelings == [(("none", 1),) * 3]

    def test_all_labelings_cover_n(self):
        for labels in enumerate_segmentations(4, SearchOptions()):
            assert sum(length for _op, length in labels) == 4

    def test_no_duplicates(self):
        labelings = enumerate_segmentations(4, SearchOptions())
        assert len(labelings) == len(set(labelings))


class TestLocalCandidates:
    def test_ternary_chain_prefers_caching(self, model):
        program = linear_program("p", 4, MatchType.TERNARY)
        profile = uniform_profile(program)
        pipelet = partition(program)[0]
        candidates, evaluated, _steps = local_candidates(
            program, pipelet, profile, model, SearchOptions(), 1.0
        )
        assert evaluated > 0
        assert candidates
        best = candidates[0]
        assert any(s.op == "cache" for s in best.segments)
        assert best.gain_ns > 0

    def test_exact_chain_with_static_tables_can_merge(self, model):
        program = linear_program("p", 2, MatchType.EXACT)
        profile = uniform_profile(program)
        # Static, highly-hit tables: merging is attractive.
        for name in ("p_t0", "p_t1"):
            profile.set_action_probs(
                name, {f"{name}_a0": 0.95, f"{name}_a1": 0.05}
            )
            profile.entry_counts[name] = 3
        pipelet = partition(program)[0]
        candidates, _, _ = local_candidates(
            program, pipelet, profile, model, SearchOptions(), 1.0
        )
        assert any(
            any(s.op == "merge" for s in c.segments)
            for c in candidates
        )

    def test_merge_of_non_exact_excluded(self, model):
        program = linear_program("p", 2, MatchType.TERNARY)
        profile = uniform_profile(program)
        pipelet = partition(program)[0]
        candidates, _, _ = local_candidates(
            program, pipelet, profile, model, SearchOptions(), 1.0
        )
        assert not any(
            any(s.op == "merge" for s in c.segments)
            for c in candidates
        )

    def test_candidates_sorted_by_gain(self, model):
        program = linear_program("p", 3, MatchType.TERNARY)
        profile = uniform_profile(program)
        pipelet = partition(program)[0]
        candidates, _, _ = local_candidates(
            program, pipelet, profile, model, SearchOptions(), 1.0
        )
        gains = [c.gain_ns for c in candidates]
        assert gains == sorted(gains, reverse=True)

    def test_zero_reach_probability_no_gain(self, model):
        program = linear_program("p", 3, MatchType.TERNARY)
        profile = uniform_profile(program)
        pipelet = partition(program)[0]
        candidates, _, _ = local_candidates(
            program, pipelet, profile, model, SearchOptions(), 0.0
        )
        assert candidates == []


class TestGlobalSearch:
    def test_unbounded_picks_best_per_pipelet(self):
        groups = {
            "p1": [make_candidate("p1", 10), make_candidate("p1", 20)],
            "p2": [make_candidate("p2", 5)],
        }
        chosen = global_search(
            groups, ResourceBudget(), SearchOptions()
        )
        assert sorted(c.gain_ns for c in chosen) == [5, 20]

    def test_memory_budget_respected(self):
        groups = {
            "p1": [make_candidate("p1", 20, mem=900)],
            "p2": [make_candidate("p2", 10, mem=900)],
        }
        budget = ResourceBudget(memory_bytes=1000)
        chosen = global_search(groups, budget, SearchOptions())
        assert len(chosen) == 1
        assert chosen[0].gain_ns == 20
        assert sum(c.memory_bytes for c in chosen) <= 1000

    def test_update_budget_respected(self):
        groups = {
            "p1": [make_candidate("p1", 20, upd=80)],
            "p2": [make_candidate("p2", 15, upd=80)],
        }
        budget = ResourceBudget(update_pps=100)
        chosen = global_search(groups, budget, SearchOptions())
        assert len(chosen) == 1
        assert chosen[0].gain_ns == 20

    def test_knapsack_beats_greedy(self):
        """Two small options beat one big one — greedy-by-gain fails."""
        groups = {
            "p1": [
                make_candidate("p1", 10, mem=1000),
                make_candidate("p1", 7, mem=400),
            ],
            "p2": [make_candidate("p2", 7, mem=400)],
        }
        budget = ResourceBudget(memory_bytes=1000)
        chosen = global_search(groups, budget, SearchOptions())
        assert sum(c.gain_ns for c in chosen) == 14

    def test_at_most_one_per_pipelet(self):
        groups = {
            "p1": [
                make_candidate("p1", 10, mem=10),
                make_candidate("p1", 9, mem=10),
            ],
        }
        chosen = global_search(
            groups, ResourceBudget(memory_bytes=1e6), SearchOptions()
        )
        assert len(chosen) == 1

    def test_infeasible_candidates_skipped(self):
        groups = {"p1": [make_candidate("p1", 10, mem=5000)]}
        budget = ResourceBudget(memory_bytes=100)
        assert global_search(groups, budget, SearchOptions()) == []

    def test_empty_input(self):
        assert global_search({}, ResourceBudget(), SearchOptions()) == []


class TestOptimizeEndToEnd:
    def test_plan_within_budget(self):
        program = linear_program("p", 8, MatchType.TERNARY)
        profile = uniform_profile(program)
        model = CostModel.for_target(BLUEFIELD2)
        budget = ResourceBudget(memory_bytes=200000, update_pps=1e5)
        plan = optimize(program, profile, model, budget=budget)
        assert plan.total_memory_bytes <= budget.memory_bytes
        assert plan.total_update_pps <= budget.update_pps
        assert plan.total_gain_ns > 0

    def test_topk_subset_of_esearch_quality(self):
        """ESearch gain >= top-k gain (it considers every pipelet)."""
        program = linear_program("p", 12, MatchType.TERNARY)
        profile = uniform_profile(program)
        model = CostModel.for_target(BLUEFIELD2)
        options = SearchOptions(k=0.34, max_pipelet_len=3)
        top = optimize(program, profile, model, options=options)
        full = exhaustive_search(
            program, profile, model, options=options
        )
        assert full.total_gain_ns >= top.total_gain_ns - 1e-9
        assert full.pipelets_considered >= top.pipelets_considered

    def test_search_reports_timing(self):
        program = linear_program("p", 4, MatchType.TERNARY)
        profile = uniform_profile(program)
        model = CostModel.for_target(BLUEFIELD2)
        plan = optimize(program, profile, model)
        assert plan.search_time_s >= 0
        assert plan.combos_evaluated > 0

    def test_group_candidates_on_diamond(self, branching_program):
        profile = uniform_profile(branching_program)
        # Make the sides expensive enough that caching beats the
        # miss-path insertion cost.
        for name in ("left", "right"):
            profile.table_m[name] = 30
        model = CostModel.for_target(BLUEFIELD2)
        plan = optimize(
            branching_program,
            profile,
            model,
            options=SearchOptions(k=1.0),
        )
        group_candidates = [
            c for c in plan.candidates if c.group is not None
        ]
        assert group_candidates
        assert group_candidates[0].pipelet_id == "grp_cond"
