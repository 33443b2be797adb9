"""Tests for the program/profile synthesizers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, partition, uniform_profile
from repro.core.hotspots import traffic_entropy
from repro.ir import validate_program
from repro.nic.targets import BLUEFIELD2
from repro.synthesis import (
    CATEGORIES,
    ProgramSynthesizer,
    SynthesisConfig,
    make_case,
    make_corpus,
    profiles_by_entropy,
    synthesize_corpus,
    synthesize_profile,
    synthesize_profiles,
)


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = ProgramSynthesizer(SynthesisConfig(seed=7)).generate()
        b = ProgramSynthesizer(SynthesisConfig(seed=7)).generate()
        from repro.ir import program_to_json

        assert program_to_json(a) == program_to_json(b)

    def test_different_seeds_differ(self):
        from repro.ir import program_to_json

        a = ProgramSynthesizer(SynthesisConfig(seed=1)).generate()
        b = ProgramSynthesizer(SynthesisConfig(seed=2)).generate()
        assert program_to_json(a) != program_to_json(b)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10000),
        st.integers(min_value=1, max_value=16),
    )
    def test_generated_programs_always_valid(self, seed, n_pipelets):
        program = ProgramSynthesizer(
            SynthesisConfig(n_pipelets=n_pipelets, seed=seed)
        ).generate()
        validate_program(program)  # acyclic, consistent references

    def test_pipelet_count_tracks_request(self):
        for requested in (4, 8, 12):
            program = ProgramSynthesizer(
                SynthesisConfig(n_pipelets=requested, seed=0)
            ).generate()
            found = len(partition(program, max_len=100))
            assert abs(found - requested) <= 2

    def test_pipelet_length_in_range(self):
        program = ProgramSynthesizer(
            SynthesisConfig(
                n_pipelets=6,
                pipelet_len_min=3,
                pipelet_len_max=3,
                seed=1,
            )
        ).generate()
        for pipelet in partition(program, max_len=100):
            assert len(pipelet) == 3

    def test_corpus_size(self):
        corpus = synthesize_corpus(5, 4, 2, 3, base_seed=100)
        assert len(corpus) == 5

    def test_dependency_fraction_creates_dependencies(self):
        from repro.ir.dependency import dependency_graph

        program = ProgramSynthesizer(
            SynthesisConfig(
                n_pipelets=1,
                pipelet_len_min=6,
                pipelet_len_max=6,
                dependency_fraction=1.0,
                seed=2,
            )
        ).generate()
        pipelet = partition(program, max_len=100)[0]
        must_precede = dependency_graph(pipelet.tables(program))
        assert len(must_precede) > 0


class TestProfileSynthesis:
    def test_probabilities_normalised(self):
        program = ProgramSynthesizer(SynthesisConfig(seed=3)).generate()
        profile = synthesize_profile(program, seed=3)
        for table in program.plain_tables():
            total = sum(profile.action_probs[table.name].values())
            assert total == pytest.approx(1.0)

    def test_drop_bias_raises_drop_rates(self):
        program = ProgramSynthesizer(
            SynthesisConfig(seed=4, drop_table_fraction=1.0)
        ).generate()
        light = synthesize_profile(program, seed=4, drop_bias=0.0)
        heavy = synthesize_profile(program, seed=4, drop_bias=1.0)
        droppers = [
            t for t in program.plain_tables() if t.can_drop
        ]
        mean_light = sum(light.drop_rate(t) for t in droppers)
        mean_heavy = sum(heavy.drop_rate(t) for t in droppers)
        assert mean_heavy > mean_light

    def test_entropy_selection_ordered(self):
        program = ProgramSynthesizer(
            SynthesisConfig(n_pipelets=10, seed=5)
        ).generate()
        profiles = synthesize_profiles(program, 100, base_seed=0)
        model = CostModel.for_target(BLUEFIELD2)
        rows = profiles_by_entropy(program, profiles, model)
        entropies = [entropy for _pct, entropy, _p in rows]
        assert entropies == sorted(entropies)

    def test_branch_probs_randomised(self):
        program = ProgramSynthesizer(
            SynthesisConfig(n_pipelets=9, seed=6)
        ).generate()
        profile = synthesize_profile(program, seed=6)
        values = set(profile.branch_probs.values())
        assert len(values) > 1


class TestCategories:
    def test_all_categories_build(self):
        for category in CATEGORIES:
            case = make_case(category, (2, 3), seed=1)
            validate_program(case.program)
            assert case.category == category

    def test_single_pipelet_restriction(self):
        case = make_case("heavy_drop", (3, 4), seed=2)
        assert len(partition(case.program, max_len=100)) == 1

    def test_heavy_drop_has_droppers(self):
        case = make_case("heavy_drop", (3, 4), seed=3)
        droppers = [
            t for t in case.program.plain_tables() if t.can_drop
        ]
        assert droppers

    def test_small_static_profiles_static(self):
        case = make_case("small_static", (2, 3), seed=4)
        assert all(
            count <= 8 for count in case.profile.entry_counts.values()
        )
        assert all(
            rate <= 0.01 for rate in case.profile.update_rates.values()
        )

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            make_case("bogus", (2, 3))

    def test_corpus(self):
        corpus = make_corpus("high_locality", (2, 3), 4, base_seed=10)
        assert len(corpus) == 4


class TestProfileEdges:
    def make_program(self, **kwargs):
        return ProgramSynthesizer(
            SynthesisConfig(seed=9, **kwargs)
        ).generate()

    def test_max_entries_one_pins_every_table(self):
        program = self.make_program()
        profile = synthesize_profile(program, seed=1, max_entries=1)
        assert profile.entry_counts
        assert set(profile.entry_counts.values()) == {1}

    def test_max_update_rate_zero_freezes_tables(self):
        program = self.make_program()
        profile = synthesize_profile(program, seed=1, max_update_rate=0.0)
        assert profile.update_rates
        assert set(profile.update_rates.values()) == {0.0}

    def test_hit_bias_extremes_shift_default_action_mass(self):
        program = self.make_program()
        static = synthesize_profile(program, seed=2, hit_bias=1.0)
        dynamic = synthesize_profile(program, seed=2, hit_bias=0.0)
        deltas = []
        for table in program.plain_tables():
            if len(table.actions) < 2:
                continue
            default = table.default_action
            deltas.append(
                dynamic.action_probs[table.name][default]
                - static.action_probs[table.name][default]
            )
        # Same seed, so the only difference is the default-action
        # weighting: low hit bias must push mass onto defaults.
        assert deltas and sum(deltas) > 0
        assert all(delta >= 0 for delta in deltas)

    def test_profiles_still_normalised_at_extremes(self):
        program = self.make_program()
        for kwargs in (
            {"hit_bias": 0.0},
            {"hit_bias": 1.0},
            {"drop_bias": 1.0, "max_entries": 1, "max_update_rate": 0.0},
        ):
            profile = synthesize_profile(program, seed=3, **kwargs)
            for table in program.plain_tables():
                total = sum(profile.action_probs[table.name].values())
                assert total == pytest.approx(1.0)

    def test_deterministic_per_seed(self):
        program = self.make_program()
        a = synthesize_profile(program, seed=11)
        b = synthesize_profile(program, seed=11)
        c = synthesize_profile(program, seed=12)
        assert a.entry_counts == b.entry_counts
        assert a.action_probs == b.action_probs
        assert a.update_rates == b.update_rates
        assert (a.entry_counts, a.action_probs) != (
            c.entry_counts,
            c.action_probs,
        )

    def test_synthesize_profiles_distinct_consecutive_seeds(self):
        program = self.make_program()
        profiles = synthesize_profiles(program, 4, base_seed=50)
        assert len(profiles) == 4
        fingerprints = {
            tuple(sorted(p.entry_counts.items())) for p in profiles
        }
        assert len(fingerprints) == 4

    def test_offered_pps_passthrough(self):
        program = self.make_program()
        profile = synthesize_profile(program, seed=1, offered_pps=5e5)
        assert profile.offered_pps == 5e5

    def test_entropy_percentile_clamping(self):
        program = self.make_program(n_pipelets=4)
        profiles = synthesize_profiles(program, 3, base_seed=0)
        model = CostModel.for_target(BLUEFIELD2)
        rows = profiles_by_entropy(
            program, profiles, model, percentiles=(0.0, 100.0, 250.0)
        )
        assert [pct for pct, _e, _p in rows] == [0.0, 100.0, 250.0]
        # Out-of-range percentiles clamp to the extreme profiles
        # rather than indexing past the list.
        assert rows[1][2] is rows[2][2]
