"""Tests for the synthetic dataset generator and the dataset presets."""

from __future__ import annotations

import pytest

from repro.data.presets import DATASET_PRESETS, get_preset, scaled_preset
from repro.data.stats import compute_statistics, popularity_skew, statistics_table
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.exceptions import ConfigurationError, DataError


class TestSyntheticConfig:
    def test_valid_config_passes(self):
        SyntheticConfig(num_users=50, num_items=100, num_interactions=500).validate()

    def test_too_few_interactions_rejected(self):
        config = SyntheticConfig(num_users=50, num_items=100, num_interactions=100)
        with pytest.raises(DataError):
            config.validate()

    def test_too_many_interactions_rejected(self):
        config = SyntheticConfig(num_users=10, num_items=10, num_interactions=200)
        with pytest.raises(DataError):
            config.validate()

    def test_invalid_cluster_strength_rejected(self):
        config = SyntheticConfig(
            num_users=50, num_items=100, num_interactions=500, cluster_strength=1.0
        )
        with pytest.raises(DataError):
            config.validate()

    def test_from_preset_copies_sizes(self):
        preset = get_preset("ml-100k")
        config = SyntheticConfig.from_preset(preset)
        assert config.num_users == preset.num_users
        assert config.num_items == preset.num_items
        assert config.num_interactions == preset.num_interactions


class TestSyntheticGeneration:
    @pytest.fixture(scope="class")
    def generated(self):
        config = SyntheticConfig(
            num_users=120, num_items=200, num_interactions=1800, name="gen-test"
        )
        return config, generate_synthetic_dataset(config, rng=5)

    def test_exact_user_and_item_counts(self, generated):
        config, dataset = generated
        assert dataset.num_users == config.num_users
        assert dataset.num_items == config.num_items

    def test_interaction_count_close_to_target(self, generated):
        config, dataset = generated
        assert abs(dataset.num_interactions - config.num_interactions) < 0.1 * config.num_interactions

    def test_every_user_has_minimum_interactions(self, generated):
        config, dataset = generated
        assert dataset.user_degrees().min() >= config.min_interactions_per_user

    def test_popularity_is_skewed(self, generated):
        _, dataset = generated
        # A Zipf-like catalogue must be far from uniform: Gini well above 0.2.
        assert popularity_skew(dataset) > 0.2

    def test_deterministic_given_seed(self):
        config = SyntheticConfig(num_users=40, num_items=60, num_interactions=400)
        a = generate_synthetic_dataset(config, rng=9)
        b = generate_synthetic_dataset(config, rng=9)
        assert a == b

    def test_different_seeds_differ(self):
        config = SyntheticConfig(num_users=40, num_items=60, num_interactions=400)
        a = generate_synthetic_dataset(config, rng=1)
        b = generate_synthetic_dataset(config, rng=2)
        assert a != b


class TestPresets:
    def test_paper_presets_match_table2(self):
        ml100k = get_preset("ml-100k")
        assert (ml100k.num_users, ml100k.num_items, ml100k.num_interactions) == (943, 1682, 100_000)
        ml1m = get_preset("ml-1m")
        assert (ml1m.num_users, ml1m.num_items, ml1m.num_interactions) == (6040, 3706, 1_000_209)
        steam = get_preset("steam-200k")
        assert (steam.num_users, steam.num_items, steam.num_interactions) == (3753, 5134, 114_713)

    def test_sparsities_match_table2(self):
        assert get_preset("ml-100k").sparsity == pytest.approx(0.937, abs=0.001)
        assert get_preset("ml-1m").sparsity == pytest.approx(0.9553, abs=0.001)
        assert get_preset("steam-200k").sparsity == pytest.approx(0.994, abs=0.001)

    def test_average_interactions_match_table2(self):
        assert get_preset("ml-100k").average_interactions_per_user == pytest.approx(106, abs=1)
        assert get_preset("ml-1m").average_interactions_per_user == pytest.approx(166, abs=1)
        assert get_preset("steam-200k").average_interactions_per_user == pytest.approx(31, abs=1)

    def test_lookup_is_case_insensitive(self):
        assert get_preset("ML-100K").name == "ml-100k"

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            get_preset("netflix")

    def test_mini_presets_exist_and_are_smaller(self):
        for name in ("ml-100k", "ml-1m", "steam-200k"):
            mini = get_preset(f"{name}-mini")
            full = get_preset(name)
            assert mini.num_users < full.num_users
            assert mini.num_items < full.num_items

    def test_mini_presets_preserve_sparsity_ordering(self):
        minis = [get_preset(f"{n}-mini") for n in ("ml-1m", "ml-100k", "steam-200k")]
        sparsities = [p.sparsity for p in minis]
        assert sparsities == sorted(sparsities)

    def test_scaled_preset_identity_at_one(self):
        assert scaled_preset("ml-100k", 1.0) == get_preset("ml-100k")

    def test_scaled_preset_shrinks_users(self):
        scaled = scaled_preset("ml-100k", 0.2)
        assert scaled.num_users < get_preset("ml-100k").num_users
        assert scaled.num_interactions < get_preset("ml-100k").num_interactions

    def test_scaled_preset_preserves_average_activity(self):
        scaled = scaled_preset("ml-1m", 0.05)
        full = get_preset("ml-1m")
        ratio = scaled.average_interactions_per_user / full.average_interactions_per_user
        assert ratio > 0.5

    def test_scaled_preset_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            scaled_preset("ml-100k", 0.0)
        with pytest.raises(ConfigurationError):
            scaled_preset("ml-100k", 1.5)

    def test_all_presets_have_positive_sizes(self):
        for preset in DATASET_PRESETS.values():
            assert preset.num_users > 0
            assert preset.num_items > 0
            assert preset.num_interactions > 0


class TestStatistics:
    def test_compute_statistics_matches_dataset(self, small_dataset):
        stats = compute_statistics(small_dataset)
        assert stats.num_users == small_dataset.num_users
        assert stats.num_items == small_dataset.num_items
        assert stats.num_interactions == small_dataset.num_interactions
        assert stats.sparsity == pytest.approx(small_dataset.sparsity)

    def test_statistics_table_contains_all_names(self, small_dataset, tiny_dataset):
        text = statistics_table([small_dataset, tiny_dataset])
        assert small_dataset.name in text
        assert tiny_dataset.name in text
        assert "Sparsity" in text

    def test_as_row_formats(self, tiny_dataset):
        row = compute_statistics(tiny_dataset).as_row()
        assert row[0] == "tiny"
        assert row[1] == "5"
        assert row[-1].endswith("%")

    def test_popularity_skew_uniform_is_low(self):
        from repro.data.dataset import InteractionDataset

        pairs = [(u, i) for u in range(10) for i in range(10)]
        uniform = InteractionDataset(10, 10, pairs)
        assert popularity_skew(uniform) == pytest.approx(0.0, abs=1e-9)
