"""The block-drawn generator, the one-draw split and the CSR public sample
against their references.

The contract under test (see ``docs/architecture.md``, "The shared
``InteractionStore``"):

* :func:`repro.data.synthetic.generate_synthetic_dataset` draws the
  exponential keys of a block of users in one call and builds one weight
  vector per cluster; from one seed it gives **byte-equal** pairs to the
  per-user loop :func:`oracles.generate_synthetic_dataset_loop` and leaves
  the generator in the same state.  This holds on every preset (full size at
  one seed; the ``-mini`` presets and ``scale=0.05`` at three seeds) and on
  the edge shapes: users with no budget (which draw nothing), one cluster, a
  budget of ``num_items - 1``, and a catalog so wide that a block holds one
  row;
* :func:`repro.data.splits.leave_one_out_split` draws every held-out
  position in one ``integers`` call; it gives the same test items and
  training set as one ``choice`` per user
  (:func:`oracles.leave_one_out_split_loop`) and leaves the generator in the
  same state, also with no eligible user and with
  ``min_train_interactions=3``;
* :func:`repro.data.public.sample_public_interactions` cuts the public CSR
  out of the training one; it gives the same public dataset as selecting
  from the ``(N, 2)`` pair array and rebuilding it through the constructor
  (:func:`oracles.sample_public_interactions_pairs`) and leaves the
  generator in the same state, on every preset's training set for
  ``xi`` from 0 to 1, and on an empty training set;
* a dataset keeps its interactions as one read-only CSR that its
  :class:`~repro.data.store.InteractionStore` shares rather than copies.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.data import synthetic
from repro.data.dataset import InteractionDataset
from repro.data.presets import DATASET_PRESETS, scaled_preset
from repro.data.public import sample_public_interactions
from repro.data.splits import leave_one_out_split
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset

from oracles import (
    generate_synthetic_dataset_loop,
    leave_one_out_split_loop,
    sample_public_interactions_pairs,
)

FULL_PRESETS = [name for name in DATASET_PRESETS if not name.endswith("-mini")]
MINI_PRESETS = [name for name in DATASET_PRESETS if name.endswith("-mini")]
SEEDS = (0, 3, 7919)
PUBLIC_XI = (0.0, 0.001, 0.01, 0.1, 1.0)


def _assert_same_dataset(actual: InteractionDataset, expected: InteractionDataset) -> None:
    assert actual.name == expected.name
    assert (actual.num_users, actual.num_items) == (expected.num_users, expected.num_items)
    assert actual.pairs.dtype == expected.pairs.dtype
    assert actual.pairs.shape == expected.pairs.shape
    assert actual.pairs.tobytes() == expected.pairs.tobytes()


def _assert_same_generation(config: SyntheticConfig, seed: int) -> InteractionDataset:
    """Generate from ``seed`` both ways; return the library's dataset."""
    library_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    dataset = generate_synthetic_dataset(config, library_rng)
    _assert_same_dataset(dataset, generate_synthetic_dataset_loop(config, oracle_rng))
    assert library_rng.bit_generator.state == oracle_rng.bit_generator.state
    return dataset


def _assert_same_split(
    dataset: InteractionDataset, seed: int, min_train_interactions: int = 1
) -> None:
    library_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    split = leave_one_out_split(dataset, library_rng, min_train_interactions)
    expected = leave_one_out_split_loop(dataset, oracle_rng, min_train_interactions)
    assert split.test_items.tobytes() == expected.test_items.tobytes()
    _assert_same_dataset(split.train, expected.train)
    assert split.full is dataset
    assert library_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestGeneratorPresets:
    @pytest.mark.parametrize("name", FULL_PRESETS)
    def test_full_size_preset(self, name):
        dataset = _assert_same_generation(
            SyntheticConfig.from_preset(DATASET_PRESETS[name]), seed=11
        )
        _assert_same_split(dataset, seed=12)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", MINI_PRESETS)
    def test_mini_preset(self, name, seed):
        _assert_same_generation(SyntheticConfig.from_preset(DATASET_PRESETS[name]), seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", FULL_PRESETS)
    def test_scaled_preset(self, name, seed):
        _assert_same_generation(SyntheticConfig.from_preset(scaled_preset(name, 0.05)), seed)


class TestGeneratorEdges:
    def test_zero_budgets_draw_no_keys(self):
        config = SyntheticConfig(
            num_users=30, num_items=20, num_interactions=0, min_interactions_per_user=0
        )
        rng = np.random.default_rng(5)
        dataset = generate_synthetic_dataset(config, rng)
        assert dataset.num_interactions == 0
        # Only the budgets and the two cluster assignments were drawn.
        reference = np.random.default_rng(5)
        reference.lognormal(mean=0.0, sigma=config.activity_sigma, size=config.num_users)
        reference.integers(0, config.num_clusters, size=config.num_users)
        reference.integers(0, config.num_clusters, size=config.num_items)
        assert rng.bit_generator.state == reference.bit_generator.state
        _assert_same_generation(config, seed=5)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_users_without_budget_between_drawing_users(self, seed):
        config = SyntheticConfig(
            num_users=60,
            num_items=40,
            num_interactions=45,
            activity_sigma=2.0,
            min_interactions_per_user=0,
        )
        dataset = _assert_same_generation(config, seed)
        degrees = dataset.user_degrees()
        assert (degrees == 0).any() and (degrees > 0).any()

    def test_one_cluster(self):
        config = SyntheticConfig(
            num_users=50, num_items=70, num_interactions=600, num_clusters=1
        )
        _assert_same_generation(config, seed=2)

    def test_budget_of_all_but_one_item(self):
        config = SyntheticConfig(num_users=6, num_items=12, num_interactions=6 * 11)
        dataset = _assert_same_generation(config, seed=4)
        assert dataset.user_degrees().tolist() == [11] * 6

    def test_catalog_wide_enough_for_one_row_per_block(self):
        num_items = synthetic._KEY_BLOCK_BYTES // 16 + 1
        assert synthetic._KEY_BLOCK_BYTES // (8 * num_items) <= 1
        config = SyntheticConfig(num_users=3, num_items=num_items, num_interactions=15)
        dataset = _assert_same_generation(config, seed=6)
        assert dataset.num_interactions == 15


class TestSplitEdges:
    @pytest.mark.parametrize("min_train_interactions", [1, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", MINI_PRESETS)
    def test_split_of_mini_preset(self, name, seed, min_train_interactions):
        config = SyntheticConfig.from_preset(DATASET_PRESETS[name])
        dataset = generate_synthetic_dataset(config, np.random.default_rng(seed))
        _assert_same_split(dataset, seed + 1, min_train_interactions)

    def test_min_train_interactions_three_skips_small_profiles(self):
        dataset = InteractionDataset(
            4, 6, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (3, 5)]
        )
        _assert_same_split(dataset, seed=8, min_train_interactions=3)
        split = leave_one_out_split(dataset, rng=8, min_train_interactions=3)
        assert split.test_items[[0, 2, 3]].tolist() == [-1, -1, -1]
        assert split.test_items[1] in dataset.positive_items(1)

    def test_no_eligible_user_draws_nothing(self):
        dataset = InteractionDataset(4, 5, [(0, 1), (2, 3)])
        rng = np.random.default_rng(9)
        split = leave_one_out_split(dataset, rng)
        assert split.test_items.tolist() == [-1] * 4
        assert split.train == dataset
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
        _assert_same_split(dataset, seed=9)


@lru_cache(maxsize=None)
def _preset_train_set(name: str) -> InteractionDataset:
    """The leave-one-out training set of a preset, built once per test run."""
    config = SyntheticConfig.from_preset(DATASET_PRESETS[name])
    dataset = generate_synthetic_dataset(config, np.random.default_rng(5))
    return leave_one_out_split(dataset, rng=6).train


def _assert_same_public_sample(train: InteractionDataset, xi: float, seed: int) -> None:
    library_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    public = sample_public_interactions(train, xi, library_rng)
    expected = sample_public_interactions_pairs(train, xi, oracle_rng)
    assert public.xi == expected.xi
    _assert_same_dataset(public.dataset, expected.dataset)
    assert public.dataset.item_popularity.tobytes() == expected.dataset.item_popularity.tobytes()
    assert library_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestPublicSample:
    @pytest.mark.parametrize("seed", (0, 3))
    @pytest.mark.parametrize("xi", PUBLIC_XI)
    @pytest.mark.parametrize("name", list(DATASET_PRESETS))
    def test_csr_cut_matches_the_pair_selection(self, name, xi, seed):
        _assert_same_public_sample(_preset_train_set(name), xi, seed)

    def test_empty_training_set_draws_nothing(self):
        train = InteractionDataset(3, 4, [], name="empty")
        _assert_same_public_sample(train, 0.5, seed=4)
        rng = np.random.default_rng(4)
        public = sample_public_interactions(train, 0.5, rng)
        assert public.dataset.user_degrees().tolist() == [0, 0, 0]
        assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state

    def test_users_without_interactions_between_sampled_users(self):
        # Empty CSR rows between non-empty ones map to empty public rows.
        train = InteractionDataset(5, 6, [(0, 1), (0, 4), (2, 0), (2, 5), (4, 3)])
        for seed in SEEDS:
            _assert_same_public_sample(train, 0.5, seed)


class TestSharedCSR:
    @pytest.fixture()
    def datasets(self):
        config = SyntheticConfig.from_preset(DATASET_PRESETS["ml-100k-mini"])
        dataset = generate_synthetic_dataset(config, np.random.default_rng(1))
        split = leave_one_out_split(dataset, rng=2)
        return [dataset, split.train]

    def test_store_shares_the_dataset_csr(self, datasets):
        for dataset in datasets:
            store = dataset.interaction_store()
            assert store is dataset.interaction_store()
            user = int(np.argmax(dataset.user_degrees()))
            assert np.shares_memory(dataset.positive_items(user), store.indices)
            assert store.positives(user).tobytes() == dataset.positive_items(user).tobytes()
            assert dataset.user_degrees().tolist() == store.degrees.tolist()

    def test_positive_items_are_read_only(self, datasets):
        for dataset in datasets:
            items = dataset.positive_items(0)
            assert items.shape[0] > 0
            with pytest.raises(ValueError):
                items[0] = items[0]

    def test_pairs_follow_the_csr(self, datasets):
        for dataset in datasets:
            store = dataset.interaction_store()
            pairs = dataset.pairs
            assert pairs[:, 1].tobytes() == store.indices.tobytes()
            assert np.bincount(pairs[:, 0], minlength=dataset.num_users).tolist() == (
                store.degrees.tolist()
            )
