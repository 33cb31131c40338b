"""Tests for :class:`repro.data.dataset.InteractionDataset`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import DataError


class TestConstruction:
    def test_basic_sizes(self, tiny_dataset):
        assert tiny_dataset.num_users == 5
        assert tiny_dataset.num_items == 6
        assert tiny_dataset.num_interactions == 13

    def test_duplicates_are_dropped(self):
        dataset = InteractionDataset(2, 3, [(0, 1), (0, 1), (1, 2)])
        assert dataset.num_interactions == 2

    def test_empty_interactions_allowed(self):
        dataset = InteractionDataset(3, 4, [])
        assert dataset.num_interactions == 0
        assert dataset.positive_items(0).shape == (0,)

    def test_invalid_user_count_raises(self):
        with pytest.raises(DataError):
            InteractionDataset(0, 3, [])

    def test_invalid_item_count_raises(self):
        with pytest.raises(DataError):
            InteractionDataset(3, 0, [])

    def test_user_id_out_of_range_raises(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 3, [(2, 0)])

    def test_item_id_out_of_range_raises(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 3, [(0, 3)])

    def test_negative_id_raises(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 3, [(-1, 0)])

    def test_bad_shape_raises(self):
        with pytest.raises(DataError):
            InteractionDataset(2, 3, np.array([[0, 1, 2]]))


class TestPerUserAccess:
    def test_positive_items_sorted(self, tiny_dataset):
        np.testing.assert_array_equal(tiny_dataset.positive_items(0), [0, 1, 2])

    def test_positive_items_empty_for_inactive_user(self):
        dataset = InteractionDataset(3, 3, [(0, 0)])
        assert dataset.positive_items(2).shape == (0,)

    def test_user_degree(self, tiny_dataset):
        assert tiny_dataset.user_degree(0) == 3
        assert tiny_dataset.user_degree(1) == 2

    def test_user_degrees_vector(self, tiny_dataset):
        np.testing.assert_array_equal(tiny_dataset.user_degrees(), [3, 2, 3, 3, 2])

    def test_has_interaction(self, tiny_dataset):
        assert tiny_dataset.has_interaction(0, 1)
        assert not tiny_dataset.has_interaction(0, 5)

    def test_has_interaction_invalid_item(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.has_interaction(0, 99)

    def test_positive_mask(self, tiny_dataset):
        mask = tiny_dataset.positive_mask(1)
        assert mask.sum() == 2
        assert mask[1] and mask[3]

    def test_invalid_user_raises(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.positive_items(99)

    def test_iter_users(self, tiny_dataset):
        assert list(tiny_dataset.iter_users()) == [0, 1, 2, 3, 4]


class TestAggregates:
    def test_item_popularity(self, tiny_dataset):
        popularity = tiny_dataset.item_popularity
        assert popularity[0] == 3  # items 0 interacted by users 0, 2, 4
        assert popularity.sum() == tiny_dataset.num_interactions

    def test_sparsity(self, tiny_dataset):
        expected = 1.0 - 13 / (5 * 6)
        assert tiny_dataset.sparsity == pytest.approx(expected)

    def test_average_interactions_per_user(self, tiny_dataset):
        assert tiny_dataset.average_interactions_per_user == pytest.approx(13 / 5)

    def test_to_csr_matches_pairs(self, tiny_dataset):
        matrix = tiny_dataset.to_csr()
        assert matrix.shape == (5, 6)
        assert matrix.nnz == tiny_dataset.num_interactions
        assert matrix[0, 1] == 1.0

    def test_popular_items_are_most_interacted(self, small_dataset):
        popular = small_dataset.popular_items(0.1)
        popularity = small_dataset.item_popularity
        threshold = np.sort(popularity)[::-1][len(popular) - 1]
        assert np.all(popularity[popular] >= threshold)

    def test_popular_items_invalid_fraction(self, small_dataset):
        with pytest.raises(DataError):
            small_dataset.popular_items(0.0)

    def test_unpopular_items_come_from_cold_half(self, small_dataset, rng):
        targets = small_dataset.unpopular_items(3, rng)
        popularity = small_dataset.item_popularity
        median = np.median(popularity)
        assert np.all(popularity[targets] <= median)

    def test_unpopular_items_validation(self, small_dataset):
        with pytest.raises(DataError):
            small_dataset.unpopular_items(0)
        with pytest.raises(DataError):
            small_dataset.unpopular_items(small_dataset.num_items + 1)


class TestDerivedDatasets:
    def test_with_interactions_removed(self, tiny_dataset):
        reduced = tiny_dataset.with_interactions_removed([(0, 0), (1, 3)])
        assert reduced.num_interactions == 11
        assert not reduced.has_interaction(0, 0)
        assert not reduced.has_interaction(1, 3)
        assert reduced.has_interaction(0, 1)

    def test_with_interactions_removed_ignores_absent_pairs(self, tiny_dataset):
        assert tiny_dataset.with_interactions_removed([(0, 5), (4, 4)]) == tiny_dataset
        assert tiny_dataset.with_interactions_removed([]) == tiny_dataset

    @pytest.mark.parametrize("removal", [(0, 7), (5, 0), (-1, 0), (0, -1)])
    def test_with_interactions_removed_rejects_out_of_range_ids(
        self, tiny_dataset, removal
    ):
        # (0, 7) shares its row-major key with (1, 1), a pair of the dataset:
        # it must fail loudly rather than delete another user's interaction.
        with pytest.raises(DataError):
            tiny_dataset.with_interactions_removed([(1, 3), removal])

    def test_with_interactions_removed_keeps_originals(self, tiny_dataset):
        before = tiny_dataset.num_interactions
        tiny_dataset.with_interactions_removed([(0, 0)])
        assert tiny_dataset.num_interactions == before

    def test_with_extra_users(self, tiny_dataset):
        extended = tiny_dataset.with_extra_users([np.array([0, 1]), np.array([5])])
        assert extended.num_users == 7
        assert extended.num_interactions == 13 + 3
        np.testing.assert_array_equal(extended.positive_items(5), [0, 1])
        np.testing.assert_array_equal(extended.positive_items(6), [5])

    def test_equality(self, tiny_dataset):
        clone = InteractionDataset(5, 6, tiny_dataset.pairs, name="other-name")
        assert clone == tiny_dataset

    def test_inequality_different_pairs(self, tiny_dataset):
        other = tiny_dataset.with_interactions_removed([(0, 0)])
        assert other != tiny_dataset

    def test_len_and_repr(self, tiny_dataset):
        assert len(tiny_dataset) == 13
        assert "tiny" in repr(tiny_dataset)
