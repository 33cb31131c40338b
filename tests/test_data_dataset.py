"""Tests for :class:`repro.data.dataset.InteractionDataset`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import DataError

from oracles.data import with_interactions_removed


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

    def test_user_degrees_vector(self, tiny_dataset):
        np.testing.assert_array_equal(tiny_dataset.user_degrees(), [3, 2, 3, 3, 2])

    def test_positive_mask(self, tiny_dataset):
        mask = tiny_dataset.interaction_store().masks[1]
        assert mask.sum() == 2
        assert mask[1] and mask[3]

    def test_invalid_user_raises(self, tiny_dataset):
        with pytest.raises(DataError):
            tiny_dataset.positive_items(99)


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


class TestDerivedDatasets:
    def test_with_interactions_removed(self, tiny_dataset):
        reduced = with_interactions_removed(tiny_dataset, [(0, 0), (1, 3)])
        assert reduced.num_interactions == 11
        np.testing.assert_array_equal(reduced.positive_items(0), [1, 2])
        np.testing.assert_array_equal(reduced.positive_items(1), [1])

    def test_with_interactions_removed_ignores_absent_pairs(self, tiny_dataset):
        assert with_interactions_removed(tiny_dataset, [(0, 5), (4, 4)]) == tiny_dataset
        assert with_interactions_removed(tiny_dataset, []) == tiny_dataset

    @pytest.mark.parametrize("removal", [(0, 7), (5, 0), (-1, 0), (0, -1)])
    def test_with_interactions_removed_rejects_out_of_range_ids(
        self, tiny_dataset, removal
    ):
        # (0, 7) shares its row-major key with (1, 1), a pair of the dataset:
        # it must fail loudly rather than delete another user's interaction.
        with pytest.raises(DataError):
            with_interactions_removed(tiny_dataset, [(1, 3), removal])

    def test_with_interactions_removed_keeps_originals(self, tiny_dataset):
        before = tiny_dataset.num_interactions
        with_interactions_removed(tiny_dataset, [(0, 0)])
        assert tiny_dataset.num_interactions == before

    def test_equality(self, tiny_dataset):
        clone = InteractionDataset(5, 6, tiny_dataset.pairs, name="other-name")
        assert clone == tiny_dataset

    def test_inequality_different_pairs(self, tiny_dataset):
        other = InteractionDataset(5, 6, tiny_dataset.pairs[1:], name="tiny")
        assert other != tiny_dataset

    def test_len_and_repr(self, tiny_dataset):
        assert len(tiny_dataset) == 13
        assert "tiny" in repr(tiny_dataset)
