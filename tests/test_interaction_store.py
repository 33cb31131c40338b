"""Tests for the shared per-dataset InteractionStore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.store import InteractionStore
from repro.exceptions import DataError


@pytest.fixture()
def dataset():
    return InteractionDataset(
        4, 6, [(0, 1), (0, 3), (1, 0), (1, 1), (1, 5), (3, 2)], name="toy"
    )


class TestConstruction:
    def test_store_matches_positive_items(self, dataset):
        store = dataset.interaction_store()
        for user in range(dataset.num_users):
            np.testing.assert_array_equal(
                store.positives(user), dataset.positive_items(user)
            )

    def test_degrees(self, dataset):
        store = dataset.interaction_store()
        np.testing.assert_array_equal(store.degrees, [2, 3, 0, 1])

    def test_empty_dataset(self):
        empty = InteractionDataset(3, 4, [])
        store = empty.interaction_store()
        assert store.positives(1).shape == (0,)
        assert not store.masks.any()

    def test_invalid_indptr_rejected(self):
        with pytest.raises(DataError):
            InteractionStore(2, 3, np.array([0, 2, 1]), np.array([0, 1]))

    def test_out_of_range_item_rejected(self):
        with pytest.raises(DataError):
            InteractionStore(1, 3, np.array([0, 1]), np.array([7]))


class TestMasks:
    def test_mask_rows_match_dataset_masks(self, dataset):
        store = dataset.interaction_store()
        for user in range(dataset.num_users):
            expected = np.zeros(dataset.num_items, dtype=bool)
            expected[dataset.positive_items(user)] = True
            np.testing.assert_array_equal(store.masks[user], expected)

    def test_masks_are_read_only(self, dataset):
        store = dataset.interaction_store()
        with pytest.raises(ValueError):
            store.masks[0, 0] = True
        with pytest.raises(ValueError):
            store.mask_block(1, 2)[0, 2] = True
        with pytest.raises(ValueError):
            store.indices[0] = 9

    def test_mask_block_is_a_view_not_a_copy(self, dataset):
        store = dataset.interaction_store()
        assert store.mask_block(1, 3).base is store.masks

    def test_mask_rows_gather_is_writable_copy(self, dataset):
        store = dataset.interaction_store()
        gathered = store.mask_rows(np.array([1, 3]))
        np.testing.assert_array_equal(gathered[0], store.masks[1])
        gathered[0, 0] = False  # must not raise, must not touch the store
        assert store.masks[1, 0]

    def test_mask_rows_out_of_range(self, dataset):
        store = dataset.interaction_store()
        with pytest.raises(DataError):
            store.mask_rows(np.array([0, 99]))

    def test_user_out_of_range(self, dataset):
        store = dataset.interaction_store()
        with pytest.raises(DataError):
            store.mask_block(-1, 2)
        with pytest.raises(DataError):
            store.positives(4)


class TestSharing:
    def test_dataset_caches_one_store(self, dataset):
        assert dataset.interaction_store() is dataset.interaction_store()

    def test_batched_sampler_accepts_gathered_rows_without_copy(self, dataset):
        store = dataset.interaction_store()
        users = np.array([0, 1, 3])
        masks = store.mask_rows(users)
        counts = store.degrees[users].copy()
        rng = np.random.default_rng(0)
        negatives, offsets = sample_uniform_negatives_batched(
            rng, dataset.num_items, counts, masks
        )
        np.testing.assert_array_equal(masks, store.masks[users])
        for row, user in enumerate(users):
            drawn = negatives[offsets[row] : offsets[row + 1]]
            assert drawn.shape[0] == counts[row]
            assert not np.any(store.masks[int(user)][drawn])
            assert np.unique(drawn).shape[0] == drawn.shape[0]

    def test_batched_sampler_reads_the_shared_mask_block(self, dataset):
        """The store's read-only block view draws like a gathered copy."""
        store = dataset.interaction_store()
        counts = store.degrees[0:3].copy()
        view, _ = sample_uniform_negatives_batched(
            np.random.default_rng(7), dataset.num_items, counts, store.mask_block(0, 3)
        )
        gathered, _ = sample_uniform_negatives_batched(
            np.random.default_rng(7),
            dataset.num_items,
            counts,
            store.mask_rows(np.arange(3)),
        )
        np.testing.assert_array_equal(view, gathered)
