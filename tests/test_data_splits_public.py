"""Tests for leave-one-out splitting and public-interaction sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.public import sample_public_interactions
from repro.data.splits import leave_one_out_split
from repro.exceptions import DataError


class TestLeaveOneOutSplit:
    def test_test_item_was_a_training_interaction(self, small_dataset):
        split = leave_one_out_split(small_dataset, rng=0)
        for user in range(small_dataset.num_users):
            test_item = split.test_items[user]
            if test_item < 0:
                continue
            assert test_item in small_dataset.positive_items(user)
            assert test_item not in split.train.positive_items(user)

    def test_train_plus_test_covers_full(self, small_dataset):
        split = leave_one_out_split(small_dataset, rng=0)
        num_test_users = int(np.sum(split.test_items >= 0))
        assert split.train.num_interactions + num_test_users == small_dataset.num_interactions

    def test_users_keep_min_train_interactions(self, small_dataset):
        split = leave_one_out_split(small_dataset, rng=0, min_train_interactions=2)
        for user in range(small_dataset.num_users):
            if split.test_items[user] >= 0:
                assert split.train.positive_items(user).shape[0] >= 2

    def test_single_interaction_user_has_no_test_item(self):
        dataset = InteractionDataset(2, 3, [(0, 0), (1, 0), (1, 1)])
        split = leave_one_out_split(dataset, rng=0)
        assert split.test_items[0] == -1
        assert split.test_items[1] >= 0

    def test_deterministic_given_seed(self, small_dataset):
        a = leave_one_out_split(small_dataset, rng=3)
        b = leave_one_out_split(small_dataset, rng=3)
        np.testing.assert_array_equal(a.test_items, b.test_items)

    def test_invalid_min_train_interactions(self, small_dataset):
        with pytest.raises(DataError):
            leave_one_out_split(small_dataset, rng=0, min_train_interactions=0)

    def test_full_reference_is_kept(self, small_dataset):
        split = leave_one_out_split(small_dataset, rng=0)
        assert split.full is small_dataset


class TestPublicInteractions:
    def test_public_subset_of_train(self, small_split):
        public = sample_public_interactions(small_split.train, 0.2, rng=0)
        for user, item in public.dataset.pairs:
            assert item in small_split.train.positive_items(int(user))

    def test_expected_fraction_is_respected(self, small_split):
        public = sample_public_interactions(small_split.train, 0.3, rng=0)
        fraction = public.num_interactions / small_split.train.num_interactions
        assert 0.15 < fraction < 0.45

    def test_xi_zero_gives_empty_set(self, small_split):
        public = sample_public_interactions(small_split.train, 0.0, rng=0)
        assert public.num_interactions == 0
        assert public.users_with_public_interactions().shape == (0,)

    def test_xi_one_gives_everything(self, small_split):
        public = sample_public_interactions(small_split.train, 1.0, rng=0)
        assert public.num_interactions == small_split.train.num_interactions

    def test_invalid_xi_raises(self, small_split):
        with pytest.raises(DataError):
            sample_public_interactions(small_split.train, 1.5, rng=0)
        with pytest.raises(DataError):
            sample_public_interactions(small_split.train, -0.1, rng=0)

    def test_same_universe(self, small_split):
        public = sample_public_interactions(small_split.train, 0.1, rng=0)
        assert public.dataset.num_users == small_split.train.num_users
        assert public.dataset.num_items == small_split.train.num_items

    def test_deterministic_given_seed(self, small_split):
        a = sample_public_interactions(small_split.train, 0.1, rng=11)
        b = sample_public_interactions(small_split.train, 0.1, rng=11)
        np.testing.assert_array_equal(a.dataset.pairs, b.dataset.pairs)

    def test_positive_items_accessor(self, small_split):
        public = sample_public_interactions(small_split.train, 0.5, rng=0)
        users = public.users_with_public_interactions()
        assert users.shape[0] > 0
        first = int(users[0])
        assert public.positive_items(first).shape[0] > 0

    def test_xi_recorded(self, small_split):
        public = sample_public_interactions(small_split.train, 0.07, rng=0)
        assert public.xi == pytest.approx(0.07)
