"""Tests for dataset loaders and negative sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loaders import load_dataset, load_movielens_file, load_steam_file
from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.exceptions import DataError


class TestLoadDataset:
    def test_synthetic_fallback_matches_preset_scale(self):
        dataset = load_dataset("ml-100k", scale=0.1, rng=0)
        assert 60 <= dataset.num_users <= 120
        assert dataset.num_interactions > 0

    def test_mini_preset_loads(self):
        dataset = load_dataset("ml-100k-mini", rng=0)
        assert dataset.num_users == 320

    def test_unknown_dataset_raises(self):
        with pytest.raises(Exception):
            load_dataset("unknown-dataset", scale=0.1, rng=0)

    def test_deterministic_given_seed(self):
        a = load_dataset("steam-200k", scale=0.05, rng=3)
        b = load_dataset("steam-200k", scale=0.05, rng=3)
        assert a == b

    def test_real_movielens_file_preferred(self, tmp_path):
        path = tmp_path / "u.data"
        lines = ["1\t10\t5\t881250949", "1\t20\t3\t881250949", "2\t10\t4\t881250949"]
        path.write_text("\n".join(lines))
        dataset = load_dataset("ml-100k", data_dir=tmp_path, rng=0)
        assert dataset.num_users == 2
        assert dataset.num_items == 2
        assert dataset.num_interactions == 3

    def test_missing_real_file_falls_back_to_synthetic(self, tmp_path):
        dataset = load_dataset("ml-100k", data_dir=tmp_path, scale=0.05, rng=0)
        assert dataset.num_users >= 40


class TestFileParsers:
    def test_movielens_100k_format(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t4\t0\n2\t5\t3\t0\n2\t7\t5\t0\n")
        dataset = load_movielens_file(path)
        assert dataset.num_users == 2
        assert dataset.num_items == 2
        assert dataset.num_interactions == 3

    def test_movielens_1m_format(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::1193::5::978300760\n1::661::3::978302109\n")
        dataset = load_movielens_file(path)
        assert dataset.num_users == 1
        assert dataset.num_items == 2

    def test_movielens_duplicates_merged(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t4\t0\n1\t5\t2\t0\n")
        dataset = load_movielens_file(path)
        assert dataset.num_interactions == 1

    def test_movielens_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_movielens_file(tmp_path / "missing.data")

    def test_movielens_malformed_line(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("only-one-field\n")
        with pytest.raises(DataError):
            load_movielens_file(path)

    def test_steam_format_merges_purchase_and_play(self, tmp_path):
        path = tmp_path / "steam-200k.csv"
        path.write_text(
            '151603712,"The Elder Scrolls V",purchase,1,0\n'
            '151603712,"The Elder Scrolls V",play,273,0\n'
            '151603712,"Fallout 4",purchase,1,0\n'
        )
        dataset = load_steam_file(path)
        assert dataset.num_users == 1
        assert dataset.num_items == 2
        assert dataset.num_interactions == 2

    def test_steam_quoted_commas(self, tmp_path):
        path = tmp_path / "steam-200k.csv"
        path.write_text('1,"Game, with comma",play,1,0\n2,"Other",play,2,0\n')
        dataset = load_steam_file(path)
        assert dataset.num_items == 2

    def test_steam_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_steam_file(tmp_path / "nope.csv")


def _negatives_for_user(train, user, count=None, seed=0):
    """One user's negatives through the stacked sampler at batch size one."""
    positives = train.positive_items(user)
    mask = np.zeros((1, train.num_items), dtype=bool)
    mask[0, positives] = True
    counts = np.array([positives.shape[0] if count is None else count], dtype=np.int64)
    negatives, _ = sample_uniform_negatives_batched(
        np.random.default_rng(seed), train.num_items, counts, mask
    )
    return negatives


class TestUniformNegativeDraw:
    def test_negatives_are_not_positives(self, small_split):
        for user in range(0, small_split.train.num_users, 7):
            negatives = _negatives_for_user(small_split.train, user)
            positives = set(small_split.train.positive_items(user).tolist())
            assert not positives.intersection(negatives.tolist())

    def test_default_count_matches_positives(self, small_split):
        negatives = _negatives_for_user(small_split.train, 0)
        assert negatives.shape[0] == small_split.train.positive_items(0).shape[0]

    def test_explicit_count(self, small_split):
        assert _negatives_for_user(small_split.train, 0, 5).shape[0] == 5

    def test_no_duplicate_negatives(self, small_split):
        negatives = _negatives_for_user(small_split.train, 0, 20)
        assert len(set(negatives.tolist())) == negatives.shape[0]

    def test_negative_count_raises(self, small_split):
        with pytest.raises(DataError):
            _negatives_for_user(small_split.train, 0, -1)

    def test_dense_user_handled(self):
        from repro.data.dataset import InteractionDataset

        dataset = InteractionDataset(1, 5, [(0, 0), (0, 1), (0, 2), (0, 3)])
        negatives = _negatives_for_user(dataset, 0)
        assert set(negatives.tolist()) == {4}
