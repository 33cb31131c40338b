"""Tests for the per-user metric references.

The per-user metric loops in ``tests/oracles`` are the references the
blocked evaluation is checked against, so their semantics are pinned here on
handcrafted score matrices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError

from oracles.accuracy import evaluate_accuracy, hit_ratio_at_k, ndcg_at_k_leave_one_out
from oracles.evaluation import predraw_negatives
from oracles.exposure import evaluate_exposure, exposure_ratio_at_k, target_ndcg_at_k


@pytest.fixture()
def toy_train():
    """3 users, 6 items; user 0 interacted with item 5 (a target)."""
    return InteractionDataset(3, 6, [(0, 0), (0, 5), (1, 1), (2, 2), (2, 3)], name="toy")


def _score_fn_from_matrix(matrix):
    return lambda user: matrix[user]


class TestExposureRatio:
    def test_fully_exposed_target(self, toy_train):
        # Target item 5 has the highest score for every user.
        scores = np.zeros((3, 6))
        scores[:, 5] = 10.0
        er = exposure_ratio_at_k(_score_fn_from_matrix(scores), toy_train, np.array([5]), 5)
        # User 0 already interacted with item 5, so it is skipped; users 1, 2 count.
        assert er == pytest.approx(1.0)

    def test_unexposed_target(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 5] = -10.0
        scores[:, 4] = 10.0
        er = exposure_ratio_at_k(_score_fn_from_matrix(scores), toy_train, np.array([5]), 1)
        assert er == 0.0

    def test_interacted_targets_are_excluded_from_denominator(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 0] = 5.0
        # Target 0 was interacted by user 0 only; for users 1 and 2 it is recommended.
        er = exposure_ratio_at_k(_score_fn_from_matrix(scores), toy_train, np.array([0]), 3)
        assert er == pytest.approx(1.0)

    def test_multiple_targets_partial_exposure(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 4] = 10.0   # target 4 always in top-1
        scores[:, 5] = -10.0  # target 5 never
        er = exposure_ratio_at_k(
            _score_fn_from_matrix(scores), toy_train, np.array([4, 5]), 1
        )
        # Users 1 and 2: 1 of 2 targets exposed; user 0: target 5 interacted already -> only
        # target 4 counts and it is exposed.
        assert er == pytest.approx((1.0 + 0.5 + 0.5) / 3)

    def test_users_subset(self, toy_train):
        scores = np.zeros((3, 6))
        scores[1, 5] = 10.0
        er = exposure_ratio_at_k(
            _score_fn_from_matrix(scores), toy_train, np.array([5]), 1, users=np.array([1])
        )
        assert er == pytest.approx(1.0)

    def test_empty_targets_raise(self, toy_train):
        with pytest.raises(ModelError):
            exposure_ratio_at_k(_score_fn_from_matrix(np.zeros((3, 6))), toy_train, np.array([]), 5)

    def test_out_of_range_target_raises(self, toy_train):
        with pytest.raises(ModelError):
            exposure_ratio_at_k(
                _score_fn_from_matrix(np.zeros((3, 6))), toy_train, np.array([99]), 5
            )


class TestTargetNDCG:
    def test_top_rank_gives_one(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 5] = 10.0
        ndcg = target_ndcg_at_k(_score_fn_from_matrix(scores), toy_train, np.array([5]), 10)
        assert ndcg == pytest.approx(1.0)

    def test_lower_rank_gives_less(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 4] = 10.0
        scores[:, 5] = 5.0
        high = target_ndcg_at_k(_score_fn_from_matrix(scores), toy_train, np.array([4]), 10)
        low = target_ndcg_at_k(_score_fn_from_matrix(scores), toy_train, np.array([5]), 10)
        assert high > low > 0.0

    def test_out_of_list_gives_zero(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 5] = -10.0
        scores[:, :5] = 1.0
        ndcg = target_ndcg_at_k(_score_fn_from_matrix(scores), toy_train, np.array([5]), 3)
        assert ndcg == 0.0

    def test_exposure_report_bundle(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 5] = 10.0
        report = evaluate_exposure(_score_fn_from_matrix(scores), toy_train, np.array([5]))
        assert report.er_at_5 == pytest.approx(1.0)
        assert report.er_at_10 == pytest.approx(1.0)
        assert report.ndcg_at_10 == pytest.approx(1.0)
        assert set(report.as_dict()) == {"ER@5", "ER@10", "NDCG@10"}


class TestAccuracyMetrics:
    def test_hit_when_test_item_ranked_first(self, toy_train):
        scores = np.zeros((3, 6))
        test_items = np.array([4, 4, 4])
        scores[:, 4] = 10.0
        hr = hit_ratio_at_k(_score_fn_from_matrix(scores), toy_train, test_items, k=10)
        assert hr == pytest.approx(1.0)

    def test_miss_when_test_item_ranked_last(self, toy_train):
        scores = np.ones((3, 6))
        scores[:, 4] = -10.0
        test_items = np.array([4, 4, 4])
        hr = hit_ratio_at_k(_score_fn_from_matrix(scores), toy_train, test_items, k=1)
        assert hr == 0.0

    def test_users_without_test_item_skipped(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 4] = 10.0
        test_items = np.array([4, -1, -1])
        report = evaluate_accuracy(
            _score_fn_from_matrix(scores), toy_train, test_items
        )
        assert report.num_evaluated_users == 1
        assert report.hr_at_10 == pytest.approx(1.0)

    def test_train_positives_do_not_block_hit(self, toy_train):
        # User 0 interacted with items 0 and 5; they must be masked, so a test
        # item scoring below them can still rank first among the rest.
        scores = np.zeros((3, 6))
        scores[0, 0] = 10.0
        scores[0, 5] = 9.0
        scores[0, 4] = 1.0
        test_items = np.array([4, -1, -1])
        hr = hit_ratio_at_k(
            _score_fn_from_matrix(scores), toy_train, test_items, k=1
        )
        assert hr == pytest.approx(1.0)

    def test_ndcg_decreases_with_rank(self, toy_train):
        scores = np.zeros((3, 6))
        scores[:, 1] = 3.0
        scores[:, 2] = 2.0
        scores[:, 4] = 1.0
        test_items = np.array([4, -1, -1])
        ndcg = ndcg_at_k_leave_one_out(
            _score_fn_from_matrix(scores), toy_train, test_items, k=10
        )
        assert 0.0 < ndcg < 1.0

    def test_sampled_protocol_runs(self, toy_train):
        scores = np.random.default_rng(0).normal(size=(3, 6))
        test_items = np.array([4, 0, 5])
        negatives = predraw_negatives(toy_train, test_items, 3, np.random.default_rng(0), 2)
        report = evaluate_accuracy(
            _score_fn_from_matrix(scores), toy_train, test_items, predrawn_negatives=negatives
        )
        assert 0.0 <= report.hr_at_10 <= 1.0

    def test_wrong_test_items_length_raises(self, toy_train):
        with pytest.raises(ModelError):
            hit_ratio_at_k(_score_fn_from_matrix(np.zeros((3, 6))), toy_train, np.array([1, 2]))

    def test_invalid_k_raises(self, toy_train):
        with pytest.raises(ModelError):
            hit_ratio_at_k(
                _score_fn_from_matrix(np.zeros((3, 6))), toy_train, np.array([1, 2, 3]), k=0
            )
