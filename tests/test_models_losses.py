"""Tests for the BPR loss and its analytic gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.models.losses import (
    BPRGradients,
    bpr_coefficients_batched,
    bpr_loss,
    bpr_loss_and_gradients,
    sigmoid,
)

from oracles import fold_by_key


def _dense_item_gradient(gradients: BPRGradients, num_items: int) -> np.ndarray:
    """Scatter the item gradient rows into a dense ``(num_items, k)`` array."""
    dense = np.zeros((num_items, gradients.grad_items.shape[1]), dtype=np.float64)
    np.add.at(dense, gradients.item_ids, gradients.grad_items)
    return dense


def _numerical_user_gradient(user, items, pos, neg, epsilon=1e-6):
    grad = np.zeros_like(user)
    for index in range(user.shape[0]):
        shifted = user.copy()
        shifted[index] += epsilon
        upper = bpr_loss(shifted, items, pos, neg)
        shifted[index] -= 2 * epsilon
        lower = bpr_loss(shifted, items, pos, neg)
        grad[index] = (upper - lower) / (2 * epsilon)
    return grad


def _numerical_item_gradient(user, items, pos, neg, epsilon=1e-6):
    grad = np.zeros_like(items)
    for row in range(items.shape[0]):
        for col in range(items.shape[1]):
            shifted = items.copy()
            shifted[row, col] += epsilon
            upper = bpr_loss(user, shifted, pos, neg)
            shifted[row, col] -= 2 * epsilon
            lower = bpr_loss(user, shifted, pos, neg)
            grad[row, col] = (upper - lower) / (2 * epsilon)
    return grad


class TestSigmoid:
    def test_at_zero(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_extreme_values_are_finite(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones_like(x), atol=1e-12)


class TestBPRLossValue:
    def test_zero_pairs_gives_zero_loss(self, rng):
        items = rng.normal(size=(5, 4))
        user = rng.normal(size=4)
        assert bpr_loss(user, items, np.array([], dtype=int), np.array([], dtype=int)) == 0.0

    def test_loss_is_positive(self, rng):
        items = rng.normal(size=(10, 4))
        user = rng.normal(size=4)
        loss = bpr_loss(user, items, np.array([0, 1]), np.array([2, 3]))
        assert loss > 0.0

    def test_perfect_ranking_gives_small_loss(self):
        user = np.array([1.0, 0.0])
        items = np.array([[50.0, 0.0], [-50.0, 0.0]])
        loss = bpr_loss(user, items, np.array([0]), np.array([1]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_inverted_ranking_gives_large_loss(self):
        user = np.array([1.0, 0.0])
        items = np.array([[-50.0, 0.0], [50.0, 0.0]])
        loss = bpr_loss(user, items, np.array([0]), np.array([1]))
        assert loss > 50.0

    def test_mismatched_pairs_raise(self, rng):
        items = rng.normal(size=(5, 4))
        user = rng.normal(size=4)
        with pytest.raises(ModelError):
            bpr_loss(user, items, np.array([0, 1]), np.array([2]))

    @pytest.mark.parametrize(
        "margin", [0.0, 1e-300, -1e-300, 0.5, -0.5, 30.0, -30.0, 700.0, -700.0, 800.0, -800.0]
    )
    def test_one_pair_loss_is_the_two_branch_log_sigmoid_bit_for_bit(self, margin):
        # One pair with scores (margin, 0) has exactly that margin; its loss
        # must be -log(sigmoid(margin)) as the branch-per-sign formula gives it.
        user = np.array([1.0])
        items = np.array([[margin], [0.0]])
        x = np.float64(margin)
        with np.errstate(over="ignore"):
            log_sigmoid = -np.log1p(np.exp(-x)) if x >= 0 else x - np.log1p(np.exp(x))
        expected = float(-np.sum(np.array([log_sigmoid])))
        loss = bpr_loss(user, items, np.array([0]), np.array([1]))
        assert np.float64(loss).tobytes() == np.float64(expected).tobytes()


class TestBPRGradients:
    def test_user_gradient_matches_finite_differences(self, rng):
        items = rng.normal(size=(8, 5))
        user = rng.normal(size=5)
        pos = np.array([0, 1, 2])
        neg = np.array([3, 4, 5])
        result = bpr_loss_and_gradients(user, items, pos, neg)
        numerical = _numerical_user_gradient(user, items, pos, neg)
        np.testing.assert_allclose(result.grad_user, numerical, atol=1e-5)

    def test_item_gradient_matches_finite_differences(self, rng):
        items = rng.normal(size=(6, 4))
        user = rng.normal(size=4)
        pos = np.array([0, 1])
        neg = np.array([2, 3])
        result = bpr_loss_and_gradients(user, items, pos, neg)
        numerical = _numerical_item_gradient(user, items, pos, neg)
        dense = _dense_item_gradient(result, items.shape[0])
        np.testing.assert_allclose(dense, numerical, atol=1e-5)

    def test_repeated_item_gradients_accumulate(self, rng):
        items = rng.normal(size=(5, 3))
        user = rng.normal(size=3)
        pos = np.array([0, 0])
        neg = np.array([1, 2])
        result = bpr_loss_and_gradients(user, items, pos, neg)
        assert result.item_ids.shape[0] == 3  # items 0, 1, 2 deduplicated
        numerical = _numerical_item_gradient(user, items, pos, neg)
        np.testing.assert_allclose(
            _dense_item_gradient(result, 5), numerical, atol=1e-5
        )

    def test_loss_value_matches_bpr_loss(self, rng):
        items = rng.normal(size=(7, 4))
        user = rng.normal(size=4)
        pos = np.array([0, 1])
        neg = np.array([5, 6])
        result = bpr_loss_and_gradients(user, items, pos, neg)
        assert result.loss == pytest.approx(bpr_loss(user, items, pos, neg))

    def test_gradient_only_touches_involved_items(self, rng):
        items = rng.normal(size=(10, 4))
        user = rng.normal(size=4)
        result = bpr_loss_and_gradients(user, items, np.array([1]), np.array([7]))
        assert set(result.item_ids.tolist()) == {1, 7}

    def test_empty_pairs_give_zero_gradients(self, rng):
        items = rng.normal(size=(5, 4))
        user = rng.normal(size=4)
        result = bpr_loss_and_gradients(user, items, np.array([], dtype=int), np.array([], dtype=int))
        assert result.loss == 0.0
        np.testing.assert_array_equal(result.grad_user, np.zeros(4))
        assert result.item_ids.shape == (0,)

    def test_l2_regularisation_increases_loss(self, rng):
        items = rng.normal(size=(6, 4))
        user = rng.normal(size=4)
        pos, neg = np.array([0]), np.array([1])
        base = bpr_loss_and_gradients(user, items, pos, neg, l2_reg=0.0)
        regularised = bpr_loss_and_gradients(user, items, pos, neg, l2_reg=0.1)
        assert regularised.loss > base.loss

    def test_l2_regularisation_changes_gradient(self, rng):
        items = rng.normal(size=(6, 4))
        user = rng.normal(size=4)
        pos, neg = np.array([0]), np.array([1])
        base = bpr_loss_and_gradients(user, items, pos, neg, l2_reg=0.0)
        regularised = bpr_loss_and_gradients(user, items, pos, neg, l2_reg=0.1)
        assert not np.allclose(base.grad_user, regularised.grad_user)

    def test_gradient_descent_reduces_loss(self, rng):
        items = rng.normal(size=(10, 6), scale=0.1)
        user = rng.normal(size=6, scale=0.1)
        pos = np.array([0, 1, 2])
        neg = np.array([5, 6, 7])
        losses = []
        for _ in range(50):
            result = bpr_loss_and_gradients(user, items, pos, neg)
            losses.append(result.loss)
            user = user - 0.1 * result.grad_user
            items[result.item_ids] -= 0.1 * result.grad_items
        assert losses[-1] < losses[0]

    def test_dataclass_round_trip(self, rng):
        gradients = BPRGradients(
            loss=1.0,
            grad_user=np.zeros(3),
            item_ids=np.array([0, 2]),
            grad_items=np.ones((2, 3)),
        )
        dense = _dense_item_gradient(gradients, 4)
        assert dense.shape == (4, 3)
        np.testing.assert_array_equal(dense[1], np.zeros(3))


class TestBatchedCoefficientFold:
    """``bpr_coefficients_batched`` folds per-pair coefficients per (user, item)."""

    NUM_ITEMS = 12

    def _stack(self, pairs):
        segment_ids = np.repeat(np.arange(len(pairs)), [len(p) for p, _ in pairs])
        positives = np.concatenate([p for p, _ in pairs]).astype(np.int64)
        negatives = np.concatenate([n for _, n in pairs]).astype(np.int64)
        return segment_ids, positives, negatives

    @pytest.mark.parametrize("l2_reg", [0.0, 0.01])
    def test_repeated_keys_are_summed(self, rng, l2_reg):
        pairs = [
            (np.array([1, 1, 2]), np.array([5, 6, 7])),  # a repeated positive
            (np.array([3, 4]), np.array([4, 8])),  # a negative equal to a positive
            (np.array([0, 9]), np.array([10, 11])),
        ]
        users = rng.normal(size=(3, 4))
        items = rng.normal(size=(self.NUM_ITEMS, 4))
        batched = bpr_coefficients_batched(users, items, *self._stack(pairs), l2_reg=l2_reg)
        for b, (positives, negatives) in enumerate(pairs):
            expected = bpr_loss_and_gradients(users[b], items, positives, negatives, l2_reg)
            lo, hi = batched.segment_offsets[b], batched.segment_offsets[b + 1]
            np.testing.assert_array_equal(batched.item_ids[lo:hi], expected.item_ids)
            rows = batched.coefficients[lo:hi, None] * users[b][None, :]
            rows = rows + 2.0 * l2_reg * items[expected.item_ids]
            np.testing.assert_allclose(rows, expected.grad_items, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(batched.grad_users[b], expected.grad_user, rtol=1e-12)
            assert batched.losses[b] == pytest.approx(expected.loss, rel=1e-12)

    @staticmethod
    def _sorted_fold(users, items, segment_ids, positives, negatives):
        """The sort-based fold: ``fold_by_key`` over the per-pair coefficients."""
        num_users, num_items = users.shape[0], items.shape[0]
        scores = (users @ items.T).ravel()
        base = segment_ids * num_items
        coefficients = -sigmoid(-(scores[base + positives] - scores[base + negatives]))
        keys, folded = fold_by_key(
            np.concatenate([base + positives, base + negatives]),
            np.concatenate([coefficients, -coefficients]),
        )
        offsets = np.searchsorted(keys // num_items, np.arange(num_users + 1))
        return keys % num_items, folded, offsets

    def _assert_matches_sorted_fold(self, users, items, stacked):
        batched = bpr_coefficients_batched(users, items, *stacked)
        item_ids, folded, offsets = self._sorted_fold(users, items, *stacked)
        np.testing.assert_array_equal(batched.item_ids, item_ids)
        assert batched.coefficients.tobytes() == folded.tobytes()
        np.testing.assert_array_equal(batched.segment_offsets, offsets)

    def test_distinct_keys_match_the_sorted_fold_bit_for_bit(self, rng):
        num_users, num_items = 6, 40
        pairs = []
        for _ in range(num_users):
            drawn = rng.choice(num_items, size=2 * int(rng.integers(0, 8)), replace=False)
            half = drawn.shape[0] // 2
            pairs.append((drawn[:half], drawn[half:]))
        users = rng.normal(size=(num_users, 4))
        items = rng.normal(size=(num_items, 4))
        self._assert_matches_sorted_fold(users, items, self._stack(pairs))

    def test_repeated_keys_match_the_sorted_fold_bit_for_bit(self, rng):
        pairs = [
            (np.array([1, 1, 2, 1]), np.array([5, 6, 7, 5])),
            (np.array([3, 4]), np.array([4, 3])),
            (np.array([0, 9]), np.array([10, 11])),
        ]
        users = rng.normal(size=(3, 4))
        items = rng.normal(size=(self.NUM_ITEMS, 4))
        self._assert_matches_sorted_fold(users, items, self._stack(pairs))
