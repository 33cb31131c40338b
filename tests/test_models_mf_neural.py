"""Tests for the MF recommender and the MLP scorer (learnable Upsilon)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.models.mf import MatrixFactorizationModel
from repro.models.neural import MLPScorer


class TestMatrixFactorizationModel:
    def test_shapes(self):
        model = MatrixFactorizationModel(10, 20, num_factors=8, rng=0)
        assert model.user_factors.shape == (10, 8)
        assert model.item_factors.shape == (20, 8)
        assert model.num_users == 10
        assert model.num_items == 20
        assert model.num_factors == 8

    def test_invalid_construction(self):
        with pytest.raises(ModelError):
            MatrixFactorizationModel(0, 10)
        with pytest.raises(ModelError):
            MatrixFactorizationModel(10, 10, num_factors=0)
        with pytest.raises(ModelError):
            MatrixFactorizationModel(10, 10, init_scale=0.0)

    def test_score_is_dot_product(self):
        model = MatrixFactorizationModel(2, 3, num_factors=2, rng=0)
        model.item_factors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        scores = model.score_items(np.array([2.0, 3.0]))
        np.testing.assert_allclose(scores, [2.0, 3.0, 5.0])

    def test_score_subset_of_items(self):
        model = MatrixFactorizationModel(2, 4, num_factors=2, rng=0)
        user = np.array([1.0, 1.0])
        all_scores = model.score_items(user)
        subset = model.score_items(user, items=np.array([1, 3]))
        np.testing.assert_allclose(subset, all_scores[[1, 3]])

    def test_score_user_uses_stored_vector(self):
        model = MatrixFactorizationModel(3, 4, num_factors=2, rng=0)
        np.testing.assert_allclose(
            model.score_user(1), model.score_items(model.user_factors[1])
        )

    def test_wrong_vector_shape_raises(self):
        model = MatrixFactorizationModel(2, 3, num_factors=2, rng=0)
        with pytest.raises(ModelError):
            model.score_items(np.zeros(3))

    def test_copy_is_independent(self):
        model = MatrixFactorizationModel(3, 3, num_factors=2, rng=0)
        clone = model.copy()
        clone.item_factors[0, 0] += 1.0
        assert model.item_factors[0, 0] != clone.item_factors[0, 0]

    def test_out_of_range_user(self):
        model = MatrixFactorizationModel(3, 3, num_factors=2, rng=0)
        with pytest.raises(ModelError):
            model.score_user(5)

    def test_deterministic_init(self):
        a = MatrixFactorizationModel(3, 3, num_factors=2, rng=11)
        b = MatrixFactorizationModel(3, 3, num_factors=2, rng=11)
        np.testing.assert_array_equal(a.item_factors, b.item_factors)


class TestMLPScorer:
    def test_parameter_round_trip(self):
        scorer = MLPScorer(4, hidden_units=6, rng=0)
        parameters = scorer.get_parameters()
        assert parameters.shape == (scorer.num_parameters,)
        clone = MLPScorer(4, hidden_units=6, rng=1)
        clone.set_parameters(parameters)
        np.testing.assert_allclose(clone.get_parameters(), parameters)

    def test_set_parameters_wrong_shape(self):
        scorer = MLPScorer(4, hidden_units=6, rng=0)
        with pytest.raises(ModelError):
            scorer.set_parameters(np.zeros(3))

    def test_score_shape(self, rng):
        scorer = MLPScorer(5, hidden_units=4, rng=0)
        users = rng.normal(size=(7, 5))
        items = rng.normal(size=(7, 5))
        assert scorer.score(users, items).shape == (7,)

    def test_mismatched_batch_raises(self, rng):
        scorer = MLPScorer(5, rng=0)
        with pytest.raises(ModelError):
            scorer.score(rng.normal(size=(3, 5)), rng.normal(size=(4, 5)))

    def test_wrong_feature_dim_raises(self, rng):
        scorer = MLPScorer(5, rng=0)
        with pytest.raises(ModelError):
            scorer.score(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_input_gradients_match_finite_differences(self, rng):
        scorer = MLPScorer(3, hidden_units=5, rng=0)
        users = rng.normal(size=(2, 3))
        items = rng.normal(size=(2, 3))
        _, grads = scorer.score_and_gradients(users, items)
        epsilon = 1e-6
        for row in range(2):
            for col in range(3):
                for which, grad in (("user", grads.grad_user), ("item", grads.grad_item)):
                    shifted_users = users.copy()
                    shifted_items = items.copy()
                    if which == "user":
                        shifted_users[row, col] += epsilon
                    else:
                        shifted_items[row, col] += epsilon
                    upper = scorer.score(shifted_users, shifted_items).sum()
                    if which == "user":
                        shifted_users[row, col] -= 2 * epsilon
                    else:
                        shifted_items[row, col] -= 2 * epsilon
                    lower = scorer.score(shifted_users, shifted_items).sum()
                    numerical = (upper - lower) / (2 * epsilon)
                    assert grad[row, col] == pytest.approx(numerical, abs=1e-5)

    def test_parameter_gradients_match_finite_differences(self, rng):
        scorer = MLPScorer(3, hidden_units=4, rng=0)
        users = rng.normal(size=(3, 3))
        items = rng.normal(size=(3, 3))
        _, grads = scorer.score_and_gradients(users, items)
        flat = scorer.get_parameters()
        epsilon = 1e-6
        for index in range(0, flat.shape[0], 7):  # spot-check every 7th parameter
            shifted = flat.copy()
            shifted[index] += epsilon
            scorer.set_parameters(shifted)
            upper = scorer.score(users, items).sum()
            shifted[index] -= 2 * epsilon
            scorer.set_parameters(shifted)
            lower = scorer.score(users, items).sum()
            scorer.set_parameters(flat)
            numerical = (upper - lower) / (2 * epsilon)
            assert grads.grad_params[index] == pytest.approx(numerical, abs=1e-4)

    def test_upstream_weighting(self, rng):
        scorer = MLPScorer(3, hidden_units=4, rng=0)
        users = rng.normal(size=(2, 3))
        items = rng.normal(size=(2, 3))
        _, unit = scorer.score_and_gradients(users, items, np.array([1.0, 0.0]))
        np.testing.assert_allclose(unit.grad_user[1], np.zeros(3))

    def test_copy_is_equivalent(self, rng):
        scorer = MLPScorer(3, hidden_units=4, rng=0)
        clone = scorer.copy()
        users = rng.normal(size=(2, 3))
        items = rng.normal(size=(2, 3))
        np.testing.assert_allclose(scorer.score(users, items), clone.score(users, items))

    def test_invalid_construction(self):
        with pytest.raises(ModelError):
            MLPScorer(0)
        with pytest.raises(ModelError):
            MLPScorer(4, hidden_units=0)
