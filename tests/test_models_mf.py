"""Tests for the MF recommender."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.models.mf import MatrixFactorizationModel


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
