"""Tests for client updates, gradient clipping and the DP noise mechanism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FederationError
from repro.federated.privacy import GaussianNoiseMechanism, clip_rows
from repro.federated.updates import ClientUpdate, SparseRoundUpdates, scatter_rows


def _make_update(rows=None, ids=None, malicious=False):
    if rows is None:
        rows = np.array([[3.0, 4.0], [0.0, 0.0], [0.3, 0.4]])
        ids = np.array([1, 4, 7])
    return ClientUpdate(
        client_id=0,
        item_ids=ids,
        item_gradients=rows,
        is_malicious=malicious,
    )


class TestClientUpdate:
    def test_nonzero_row_count_ignores_zero_rows(self):
        update = _make_update()
        assert update.num_nonzero_rows == 2

    def test_max_row_norm(self):
        update = _make_update()
        assert update.max_row_norm == pytest.approx(5.0)

    def test_empty_update(self):
        update = ClientUpdate(
            client_id=1, item_ids=np.array([], dtype=int), item_gradients=np.empty((0, 2))
        )
        assert update.num_nonzero_rows == 0
        assert update.max_row_norm == 0.0

    def test_to_dense_scatters_rows(self):
        update = _make_update()
        dense = update.to_dense(10, 2)
        assert dense.shape == (10, 2)
        np.testing.assert_allclose(dense[1], [3.0, 4.0])
        np.testing.assert_allclose(dense[0], [0.0, 0.0])

    def test_to_dense_accumulates_duplicate_ids(self):
        update = ClientUpdate(
            client_id=0,
            item_ids=np.array([2, 2]),
            item_gradients=np.array([[1.0, 0.0], [2.0, 0.0]]),
        )
        dense = update.to_dense(4, 2)
        np.testing.assert_allclose(dense[2], [3.0, 0.0])

    def test_mismatched_shapes_raise(self):
        with pytest.raises(FederationError):
            ClientUpdate(client_id=0, item_ids=np.array([1, 2]), item_gradients=np.ones((3, 2)))

    def test_copy_is_deep(self):
        update = _make_update()
        clone = update.copy()
        clone.item_gradients[0, 0] = 99.0
        assert update.item_gradients[0, 0] == 3.0

    def test_malicious_flag_is_metadata(self):
        update = _make_update(malicious=True)
        assert update.is_malicious


class TestClipRows:
    def test_large_rows_clipped_to_bound(self):
        rows = np.array([[3.0, 4.0], [6.0, 8.0]])
        clipped = clip_rows(rows, 1.0)
        norms = np.linalg.norm(clipped, axis=1)
        np.testing.assert_allclose(norms, [1.0, 1.0])

    def test_small_rows_untouched(self):
        rows = np.array([[0.3, 0.4]])
        np.testing.assert_allclose(clip_rows(rows, 1.0), rows)

    def test_direction_preserved(self):
        rows = np.array([[3.0, 4.0]])
        clipped = clip_rows(rows, 1.0)
        np.testing.assert_allclose(clipped[0] / np.linalg.norm(clipped[0]), [0.6, 0.8])

    def test_zero_rows_stay_zero(self):
        rows = np.zeros((2, 3))
        np.testing.assert_allclose(clip_rows(rows, 1.0), rows)

    def test_empty_input(self):
        assert clip_rows(np.empty((0, 3)), 1.0).shape == (0, 3)

    def test_invalid_bound(self):
        with pytest.raises(FederationError):
            clip_rows(np.ones((1, 2)), 0.0)


class TestGaussianNoiseMechanism:
    def test_no_noise_returns_same_object(self):
        mechanism = GaussianNoiseMechanism(noise_scale=0.0, clip_norm=1.0)
        update = _make_update()
        assert mechanism.apply(update) is update

    def test_noise_changes_gradients(self):
        mechanism = GaussianNoiseMechanism(noise_scale=0.5, clip_norm=1.0, rng=0)
        update = _make_update()
        noisy = mechanism.apply(update)
        assert noisy is not update
        assert not np.allclose(noisy.item_gradients, update.item_gradients)

    def test_noise_scale_matches_eq5(self):
        # Standard deviation of the added noise must be mu * C.
        mechanism = GaussianNoiseMechanism(noise_scale=0.5, clip_norm=2.0, rng=0)
        assert mechanism.noise_stddev == pytest.approx(1.0)
        rows = np.zeros((2000, 4))
        update = ClientUpdate(client_id=0, item_ids=np.arange(2000), item_gradients=rows)
        noisy = mechanism.apply(update)
        assert np.std(noisy.item_gradients) == pytest.approx(1.0, rel=0.05)

    def test_clip_before_noise(self):
        mechanism = GaussianNoiseMechanism(noise_scale=0.0, clip_norm=1.0, clip_before_noise=True)
        update = _make_update()
        clipped = mechanism.apply(update)
        assert clipped.max_row_norm <= 1.0 + 1e-9

    def test_original_update_not_mutated(self):
        mechanism = GaussianNoiseMechanism(noise_scale=0.5, clip_norm=1.0, rng=0)
        update = _make_update()
        before = update.item_gradients.copy()
        mechanism.apply(update)
        np.testing.assert_array_equal(update.item_gradients, before)

    def test_noise_is_one_draw_of_the_row_shape(self):
        # The privacy stream advances by exactly one normal per gradient
        # entry, so noisy runs replay the same stream draw for draw.
        stream = np.random.default_rng(17)
        mechanism = GaussianNoiseMechanism(noise_scale=0.5, clip_norm=2.0, rng=stream)
        update = _make_update()
        noisy = mechanism.apply(update)
        reference = np.random.default_rng(17)
        expected = update.item_gradients + reference.normal(
            0.0, 1.0, size=update.item_gradients.shape
        )
        np.testing.assert_array_equal(noisy.item_gradients, expected)
        assert stream.bit_generator.state == reference.bit_generator.state

    def test_invalid_parameters(self):
        with pytest.raises(FederationError):
            GaussianNoiseMechanism(noise_scale=-1.0, clip_norm=1.0)
        with pytest.raises(FederationError):
            GaussianNoiseMechanism(noise_scale=0.0, clip_norm=0.0)


def _round_fixture():
    updates = [
        ClientUpdate(
            client_id=0,
            item_ids=np.array([1, 4]),
            item_gradients=np.array([[1.0, 2.0], [3.0, 4.0]]),
            loss=0.5,
        ),
        ClientUpdate(
            client_id=3,
            item_ids=np.array([4]),
            item_gradients=np.array([[5.0, 6.0]]),
            loss=0.25,
            is_malicious=True,
        ),
        ClientUpdate(
            client_id=7,
            item_ids=np.empty(0, dtype=np.int64),
            item_gradients=np.empty((0, 2)),
        ),
    ]
    return updates, SparseRoundUpdates.from_client_updates(updates)


class TestSparseRoundUpdates:
    def test_csr_layout(self):
        _, packed = _round_fixture()
        assert packed.num_clients == 3
        assert len(packed) == 3
        np.testing.assert_array_equal(packed.client_offsets, [0, 2, 3, 3])
        np.testing.assert_array_equal(packed.client_ids, [0, 3, 7])
        np.testing.assert_array_equal(packed.item_ids, [1, 4, 4])

    def test_roundtrip_preserves_everything(self):
        updates, packed = _round_fixture()
        restored = packed.to_client_updates()
        assert len(restored) == len(updates)
        for original, copy in zip(updates, restored):
            assert original.client_id == copy.client_id
            np.testing.assert_array_equal(original.item_ids, copy.item_ids)
            np.testing.assert_allclose(original.item_gradients, copy.item_gradients)
            assert original.loss == copy.loss
            assert original.is_malicious == copy.is_malicious

    def test_sum_item_gradient_matches_dense_sum(self):
        updates, packed = _round_fixture()
        expected = sum(u.to_dense(10, 2) for u in updates)
        np.testing.assert_allclose(packed.sum_item_gradient(10, 2), expected)

    def test_extended_appends_clients(self):
        _, packed = _round_fixture()
        extra = ClientUpdate(
            client_id=9,
            item_ids=np.array([0]),
            item_gradients=np.array([[7.0, 8.0]]),
            is_malicious=True,
        )
        merged = packed.extended([extra])
        assert merged.num_clients == 4
        np.testing.assert_array_equal(merged.client_ids, [0, 3, 7, 9])
        np.testing.assert_array_equal(merged.client_offsets, [0, 2, 3, 3, 4])
        assert bool(merged.malicious_mask[3])

    def test_extended_with_nothing_is_identity(self):
        _, packed = _round_fixture()
        assert packed.extended([]) is packed

    def test_empty_round_can_be_extended(self):
        # Regression: an empty round built without num_factors used to carry
        # (0, 0) grad_rows that crashed the concatenation in extended().
        empty = SparseRoundUpdates.from_client_updates([])
        extra = ClientUpdate(
            client_id=2, item_ids=np.array([1]), item_gradients=np.array([[1.0, 2.0]])
        )
        merged = empty.extended([extra])
        assert merged.num_clients == 1
        assert merged.grad_rows.shape == (1, 2)
        np.testing.assert_array_equal(merged.client_offsets, [0, 1])

    def test_dense_over_union_matches_full_dense(self):
        updates, packed = _round_fixture()
        tensor, union = packed.dense_over_union()
        np.testing.assert_array_equal(union, [1, 4])
        full = np.stack([u.to_dense(10, 2) for u in updates])
        np.testing.assert_allclose(tensor, full[:, union, :])

    def test_offsets_must_align(self):
        with pytest.raises(FederationError):
            SparseRoundUpdates(
                client_ids=np.array([0, 1]),
                item_ids=np.array([2]),
                grad_rows=np.ones((1, 2)),
                client_offsets=np.array([0, 1]),
                losses=np.zeros(2),
                malicious_mask=np.zeros(2, dtype=bool),
            )


class TestScatterRows:
    def test_accumulates_duplicates(self):
        dense = scatter_rows(
            np.array([2, 2, 0]), np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 5.0]]), 4, 2
        )
        np.testing.assert_allclose(dense[2], [3.0, 0.0])
        np.testing.assert_allclose(dense[0], [0.0, 5.0])

    def test_empty(self):
        dense = scatter_rows(np.empty(0, dtype=np.int64), np.empty((0, 2)), 4, 2)
        np.testing.assert_allclose(dense, np.zeros((4, 2)))


class TestApplyRound:
    def test_noop_fast_path_returns_same_object(self):
        mechanism = GaussianNoiseMechanism(noise_scale=0.0, clip_norm=1.0)
        _, packed = _round_fixture()
        assert mechanism.apply_round(packed) is packed

    def test_matches_per_update_apply(self):
        # The sparse path must add the exact same noise as applying the
        # mechanism to the same clients one at a time.
        updates, packed = _round_fixture()
        mech_a = GaussianNoiseMechanism(
            noise_scale=0.5, clip_norm=1.0, clip_before_noise=True, rng=123
        )
        mech_b = GaussianNoiseMechanism(
            noise_scale=0.5, clip_norm=1.0, clip_before_noise=True, rng=123
        )
        one_by_one = [mech_a.apply(u) for u in updates]
        batched = mech_b.apply_round(packed).to_client_updates()
        for expected, actual in zip(one_by_one, batched):
            np.testing.assert_allclose(expected.item_gradients, actual.item_gradients)

    def test_noise_draws_only_the_uploaded_rows(self):
        # One draw per uploading client, in upload order; client 7 uploads
        # no rows and draws nothing.
        updates, packed = _round_fixture()
        stream = np.random.default_rng(5)
        mechanism = GaussianNoiseMechanism(noise_scale=0.5, clip_norm=1.0, rng=stream)
        noisy = mechanism.apply_round(packed).to_client_updates()
        reference = np.random.default_rng(5)
        for original, actual in zip(updates, noisy):
            if original.item_gradients.shape[0] == 0:
                assert actual.item_gradients.shape == (0, 2)
                continue
            expected = original.item_gradients + reference.normal(
                0.0, 0.5, size=original.item_gradients.shape
            )
            np.testing.assert_array_equal(actual.item_gradients, expected)
        assert stream.bit_generator.state == reference.bit_generator.state

    def test_original_round_not_mutated(self):
        _, packed = _round_fixture()
        before = packed.grad_rows.copy()
        GaussianNoiseMechanism(noise_scale=0.5, clip_norm=1.0, rng=0).apply_round(packed)
        np.testing.assert_array_equal(packed.grad_rows, before)
