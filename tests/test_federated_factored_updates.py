"""Tests for the lazy factored round representation.

``FactoredRoundUpdates`` must be indistinguishable from the CSR-style
``SparseRoundUpdates`` it encodes: every aggregator, the DP mechanism and the
observer conversions have to produce the same numbers whether they consume
the factored form directly (sum / mean / norm bounding, clipping) or through
``materialize()`` (the robust rules).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FederationError
from repro.federated.aggregation import make_aggregator
from repro.federated.config import FederatedConfig
from repro.federated.privacy import GaussianNoiseMechanism
from repro.federated.simulation import FederatedSimulation
from repro.federated.updates import (
    ClientUpdate,
    FactoredRoundUpdates,
    SparseRoundUpdates,
)
from repro.rng import SeedSequenceFactory

NUM_ITEMS = 40
NUM_FACTORS = 6

ALL_AGGREGATORS = [
    ("sum", {}),
    ("mean", {}),
    ("trimmed_mean", {"trim_ratio": 0.2}),
    ("median", {}),
    ("krum", {"num_malicious": 1, "multi_krum": 2}),
    ("norm_bounding", {"max_row_norm": 0.05}),
]


def _make_factored(
    rng: np.random.Generator,
    num_clients: int = 6,
    ridge: float = 0.0,
    item_factors: np.ndarray | None = None,
) -> FactoredRoundUpdates:
    """A random factored round with sorted per-client item segments."""
    counts = rng.integers(1, 8, size=num_clients)
    offsets = np.zeros(num_clients + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    item_ids = np.concatenate(
        [np.sort(rng.choice(NUM_ITEMS, size=count, replace=False)) for count in counts]
    )
    return FactoredRoundUpdates(
        client_ids=np.arange(num_clients, dtype=np.int64),
        item_ids=item_ids,
        coefficients=rng.normal(scale=0.5, size=item_ids.shape[0]),
        client_offsets=offsets,
        user_vectors=rng.normal(scale=0.3, size=(num_clients, NUM_FACTORS)),
        losses=rng.random(num_clients),
        malicious_mask=np.zeros(num_clients, dtype=bool),
        ridge=ridge,
        ridge_matrix=item_factors if ridge != 0.0 else None,
    )


def _empty_factored() -> FactoredRoundUpdates:
    return FactoredRoundUpdates(
        client_ids=np.empty(0, dtype=np.int64),
        item_ids=np.empty(0, dtype=np.int64),
        coefficients=np.empty(0, dtype=np.float64),
        client_offsets=np.zeros(1, dtype=np.int64),
        user_vectors=np.empty((0, NUM_FACTORS), dtype=np.float64),
        losses=np.empty(0, dtype=np.float64),
        malicious_mask=np.empty(0, dtype=bool),
    )


def _malicious_update(rng: np.random.Generator, client_id: int = 100) -> ClientUpdate:
    ids = np.sort(rng.choice(NUM_ITEMS, size=5, replace=False))
    return ClientUpdate(
        client_id=client_id,
        item_ids=ids,
        item_gradients=rng.normal(scale=0.4, size=(5, NUM_FACTORS)),
        is_malicious=True,
    )


class TestMaterialize:
    def test_rows_match_manual_reconstruction(self, rng):
        factored = _make_factored(rng)
        sparse = factored.materialize()
        for index in range(factored.num_clients):
            start, stop = factored.client_offsets[index], factored.client_offsets[index + 1]
            expected = (
                factored.coefficients[start:stop, None]
                * factored.user_vectors[index][None, :]
            )
            np.testing.assert_allclose(sparse.grad_rows[start:stop], expected, atol=1e-15)
        np.testing.assert_array_equal(sparse.item_ids, factored.item_ids)
        np.testing.assert_array_equal(sparse.client_offsets, factored.client_offsets)
        np.testing.assert_array_equal(sparse.losses, factored.losses)

    def test_ridge_term_included(self, rng):
        item_factors = rng.normal(scale=0.3, size=(NUM_ITEMS, NUM_FACTORS))
        factored = _make_factored(rng, ridge=0.02, item_factors=item_factors)
        sparse = factored.materialize()
        row = 0
        expected = (
            factored.coefficients[row] * factored.user_vectors[0]
            + 0.02 * item_factors[factored.item_ids[row]]
        )
        np.testing.assert_allclose(sparse.grad_rows[row], expected, atol=1e-15)

    def test_ridge_requires_matrix(self, rng):
        with pytest.raises(FederationError):
            _make_factored(rng, ridge=0.1, item_factors=None)

    def test_tail_appended_in_materialized_form(self, rng):
        factored = _make_factored(rng).extended([_malicious_update(rng)])
        sparse = factored.materialize()
        assert sparse.num_clients == factored.num_clients
        assert bool(sparse.malicious_mask[-1])

    def test_to_client_updates_roundtrip(self, rng):
        factored = _make_factored(rng).extended([_malicious_update(rng)])
        updates = factored.to_client_updates()
        assert len(updates) == factored.num_clients
        repacked = SparseRoundUpdates.from_client_updates(updates)
        np.testing.assert_allclose(
            repacked.sum_item_gradient(NUM_ITEMS, NUM_FACTORS),
            factored.sum_item_gradient(NUM_ITEMS, NUM_FACTORS),
            atol=1e-12,
        )


class TestAggregatorEquivalence:
    @pytest.mark.parametrize("name,options", ALL_AGGREGATORS)
    def test_factored_matches_csr(self, rng, name, options):
        factored = _make_factored(rng)
        aggregator = make_aggregator(name, **options)
        lazy = aggregator.aggregate(factored, NUM_ITEMS, NUM_FACTORS)
        dense = aggregator.aggregate(factored.materialize(), NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(lazy, dense, atol=1e-12)

    @pytest.mark.parametrize("name,options", ALL_AGGREGATORS)
    def test_factored_with_tail_matches_csr(self, rng, name, options):
        factored = _make_factored(rng).extended(
            [_malicious_update(rng, 100), _malicious_update(rng, 101)]
        )
        aggregator = make_aggregator(name, **options)
        lazy = aggregator.aggregate(factored, NUM_ITEMS, NUM_FACTORS)
        dense = aggregator.aggregate(factored.materialize(), NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(lazy, dense, atol=1e-12)

    @pytest.mark.parametrize("name,options", ALL_AGGREGATORS)
    def test_ridge_round_matches_csr(self, rng, name, options):
        item_factors = rng.normal(scale=0.3, size=(NUM_ITEMS, NUM_FACTORS))
        factored = _make_factored(rng, ridge=0.02, item_factors=item_factors)
        aggregator = make_aggregator(name, **options)
        lazy = aggregator.aggregate(factored, NUM_ITEMS, NUM_FACTORS)
        dense = aggregator.aggregate(factored.materialize(), NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(lazy, dense, atol=1e-12)

    @pytest.mark.parametrize("name,options", ALL_AGGREGATORS)
    def test_empty_round(self, name, options):
        aggregator = make_aggregator(name, **options)
        result = aggregator.aggregate(_empty_factored(), NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(result, 0.0)

    def test_mean_divides_by_total_clients_including_tail(self, rng):
        factored = _make_factored(rng, num_clients=3).extended([_malicious_update(rng)])
        assert factored.num_clients == 4
        result = make_aggregator("mean").aggregate(factored, NUM_ITEMS, NUM_FACTORS)
        expected = factored.sum_item_gradient(NUM_ITEMS, NUM_FACTORS) / 4
        np.testing.assert_allclose(result, expected, atol=1e-15)


class TestPrivacyOnFactoredRounds:
    def test_noise_free_round_passes_through_unchanged(self, rng):
        factored = _make_factored(rng)
        mechanism = GaussianNoiseMechanism(noise_scale=0.0, clip_norm=1.0, rng=0)
        assert mechanism.apply_round(factored) is factored

    def test_clip_only_stays_factored_and_matches_csr(self, rng):
        factored = _make_factored(rng)
        clip_norm = 0.05
        mechanism = GaussianNoiseMechanism(
            noise_scale=0.0, clip_norm=clip_norm, clip_before_noise=True, rng=0
        )
        clipped = mechanism.apply_round(factored)
        assert isinstance(clipped, FactoredRoundUpdates)
        sparse_mechanism = GaussianNoiseMechanism(
            noise_scale=0.0, clip_norm=clip_norm, clip_before_noise=True, rng=0
        )
        reference = sparse_mechanism.apply_round(factored.materialize())
        clipped_rows = clipped.materialize().grad_rows
        np.testing.assert_allclose(clipped_rows, reference.grad_rows, atol=1e-12)
        assert float(np.linalg.norm(clipped_rows, axis=1).max()) <= clip_norm + 1e-9

    def test_clip_with_tail_clips_tail_rows_too(self, rng):
        factored = _make_factored(rng).extended([_malicious_update(rng)])
        clipped = factored.clipped_rows(0.05)
        rows = clipped.materialize().grad_rows
        assert float(np.linalg.norm(rows, axis=1).max()) <= 0.05 + 1e-9
        reference = GaussianNoiseMechanism(
            noise_scale=0.0, clip_norm=0.05, clip_before_noise=True, rng=0
        ).apply_round(factored.materialize())
        np.testing.assert_allclose(rows, reference.grad_rows, atol=1e-12)

    def test_noise_matches_csr_path_exactly(self, rng):
        # Noise destroys the rank-1 structure, so the factored round is
        # materialised first and then shares the sparse noise stream — the
        # same seed must therefore produce bit-identical noisy rows.
        factored = _make_factored(rng)
        noisy_factored = GaussianNoiseMechanism(
            noise_scale=0.1, clip_norm=1.0, clip_before_noise=True, rng=123
        ).apply_round(factored)
        noisy_sparse = GaussianNoiseMechanism(
            noise_scale=0.1, clip_norm=1.0, clip_before_noise=True, rng=123
        ).apply_round(factored.materialize())
        assert isinstance(noisy_factored, SparseRoundUpdates)
        np.testing.assert_array_equal(noisy_factored.grad_rows, noisy_sparse.grad_rows)

    def test_ridge_round_clip_falls_back_to_csr(self, rng):
        item_factors = rng.normal(scale=0.3, size=(NUM_ITEMS, NUM_FACTORS))
        factored = _make_factored(rng, ridge=0.02, item_factors=item_factors)
        mechanism = GaussianNoiseMechanism(
            noise_scale=0.0, clip_norm=0.05, clip_before_noise=True, rng=0
        )
        clipped = mechanism.apply_round(factored)
        assert isinstance(clipped, SparseRoundUpdates)
        norms = np.linalg.norm(clipped.grad_rows, axis=1)
        assert float(norms.max()) <= 0.05 + 1e-9

    def test_clipping_factored_rows_with_ridge_rejected(self, rng):
        item_factors = rng.normal(scale=0.3, size=(NUM_ITEMS, NUM_FACTORS))
        factored = _make_factored(rng, ridge=0.02, item_factors=item_factors)
        with pytest.raises(FederationError):
            factored.clipped_rows(1.0)


class TestEngineEmitsFactoredForm:
    def _simulation(self, small_split, **config_kwargs) -> FederatedSimulation:
        defaults = dict(num_factors=8, clients_per_round=16, num_epochs=1)
        defaults.update(config_kwargs)
        return FederatedSimulation(
            train=small_split.train,
            config=FederatedConfig(**defaults),
            seed=SeedSequenceFactory(3),
        )

    def test_mf_round_is_factored(self, small_split):
        simulation = self._simulation(small_split)
        round_updates, _ = simulation._trainer.train_round(
            list(range(16)), simulation.server.item_factors
        )
        assert isinstance(round_updates, FactoredRoundUpdates)
        assert round_updates.tail is None

    def test_mf_round_with_l2_carries_ridge(self, small_split):
        simulation = self._simulation(small_split, l2_reg=0.01)
        round_updates, _ = simulation._trainer.train_round(
            list(range(16)), simulation.server.item_factors
        )
        assert isinstance(round_updates, FactoredRoundUpdates)
        assert round_updates.ridge == pytest.approx(0.02)
        assert round_updates.ridge_matrix is simulation.server.item_factors

    def test_empty_round_counts_but_changes_nothing(self, small_split):
        simulation = self._simulation(small_split)
        server = simulation.server
        before = server.item_factors.copy()
        server.apply_round(_empty_factored())
        assert server.rounds_applied == 1
        np.testing.assert_array_equal(server.item_factors, before)
