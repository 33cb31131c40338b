"""Tests for clients, the server and the federated configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.store import InteractionStore
from repro.exceptions import ConfigurationError, FederationError
from repro.federated.client import MaliciousClient
from repro.federated.config import FederatedConfig
from repro.federated.engine import BatchedRoundTrainer
from repro.federated.privacy import GaussianNoiseMechanism
from repro.federated.server import Server
from repro.federated.updates import ClientUpdate

NUM_ITEMS = 30
NUM_FACTORS = 4


def _benign_trainer(positives=(0, 1, 2), seed=0, resample_negatives=True):
    """A one-user federation: the benign client is row 0 of the trainer's arrays."""
    positives = np.asarray(positives, dtype=np.int64)
    store = InteractionStore(1, NUM_ITEMS, np.array([0, positives.shape[0]]), positives)
    config = FederatedConfig(
        num_factors=NUM_FACTORS,
        learning_rate=0.1,
        resample_negatives_each_epoch=resample_negatives,
    )
    return BatchedRoundTrainer(
        np.random.default_rng(seed).normal(0.0, config.init_scale, size=(1, NUM_FACTORS)),
        config,
        GaussianNoiseMechanism(noise_scale=0.0, clip_norm=config.clip_norm, rng=seed),
        NUM_ITEMS,
        round_rng=np.random.default_rng(seed),
        store=store,
    )


def _local_train(trainer, item_factors):
    """One round training the lone client, its upload as a :class:`ClientUpdate`."""
    round_updates, _ = trainer.train_round(np.array([0]), item_factors)
    [update] = round_updates.to_client_updates()
    return update


class TestFederatedConfig:
    def test_defaults_are_paper_defaults(self):
        config = FederatedConfig()
        assert config.num_factors == 32
        assert config.learning_rate == pytest.approx(0.01)
        assert config.num_epochs == 200
        assert config.clip_norm == pytest.approx(1.0)
        config.validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_factors", 0),
            ("learning_rate", 0.0),
            ("clients_per_round", 0),
            ("num_epochs", 0),
            ("noise_scale", -0.1),
            ("clip_norm", 0.0),
            ("l2_reg", -1.0),
            ("init_scale", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        from dataclasses import replace

        config = replace(FederatedConfig(), **{field: value})
        with pytest.raises(ConfigurationError):
            config.validate()


class TestBenignClient:
    def test_local_train_returns_update_with_touched_items(self, rng):
        trainer = _benign_trainer()
        update = _local_train(trainer, rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert isinstance(update, ClientUpdate)
        assert update.client_id == 0
        assert not update.is_malicious
        # Positives must be among the touched rows.
        assert set([0, 1, 2]).issubset(set(update.item_ids.tolist()))

    def test_local_train_updates_private_vector(self, rng):
        trainer = _benign_trainer()
        before = trainer.user_factors[0].copy()
        update = _local_train(trainer, rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert not np.allclose(before, trainer.user_factors[0])
        # The private vector never leaves the client: the upload is item rows.
        assert update.item_gradients.shape == (update.item_ids.shape[0], NUM_FACTORS)

    def test_gradient_rows_bounded_by_twice_profile(self, rng):
        trainer = _benign_trainer(positives=range(5))
        update = _local_train(trainer, rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert update.num_nonzero_rows <= 2 * 5

    def test_loss_is_positive(self, rng):
        trainer = _benign_trainer()
        round_updates, loss = trainer.train_round(
            np.array([0]), rng.normal(size=(NUM_ITEMS, NUM_FACTORS))
        )
        [update] = round_updates.to_client_updates()
        assert update.loss > 0.0
        assert loss == update.loss

    def test_repeated_training_reduces_loss(self, rng):
        trainer = _benign_trainer(positives=range(6), seed=1)
        item_factors = rng.normal(size=(NUM_ITEMS, NUM_FACTORS), scale=0.1)
        losses = []
        for _ in range(30):
            update = _local_train(trainer, item_factors)
            losses.append(update.loss)
            item_factors = item_factors - 0.1 * update.to_dense(NUM_ITEMS, NUM_FACTORS)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_pairs_need_a_draw_first(self):
        # A client that never drew has no negatives to reuse, so even under
        # fixed negatives its first round draws from the round stream.
        trainer = _benign_trainer(resample_negatives=False)
        stream = trainer._round_rng.bit_generator.state
        offsets, positives, negatives = trainer.draw_round_pairs(np.array([0]))
        assert trainer._round_rng.bit_generator.state != stream
        np.testing.assert_array_equal(offsets, [0, 3])
        np.testing.assert_array_equal(positives, [0, 1, 2])
        assert not set(negatives.tolist()) & {0, 1, 2}

    def test_fixed_negatives_drawn_once(self):
        trainer = _benign_trainer(positives=range(20), resample_negatives=False)
        # 20 positives in a 30-item catalog leave a quota of 10 negatives,
        # paired with the first 10 positives.
        offsets, positives, negatives = trainer.draw_round_pairs(np.array([0]))
        np.testing.assert_array_equal(offsets, [0, 10])
        np.testing.assert_array_equal(positives, np.arange(10))
        assert sorted(negatives.tolist()) == list(range(20, 30))
        stream = trainer._round_rng.bit_generator.state
        kept = trainer.draw_round_pairs(np.array([0]))
        assert trainer._round_rng.bit_generator.state == stream
        np.testing.assert_array_equal(kept[0], offsets)
        np.testing.assert_array_equal(kept[1], positives)
        np.testing.assert_array_equal(kept[2], negatives)


class TestMaliciousClient:
    def test_default_profile_is_empty(self):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        assert client.profile.shape == (0,)

    def test_empty_profile_training_uploads_nothing(self, rng):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        update = client.train_on_profile(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert update.num_nonzero_rows == 0
        assert update.is_malicious

    def test_set_profile_deduplicates(self):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        client.set_profile(np.array([3, 3, 5]))
        np.testing.assert_array_equal(client.profile, [3, 5])

    def test_set_profile_out_of_range(self):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        with pytest.raises(FederationError):
            client.set_profile(np.array([NUM_ITEMS]))

    def test_profile_training_touches_profile_items(self, rng):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        client.set_profile(np.array([2, 4, 6]))
        update = client.train_on_profile(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert set([2, 4, 6]).issubset(set(update.item_ids.tolist()))
        # One distinct negative outside the profile per profile item.
        assert len(set(update.item_ids.tolist())) == 6
        assert update.is_malicious

    def test_invalid_construction(self):
        with pytest.raises(FederationError):
            MaliciousClient(10, num_items=0, num_factors=4, learning_rate=0.1)
        with pytest.raises(FederationError):
            MaliciousClient(10, num_items=5, num_factors=4, learning_rate=0.0)


class TestServer:
    def test_initial_state(self):
        server = Server(NUM_ITEMS, FederatedConfig(num_factors=NUM_FACTORS), rng=0)
        assert server.item_factors.shape == (NUM_ITEMS, NUM_FACTORS)
        assert server.rounds_applied == 0

    def test_init_draws_only_the_item_matrix(self):
        # ``V`` is the only shared parameter: the server's stream advances by
        # that one draw and nothing else, so seeded runs replay exactly.
        config = FederatedConfig(num_factors=NUM_FACTORS, init_scale=0.3)
        stream = np.random.default_rng(21)
        server = Server(NUM_ITEMS, config, rng=stream)
        reference = np.random.default_rng(21)
        expected = reference.normal(0.0, 0.3, size=(NUM_ITEMS, NUM_FACTORS))
        np.testing.assert_array_equal(server.item_factors, expected)
        assert stream.bit_generator.state == reference.bit_generator.state

    def test_apply_round_is_sgd_step(self):
        config = FederatedConfig(num_factors=NUM_FACTORS, learning_rate=0.5)
        server = Server(NUM_ITEMS, config, rng=0)
        before = server.item_factors.copy()
        update = ClientUpdate(
            client_id=0, item_ids=np.array([3]), item_gradients=np.array([[1.0, 0.0, 0.0, 0.0]])
        )
        server.apply_round([update])
        np.testing.assert_allclose(server.item_factors[3, 0], before[3, 0] - 0.5)
        np.testing.assert_allclose(server.item_factors[4], before[4])
        assert server.rounds_applied == 1

    def test_apply_round_sums_clients(self):
        config = FederatedConfig(num_factors=NUM_FACTORS, learning_rate=1.0)
        server = Server(NUM_ITEMS, config, rng=0)
        before = server.item_factors[2].copy()
        updates = [
            ClientUpdate(client_id=i, item_ids=np.array([2]), item_gradients=np.ones((1, NUM_FACTORS)))
            for i in range(3)
        ]
        server.apply_round(updates)
        np.testing.assert_allclose(server.item_factors[2], before - 3.0)

    def test_empty_round_leaves_parameters_untouched_but_counts(self):
        server = Server(NUM_ITEMS, FederatedConfig(num_factors=NUM_FACTORS), rng=0)
        before = server.item_factors.copy()
        server.apply_round([])
        np.testing.assert_array_equal(server.item_factors, before)
        # An empty round is still a protocol round: the authoritative counter
        # must advance so attack schedules cannot drift from it.
        assert server.rounds_applied == 1

    def test_invalid_num_items(self):
        with pytest.raises(FederationError):
            Server(0, FederatedConfig(num_factors=NUM_FACTORS), rng=0)
