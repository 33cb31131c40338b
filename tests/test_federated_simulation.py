"""Tests for the end-to-end federated training simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.shilling import RandomAttack
from repro.exceptions import FederationError
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory, ensure_rng


def _simulation(small_split, small_targets, attack=None, num_malicious=0, **config_kwargs):
    defaults = dict(num_factors=8, learning_rate=0.05, clients_per_round=32, num_epochs=3)
    defaults.update(config_kwargs)
    config = FederatedConfig(**defaults)
    return FederatedSimulation(
        train=small_split.train,
        config=config,
        test_items=small_split.test_items,
        target_items=small_targets,
        attack=attack,
        num_malicious=num_malicious,
        seed=SeedSequenceFactory(3),
        eval_num_negatives=20,
    )


class TestConstruction:
    def test_builds_one_benign_client_per_user(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets)
        num_users = small_split.train.num_users
        assert len(simulation.malicious_clients) == 0
        # One row per user, each drawn from the user's own seed as a client
        # drawing its own vector would.
        seeds = SeedSequenceFactory(3).generator("benign-clients").integers(
            0, 2**62, size=num_users
        )
        expected = np.stack(
            [ensure_rng(int(seed)).normal(0.0, 0.01, size=8) for seed in seeds]
        )
        np.testing.assert_array_equal(simulation.gather_user_factors(), expected)

    def test_malicious_clients_get_ids_after_benign(self, small_split, small_targets):
        attack = RandomAttack(kappa=10)
        simulation = _simulation(small_split, small_targets, attack=attack, num_malicious=4)
        ids = sorted(simulation.malicious_clients)
        assert ids[0] == small_split.train.num_users
        assert len(ids) == 4

    def test_attack_without_malicious_clients_rejected(self, small_split, small_targets):
        with pytest.raises(FederationError):
            _simulation(small_split, small_targets, attack=RandomAttack(kappa=10), num_malicious=0)

    def test_negative_malicious_count_rejected(self, small_split, small_targets):
        with pytest.raises(FederationError):
            _simulation(small_split, small_targets, num_malicious=-1)

    def test_attack_requires_targets(self, small_split):
        config = FederatedConfig(num_factors=8, num_epochs=1)
        with pytest.raises(FederationError):
            FederatedSimulation(
                train=small_split.train,
                config=config,
                attack=RandomAttack(kappa=10),
                num_malicious=2,
                target_items=None,
            )


class TestTraining:
    def test_run_returns_history_and_metrics(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets)
        result = simulation.run()
        assert len(result.history) == 3
        assert result.accuracy is not None
        assert result.exposure is not None
        assert result.item_factors.shape[0] == small_split.train.num_items
        assert result.user_factors.shape == (small_split.train.num_users, 8)

    def test_invalid_epoch_count(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets)
        with pytest.raises(FederationError):
            simulation.run(0)

    def test_training_loss_decreases(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets, num_epochs=10)
        result = simulation.run(10)
        losses = result.history.training_loss()
        assert losses[-1] < losses[0]

    def test_reproducible_given_seed(self, small_split, small_targets):
        result_a = _simulation(small_split, small_targets).run()
        result_b = _simulation(small_split, small_targets).run()
        np.testing.assert_allclose(result_a.item_factors, result_b.item_factors)
        np.testing.assert_allclose(
            result_a.history.training_loss(), result_b.history.training_loss()
        )

    def test_item_factors_change_during_training(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets)
        before = simulation.server.item_factors.copy()
        simulation.run()
        assert not np.allclose(before, simulation.server.item_factors)

    def test_snapshot_is_a_copy(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets)
        result = simulation.run()
        snapshot = simulation.gather_user_factors()
        snapshot[0, 0] += 10.0
        assert simulation._trainer.user_factors[0, 0] != snapshot[0, 0]
        # The result keeps the final parameters, not views of the live ones.
        assert not np.shares_memory(result.user_factors, simulation._trainer.user_factors)
        assert not np.shares_memory(result.item_factors, simulation.server.item_factors)

    def test_update_observer_sees_all_rounds(self, small_split, small_targets):
        observed = []
        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=2)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(0),
            update_observer=lambda round_index, updates: observed.append(len(updates)),
        )
        simulation.run()
        rounds_per_epoch = int(np.ceil(small_split.train.num_users / 32))
        assert len(observed) == 2 * rounds_per_epoch
        assert all(count > 0 for count in observed)

    def test_evaluation_cadence(self, small_split, small_targets):
        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=4)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(0),
            evaluate_every=2,
            eval_num_negatives=10,
        )
        result = simulation.run()
        np.testing.assert_array_equal(result.history.evaluated_epochs(), [2, 4])

    def test_score_block_function_matches_factors(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets)
        simulation.run()
        score_block = simulation.score_block_function()
        users = np.array([0, 3], dtype=np.int64)
        user_factors = simulation.gather_user_factors()
        expected = user_factors[users] @ simulation.server.item_factors.T
        np.testing.assert_allclose(score_block(users), expected)
        # The scorer holds a snapshot: later local steps do not reach it.
        simulation._trainer.train_round(users, simulation.server.item_factors)
        assert not np.array_equal(simulation.gather_user_factors()[users], user_factors[users])
        np.testing.assert_array_equal(score_block(users), expected)

    def test_malicious_updates_marked(self, small_split, small_targets):
        observed_flags = []
        attack = RandomAttack(kappa=10)
        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=1)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=small_split.test_items,
            target_items=small_targets,
            attack=attack,
            num_malicious=5,
            seed=SeedSequenceFactory(1),
            update_observer=lambda _, updates: observed_flags.extend(
                u.is_malicious for u in updates
            ),
        )
        simulation.run()
        assert sum(observed_flags) == 5

    def test_no_test_items_means_no_accuracy(self, small_split, small_targets):
        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=1)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=None,
            target_items=small_targets,
            seed=SeedSequenceFactory(0),
        )
        result = simulation.run()
        assert result.accuracy is None
        assert result.exposure is not None

    def test_dp_noise_training_runs(self, small_split, small_targets):
        simulation = _simulation(small_split, small_targets, noise_scale=0.1)
        result = simulation.run()
        assert np.isfinite(result.history.training_loss()).all()


class TestEvaluateEvery:
    def test_zero_rejected(self, small_split, small_targets):
        # Regression: an explicit 0 used to be silently coerced to the
        # default cadence by `evaluate_every or ...`.
        with pytest.raises(FederationError):
            FederatedSimulation(
                train=small_split.train,
                config=FederatedConfig(num_factors=8, num_epochs=2),
                target_items=small_targets,
                seed=SeedSequenceFactory(0),
                evaluate_every=0,
            )

    def test_negative_rejected(self, small_split, small_targets):
        with pytest.raises(FederationError):
            FederatedSimulation(
                train=small_split.train,
                config=FederatedConfig(num_factors=8, num_epochs=2),
                target_items=small_targets,
                seed=SeedSequenceFactory(0),
                evaluate_every=-3,
            )

    def test_none_means_default_cadence(self, small_split, small_targets):
        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=4)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(0),
            evaluate_every=None,
            eval_num_negatives=10,
        )
        result = simulation.run()
        # Default cadence for 4 epochs is max(1, 4 // 10) == 1: every epoch.
        np.testing.assert_array_equal(result.history.evaluated_epochs(), [1, 2, 3, 4])


class TestRoundCounter:
    def test_server_counter_is_authoritative(self, small_split, small_targets):
        observed = []
        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=2)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(0),
            update_observer=lambda round_index, updates: observed.append(round_index),
        )
        simulation.run()
        # The observer's round indices must be exactly the server's counter.
        assert observed == list(range(simulation.server.rounds_applied))
        assert simulation.round_index == simulation.server.rounds_applied

    def test_empty_rounds_still_counted(self, small_split, small_targets):
        # A round whose only selected clients are malicious with no attack
        # uploads nothing — the counter must still advance.
        from repro.attacks.base import NoAttack

        config = FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=1)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            test_items=small_split.test_items,
            target_items=small_targets,
            attack=NoAttack(),
            num_malicious=40,
            seed=SeedSequenceFactory(2),
        )
        simulation.run()
        total_clients = small_split.train.num_users + 40
        rounds_per_epoch = int(np.ceil(total_clients / 32))
        assert simulation.server.rounds_applied == rounds_per_epoch
