"""Tests for FedRecAttack: the g function, the attack loss, the user-matrix
approximation and the constrained gradient upload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.approximation import UserMatrixApproximator
from repro.attacks.base import AttackContext
from repro.attacks.fedrecattack import (
    FedRecAttack,
    FedRecAttackConfig,
    attack_loss_and_gradient,
    attack_loss_and_gradient_vectorized,
    g_derivative,
    g_function,
)
from repro.data.dataset import InteractionDataset
from repro.data.public import PublicInteractions, sample_public_interactions
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient


class TestGFunction:
    def test_identity_for_non_negative(self):
        x = np.array([0.0, 0.5, 3.0])
        np.testing.assert_allclose(g_function(x), x)

    def test_exponential_minus_one_for_negative(self):
        x = np.array([-1.0, -5.0])
        np.testing.assert_allclose(g_function(x), np.expm1(x))

    def test_continuous_at_zero(self):
        assert g_function(np.array([1e-12]))[0] == pytest.approx(
            g_function(np.array([-1e-12]))[0], abs=1e-9
        )

    def test_derivative_matches_finite_difference(self):
        for x in (-2.0, -0.5, 0.5, 2.0):
            numerical = (g_function(np.array([x + 1e-6])) - g_function(np.array([x - 1e-6]))) / 2e-6
            assert g_derivative(np.array([x]))[0] == pytest.approx(numerical[0], rel=1e-4)

    def test_derivative_vanishes_for_very_negative_margins(self):
        # This is the property the paper credits for the attack's stealth.
        assert g_derivative(np.array([-30.0]))[0] < 1e-12

    def test_derivative_bounded_by_one(self):
        x = np.linspace(-10, 10, 101)
        assert np.all(g_derivative(x) <= 1.0 + 1e-12)


class TestFedRecAttackConfig:
    def test_defaults_match_paper(self):
        config = FedRecAttackConfig()
        assert config.kappa == 60
        assert config.step_size == pytest.approx(1.0)
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": 0},
            {"step_size": 0.0},
            {"clip_norm": 0.0},
            {"top_k": 0},
            {"approx_epochs_initial": -1},
            {"margin_mode": "bogus"},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(AttackError):
            FedRecAttackConfig(**kwargs).validate()

    def test_linear_margin_mode_accepted(self):
        FedRecAttackConfig(margin_mode="linear").validate()


class TestUserMatrixApproximator:
    def test_only_active_users_move(self, small_split, small_public, rng):
        approximator = UserMatrixApproximator(small_public, num_factors=8, rng=0)
        before = approximator.user_factors.copy()
        item_factors = rng.normal(size=(small_split.train.num_items, 8))
        approximator.refresh(item_factors, epochs=3)
        active = set(approximator.active_users.tolist())
        for user in range(small_split.train.num_users):
            moved = not np.allclose(before[user], approximator.user_factors[user])
            if user in active:
                assert moved
            else:
                assert not moved

    def test_refresh_reduces_public_bpr_loss(self, small_split, small_public, rng):
        from repro.models.losses import bpr_loss

        approximator = UserMatrixApproximator(small_public, num_factors=8, rng=0)
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.3)

        def total_loss():
            loss = 0.0
            for user in approximator.active_users:
                positives = small_public.positive_items(int(user))
                negatives = (positives + 1) % small_split.train.num_items
                loss += bpr_loss(
                    approximator.user_factors[int(user)], item_factors, positives, negatives
                )
            return loss

        before = total_loss()
        approximator.refresh(item_factors, epochs=30)
        assert total_loss() < before

    def test_wrong_item_matrix_shape_rejected(self, small_public):
        approximator = UserMatrixApproximator(small_public, num_factors=8, rng=0)
        with pytest.raises(AttackError):
            approximator.refresh(np.zeros((3, 8)), epochs=1)

    def test_approximation_aligns_with_true_users(self, small_split, rng):
        # With all interactions public and the item matrix of a trained model,
        # the approximated mean user direction must correlate with the true one.
        from repro.federated.config import FederatedConfig
        from repro.federated.simulation import FederatedSimulation
        from repro.rng import SeedSequenceFactory

        config = FederatedConfig(num_factors=8, learning_rate=0.05, clients_per_round=32, num_epochs=5)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            seed=SeedSequenceFactory(0),
        )
        simulation.run()
        public = sample_public_interactions(small_split.train, 1.0, rng=0)
        approximator = UserMatrixApproximator(public, num_factors=8, rng=0)
        approximator.refresh(simulation.server.item_factors, epochs=30)
        true_mean = simulation.gather_user_factors().mean(axis=0)
        approx_mean = approximator.user_factors.mean(axis=0)
        cosine = true_mean @ approx_mean / (
            np.linalg.norm(true_mean) * np.linalg.norm(approx_mean) + 1e-12
        )
        assert cosine > 0.5


def _public_with_saturated_users(train):
    """Public interactions with users whose complement is short or empty.

    User 0 holds 60% of the catalog (fewer negatives exist than positives, so
    its pairs are truncated) and user 1 holds all of it (no pairs at all);
    the other users keep a sparse random 10% of their training profile.
    """
    num_items = train.num_items
    sparse = sample_public_interactions(train, xi=0.10, rng=5).dataset.pairs
    sparse = sparse[sparse[:, 0] > 1]
    wide = np.arange(int(0.6 * num_items))
    pairs = np.vstack(
        [
            np.column_stack([np.zeros_like(wide), wide]),
            np.column_stack([np.ones(num_items, dtype=np.int64), np.arange(num_items)]),
            sparse,
        ]
    )
    dataset = InteractionDataset(train.num_users, num_items, pairs)
    return PublicInteractions(dataset=dataset, xi=0.10)


class TestVectorizedAttackerEquivalence:
    """The stacked attacker implementations must match the loop references."""

    @pytest.mark.parametrize("sampler", ["permutation", "batched"])
    def test_approximator_engines_match(self, small_split, small_public, rng, sampler):
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(
            small_public, num_factors=8, rng=3, engine="loop", sampler=sampler
        )
        vec = UserMatrixApproximator(
            small_public, num_factors=8, rng=3, engine="vectorized", sampler=sampler
        )
        loop.refresh(item_factors, epochs=5)
        vec.refresh(item_factors, epochs=5)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)

    @pytest.mark.parametrize("sampler", ["permutation", "batched"])
    def test_approximator_engines_consume_identical_rng_streams(
        self, small_split, small_public, rng, sampler
    ):
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(
            small_public, num_factors=8, rng=3, engine="loop", sampler=sampler
        )
        vec = UserMatrixApproximator(
            small_public, num_factors=8, rng=3, engine="vectorized", sampler=sampler
        )
        loop.refresh(item_factors, epochs=2)
        vec.refresh(item_factors, epochs=2)
        # After identical work both private generators must be in the same
        # state — the property that keeps whole-simulation runs equivalent.
        assert loop._rng.integers(0, 2**60) == vec._rng.integers(0, 2**60)

    @pytest.mark.parametrize("sampler", ["permutation", "batched"])
    def test_approximator_engines_match_with_saturated_public_users(
        self, small_split, rng, sampler
    ):
        # Exercises the vectorized epoch's truncation of users whose
        # complement is shorter than their positive set.
        public = _public_with_saturated_users(small_split.train)
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(
            public, num_factors=8, rng=3, engine="loop", sampler=sampler
        )
        vec = UserMatrixApproximator(
            public, num_factors=8, rng=3, engine="vectorized", sampler=sampler
        )
        before = vec.user_factors.copy()
        loop.refresh(item_factors, epochs=4)
        vec.refresh(item_factors, epochs=4)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)
        assert loop._rng.integers(0, 2**60) == vec._rng.integers(0, 2**60)
        # The truncated user trains on its pairs; the user without any
        # negatives keeps its initialisation.
        assert not np.allclose(vec.user_factors[0], before[0])
        np.testing.assert_array_equal(vec.user_factors[1], before[1])

    def test_approximator_rejects_unknown_engine(self, small_public):
        with pytest.raises(AttackError):
            UserMatrixApproximator(small_public, num_factors=8, rng=0, engine="gpu")

    @pytest.mark.parametrize("margin_mode", ["saturating", "linear"])
    def test_attack_loss_and_gradient_match(
        self, small_split, small_public, rng, margin_mode
    ):
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        targets = np.array([1, 3, 7])
        loss_loop, grad_loop = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets,
            top_k=5, margin_mode=margin_mode,
        )
        loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets,
            top_k=5, margin_mode=margin_mode,
        )
        assert loss_vec == pytest.approx(loss_loop, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_loop, atol=1e-12)

    def test_attack_loss_vectorized_deduplicates_targets(
        self, small_split, small_public, rng
    ):
        # AttackContext guarantees unique targets in-protocol, but the
        # exported function must not silently drop contributions when called
        # directly with duplicates: it canonicalises to the unique set.
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        loss_dup, grad_dup = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, np.array([3, 3, 7]), top_k=5
        )
        loss_ref, grad_ref = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, np.array([3, 7]), top_k=5
        )
        assert loss_dup == pytest.approx(loss_ref, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(grad_dup, grad_ref, atol=1e-12)

    def test_attack_loss_vectorized_no_active_users(self, small_split, small_public):
        loss, gradient = attack_loss_and_gradient_vectorized(
            np.zeros((small_split.train.num_users, 6)),
            np.zeros((small_split.train.num_items, 6)),
            np.empty(0, dtype=np.int64),
            small_public,
            np.array([0]),
            top_k=5,
        )
        assert loss == 0.0
        np.testing.assert_allclose(gradient, 0.0)

    def test_attack_loss_match_when_top_k_exceeds_items(
        self, small_split, small_public, rng
    ):
        # top_k larger than the catalog exercises the -inf (public) entries
        # inside the top-K set on both implementations.
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 4), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 4), scale=0.5)
        active = small_public.users_with_public_interactions()[:8]
        targets = np.array([2])
        loss_loop, grad_loop = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=10 * num_items
        )
        loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets, top_k=10 * num_items
        )
        assert loss_vec == pytest.approx(loss_loop, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_loop, atol=1e-12)


class TestAttackLossAndGradient:
    def _setup(self, small_split, small_public, rng):
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        return user_factors, item_factors, active

    def test_gradient_matches_finite_differences(self, small_split, small_public, rng):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([1, 3])
        active = active[:5]
        loss, gradient = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        epsilon = 1e-6
        # Check the gradient rows of the target items (the rows the attack uploads).
        for target in targets:
            for col in range(item_factors.shape[1]):
                shifted = item_factors.copy()
                shifted[target, col] += epsilon
                upper, _ = attack_loss_and_gradient(
                    user_factors, shifted, active, small_public, targets, top_k=5
                )
                shifted[target, col] -= 2 * epsilon
                lower, _ = attack_loss_and_gradient(
                    user_factors, shifted, active, small_public, targets, top_k=5
                )
                numerical = (upper - lower) / (2 * epsilon)
                assert gradient[target, col] == pytest.approx(numerical, abs=1e-4)

    def test_saturated_margins_give_vanishing_target_gradient(
        self, small_split, small_public, rng
    ):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([0])
        # Make the target dominate every active user's ranking: positive user
        # vectors and a large positive target embedding.
        user_factors[active] = np.abs(user_factors[active]) + 0.1
        item_factors[0] = 50.0
        loss, gradient = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        # g saturates at -1 per (user, target) pair and its derivative vanishes,
        # so the target row receives (essentially) no further push.
        assert loss <= 0.0
        assert np.linalg.norm(gradient[0]) == pytest.approx(0.0, abs=1e-6)

    def test_no_active_users_means_zero_gradient(self, small_split, small_public, rng):
        user_factors, item_factors, _ = self._setup(small_split, small_public, rng)
        loss, gradient = attack_loss_and_gradient(
            user_factors,
            item_factors,
            np.empty(0, dtype=np.int64),
            small_public,
            np.array([0]),
            top_k=5,
        )
        assert loss == 0.0
        np.testing.assert_allclose(gradient, 0.0)

    def test_gradient_nonzero_only_on_targets_and_boundaries(
        self, small_split, small_public, rng
    ):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([2])
        _, gradient = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        nonzero_rows = np.flatnonzero(np.linalg.norm(gradient, axis=1) > 0)
        # At most one boundary row per active user plus the target rows.
        assert nonzero_rows.shape[0] <= active.shape[0] + targets.shape[0]
        assert 2 in nonzero_rows

    def test_linear_margin_mode_keeps_unit_coefficients(self, small_split, small_public, rng):
        # With the linear ablation the per-pair derivative is exactly 1, so
        # the target-row gradient equals minus the sum of the contributing
        # approximated user vectors regardless of how large the margins are.
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([4])
        # Make the target dominate every active user's ranking, where the
        # saturating g stops pushing but the linear ablation does not.
        user_factors[active] = np.abs(user_factors[active]) + 0.1
        item_factors[4] = 50.0
        _, saturating = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        _, linear = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5,
            margin_mode="linear",
        )
        assert np.linalg.norm(saturating[4]) == pytest.approx(0.0, abs=1e-6)
        assert np.linalg.norm(linear[4]) > 0.1

    def test_minimising_loss_raises_target_scores(self, small_split, small_public, rng):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([4])
        initial_scores = user_factors[active] @ item_factors[4]
        factors = item_factors.copy()
        for _ in range(50):
            _, gradient = attack_loss_and_gradient(
                user_factors, factors, active, small_public, targets, top_k=5
            )
            factors -= 0.05 * gradient
        final_scores = user_factors[active] @ factors[4]
        assert final_scores.mean() > initial_scores.mean()


class TestFedRecAttackUpload:
    def _make_attack_and_context(self, small_split, small_public, small_targets, kappa=10):
        config = FedRecAttackConfig(kappa=kappa, approx_epochs_initial=3, approx_epochs_per_round=1)
        attack = FedRecAttack(small_public, config)
        context = AttackContext(
            num_items=small_split.train.num_items,
            num_factors=8,
            target_items=small_targets,
            malicious_client_ids=[100, 101],
            learning_rate=0.05,
            clip_norm=1.0,
            item_popularity=small_split.train.item_popularity,
            rng=np.random.default_rng(0),
        )
        clients = {
            cid: MaliciousClient(cid, small_split.train.num_items, 8, 0.05, rng=cid)
            for cid in (100, 101)
        }
        attack.setup(context, clients)
        return attack, context, clients

    def test_upload_respects_kappa(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets, kappa=10
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert update is not None
        assert update.num_nonzero_rows <= 10

    def test_upload_respects_clip_norm(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert update.max_row_norm <= 1.0 + 1e-9

    def test_target_items_always_in_upload(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert set(small_targets.tolist()).issubset(set(update.item_ids.tolist()))

    def test_assigned_items_persist_across_rounds(
        self, small_split, small_public, small_targets, rng
    ):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        first = attack.craft_update(clients[100], item_factors, None, 0)
        attack.on_round_start(1, item_factors, None, [100])
        second = attack.craft_update(clients[100], item_factors, None, 1)
        np.testing.assert_array_equal(first.item_ids, second.item_ids)

    def test_remainder_subtracted_within_round(
        self, small_split, small_public, small_targets, rng
    ):
        # Eq. 24: the second malicious client of a round uploads only what the
        # first one did not cover.
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100, 101])
        total_before = np.linalg.norm(attack._poison_gradient)
        attack.craft_update(clients[100], item_factors, None, 0)
        total_middle = np.linalg.norm(attack._poison_gradient)
        attack.craft_update(clients[101], item_factors, None, 0)
        total_after = np.linalg.norm(attack._poison_gradient)
        assert total_middle <= total_before + 1e-9
        assert total_after <= total_middle + 1e-9

    def test_upload_marked_malicious(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert update.is_malicious

    def test_no_public_interactions_produces_zero_poison(
        self, small_split, small_targets, rng
    ):
        empty_public = sample_public_interactions(small_split.train, 0.0, rng=0)
        attack = FedRecAttack(empty_public, FedRecAttackConfig(approx_epochs_initial=1))
        context = AttackContext(
            num_items=small_split.train.num_items,
            num_factors=8,
            target_items=small_targets,
            malicious_client_ids=[100],
            learning_rate=0.05,
            clip_norm=1.0,
            rng=np.random.default_rng(0),
        )
        client = MaliciousClient(100, small_split.train.num_items, 8, 0.05, rng=0)
        attack.setup(context, {100: client})
        item_factors = rng.normal(size=(small_split.train.num_items, 8))
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(client, item_factors, None, 0)
        assert update.num_nonzero_rows == 0

    def test_setup_required_before_round(self, small_public):
        attack = FedRecAttack(small_public)
        with pytest.raises(AttackError):
            attack.on_round_start(0, np.zeros((10, 8)), None, [0])

    def test_craft_before_round_start_returns_none(
        self, small_split, small_public, small_targets
    ):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        assert attack.craft_update(clients[100], np.zeros((small_split.train.num_items, 8)), None, 0) is None

    def test_mismatched_item_universe_rejected(self, small_split, small_targets):
        public = sample_public_interactions(small_split.train, 0.1, rng=0)
        attack = FedRecAttack(public)
        context = AttackContext(
            num_items=small_split.train.num_items + 5,
            num_factors=8,
            target_items=small_targets,
            malicious_client_ids=[0],
            learning_rate=0.05,
            clip_norm=1.0,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(AttackError):
            attack.setup(context, {})
