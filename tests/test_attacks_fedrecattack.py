"""Tests for FedRecAttack: the g function, the attack loss, the user-matrix
approximation and the constrained gradient upload."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.attacks import fedrecattack
from repro.attacks.approximation import UserMatrixApproximator
from repro.attacks.base import AttackContext
from repro.attacks.fedrecattack import (
    FedRecAttack,
    FedRecAttackConfig,
    attack_loss_and_gradient_vectorized,
    g_derivative,
    g_function,
)
from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.public import PublicInteractions, sample_public_interactions
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient

from oracles import attack_loss_and_gradient, loop_refresh


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


#: How the approximation is refreshed: one long refresh, or a first refresh
#: followed by one-epoch refreshes against drifting item factors (the
#: warm-started per-round schedule FedRecAttack runs).
SCHEDULES = ("one-refresh", "per-round")


def _refresh_both(loop, vec, item_factors, epochs, schedule):
    """Run one refresh schedule on the per-user reference and the library."""
    steps = [(item_factors, epochs)]
    if schedule == "per-round":
        drift = np.random.default_rng(7)
        for _ in range(3):
            item_factors = item_factors + drift.normal(scale=0.05, size=item_factors.shape)
            steps.append((item_factors, 1))
    for factors, step_epochs in steps:
        loop_refresh(loop, factors, epochs=step_epochs)
        vec.refresh(factors, epochs=step_epochs)


class TestVectorizedAttackerEquivalence:
    """The stacked attacker implementations must match the per-user references."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_approximator_matches_reference(self, small_split, small_public, rng, schedule):
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(small_public, num_factors=8, rng=3)
        vec = UserMatrixApproximator(small_public, num_factors=8, rng=3)
        _refresh_both(loop, vec, item_factors, 5, schedule)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_approximator_consumes_the_reference_rng_stream(
        self, small_split, small_public, rng, schedule
    ):
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(small_public, num_factors=8, rng=3)
        vec = UserMatrixApproximator(small_public, num_factors=8, rng=3)
        _refresh_both(loop, vec, item_factors, 2, schedule)
        # After identical work both private generators must be in the same
        # state — the property that keeps whole-simulation runs equivalent.
        assert loop._rng.integers(0, 2**60) == vec._rng.integers(0, 2**60)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_approximator_matches_reference_with_saturated_public_users(
        self, small_split, rng, schedule
    ):
        # Exercises the stacked epoch's truncation of users whose complement
        # is shorter than their positive set.
        public = _public_with_saturated_users(small_split.train)
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(public, num_factors=8, rng=3)
        vec = UserMatrixApproximator(public, num_factors=8, rng=3)
        before = vec.user_factors.copy()
        _refresh_both(loop, vec, item_factors, 4, schedule)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)
        assert loop._rng.integers(0, 2**60) == vec._rng.integers(0, 2**60)
        # The truncated user trains on its pairs; the user without any
        # negatives keeps its initialisation.
        assert not np.allclose(vec.user_factors[0], before[0])
        np.testing.assert_array_equal(vec.user_factors[1], before[1])

    def test_approximator_rejects_removed_realization_keywords(self, small_public):
        for keyword in ("engine", "sampler"):
            with pytest.raises(TypeError):
                UserMatrixApproximator(small_public, num_factors=8, rng=0, **{keyword: "loop"})

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

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_attack_loss_matches_across_user_blocks(
        self, small_split, small_public, rng, block_rows, monkeypatch
    ):
        # Blocks of 1 and 7 rows split the active users into many blocks with
        # a ragged last one (the default scores them all in one block).
        monkeypatch.setattr(fedrecattack, "ATTACK_LOSS_BLOCK_ROWS", block_rows)
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        targets = np.array([1, 3, 7])
        loss_loop, grad_loop = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets, top_k=5
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
        # top_k larger than the catalog lists every non-public item, so the
        # masked (public) entries fill the rest of the top-K on both
        # implementations and must never become the boundary.
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
        # One user at a time, the gradient lands on the targets and on one
        # non-public boundary row: never on a row the user saw publicly.
        for user in active:
            _, gradient = attack_loss_and_gradient_vectorized(
                user_factors, item_factors, np.array([user]), small_public, targets,
                top_k=10 * num_items,
            )
            public_rows = np.setdiff1d(small_public.positive_items(int(user)), targets)
            assert public_rows.shape[0] > 0
            np.testing.assert_array_equal(gradient[public_rows], 0.0)
            assert np.count_nonzero(np.linalg.norm(gradient, axis=1)) <= 2

    @pytest.mark.parametrize("block_rows", [3, fedrecattack.ATTACK_LOSS_BLOCK_ROWS])
    def test_many_exact_ties_match_the_reference(
        self, small_split, small_public, block_rows, monkeypatch
    ):
        # Quarter-step factors make every score exact, so ties are everywhere:
        # among non-targets at the top-K cut and between targets and
        # non-targets, in blocks mixing tied and untied rows.
        monkeypatch.setattr(fedrecattack, "ATTACK_LOSS_BLOCK_ROWS", block_rows)
        grid = np.random.default_rng(11)
        num_items = small_split.train.num_items
        item_factors = grid.integers(-2, 3, size=(num_items, 2)) / 4.0
        user_factors = grid.integers(-2, 3, size=(small_split.train.num_users, 2)) / 1.0
        active = small_public.users_with_public_interactions()
        targets = np.array([1, 3, 7, 20])
        for top_k in (1, 5, 17):
            loss_loop, grad_loop = attack_loss_and_gradient(
                user_factors, item_factors, active, small_public, targets, top_k=top_k
            )
            loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
                user_factors, item_factors, active, small_public, targets, top_k=top_k
            )
            assert loss_vec == pytest.approx(loss_loop, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(grad_vec, grad_loop, atol=1e-12)


@pytest.mark.parametrize("num_items", [1, 7, 37, 250])
@pytest.mark.parametrize("top_k", [1, 3, 10, 40])
@pytest.mark.parametrize("quantized", [False, True])
def test_attack_loss_matches_the_reference_over_catalog_sizes(num_items, top_k, quantized):
    # Catalogs whose last stripe of candidate groups is partial (37, 250),
    # top_k above and below the group count, heavy public sets, and exact
    # ties (quantized factors) that leave the group choice unsure.
    draw = np.random.default_rng(num_items * 100 + top_k)
    num_users = 30
    degrees = draw.integers(1, max(2, (3 * num_items) // 4), size=num_users)
    pairs = np.array(
        [(user, item) for user in range(num_users)
         for item in draw.choice(num_items, size=min(degrees[user], num_items), replace=False)]
    )
    public = PublicInteractions(
        dataset=InteractionDataset(num_users, num_items, pairs), xi=0.5
    )
    item_factors = draw.normal(size=(num_items, 3))
    user_factors = draw.normal(size=(num_users, 3))
    if quantized:
        item_factors = np.round(item_factors * 2) / 4
        user_factors = np.round(user_factors)
    targets = draw.choice(num_items, size=min(2, num_items), replace=False)
    active = public.users_with_public_interactions()
    loss_loop, grad_loop = attack_loss_and_gradient(
        user_factors, item_factors, active, public, targets, top_k=top_k
    )
    loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
        user_factors, item_factors, active, public, targets, top_k=top_k
    )
    assert loss_vec == pytest.approx(loss_loop, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(grad_vec, grad_loop, atol=1e-12)


def _one_user_public(num_items, public_items):
    """Public interactions of a single user (id 0) over ``num_items`` items."""
    pairs = np.column_stack([np.zeros(len(public_items), dtype=np.int64), public_items])
    return PublicInteractions(dataset=InteractionDataset(1, num_items, pairs), xi=1.0)


def _both_attack_losses(scores, public_items, targets, top_k):
    """Library and reference attack loss of one user scoring items at ``scores``.

    One factor and a unit user vector make every score exact, so equal
    scores are exact ties.
    """
    item_factors = np.asarray(scores, dtype=np.float64)[:, None]
    public = _one_user_public(item_factors.shape[0], public_items)
    args = (np.ones((1, 1)), item_factors, np.array([0]), public, np.array(targets), top_k)
    return attack_loss_and_gradient_vectorized(*args), attack_loss_and_gradient(*args)


class TestAttackLossBoundary:
    """Hand-computed boundaries: short lists, ties, and the lowest-id rule."""

    # Items 0-2 are public (5.0/4.0/3.0); 3-5 are not (0.5/0.4/0.1); item 5
    # is the target.
    SCORES = [5.0, 4.0, 3.0, 0.5, 0.4, 0.1]

    @pytest.mark.parametrize("top_k", [3, 5, 60])
    def test_list_shorter_than_top_k_keeps_a_non_public_boundary(self, top_k):
        # Only three items are non-public, so every top_k >= 3 lists exactly
        # them: the boundary is item 4 at 0.4, never a public item at its
        # unmasked score (which would give 5.0 - 0.1).
        for loss, gradient in _both_attack_losses(self.SCORES, [0, 1, 2], [5], top_k):
            assert loss == pytest.approx(0.3, abs=1e-12)
            expected = np.zeros((6, 1))
            expected[4] = 1.0
            expected[5] = -1.0
            np.testing.assert_allclose(gradient, expected, atol=1e-12)

    def test_only_targets_listed_means_no_boundary(self):
        # top_k=1 lists the target alone (0.6 beats 0.5): nothing to push.
        for loss, gradient in _both_attack_losses([3.0, 0.5, 0.6], [0], [2], 1):
            assert loss == 0.0
            np.testing.assert_array_equal(gradient, 0.0)

    def test_equal_scores_resolve_to_the_lowest_item_id(self):
        # Items 0, 2 and 4 tie at 0.5 behind item 1; top_k=3 lists 1, 0 and 2,
        # and the boundary is item 0, the lowest id among the tied.
        scores = [0.5, 0.9, 0.5, 0.1, 0.5, 3.0, 0.2]
        for loss, gradient in _both_attack_losses(scores, [5], [3], 3):
            assert loss == pytest.approx(0.4, abs=1e-12)
            expected = np.zeros((7, 1))
            expected[0] = 1.0
            expected[3] = -1.0
            np.testing.assert_allclose(gradient, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "target, boundary, loss",
        [
            # Target 1 ties item 2 and ranks first: top_k=2 lists 0 and the
            # target, so the boundary is item 0 (0.9 - 0.5).
            (1, 0, 0.4),
            # Target 2 ranks after item 1: the list is 0 and 1, and the
            # boundary is item 1 at the target's own score (g(0) = 0, g' = 1).
            (2, 1, 0.0),
        ],
    )
    def test_target_tied_with_a_non_target_ranks_by_item_id(self, target, boundary, loss):
        scores = [0.9, 0.5, 0.5, 0.2, 4.0]
        for value, gradient in _both_attack_losses(scores, [4], [target], 2):
            assert value == pytest.approx(loss, abs=1e-12)
            expected = np.zeros((5, 1))
            expected[boundary] = 1.0
            expected[target] = -1.0
            np.testing.assert_allclose(gradient, expected, atol=1e-12)


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
        loss, gradient = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        epsilon = 1e-6
        # Check the gradient rows of the target items (the rows the attack uploads).
        for target in targets:
            for col in range(item_factors.shape[1]):
                shifted = item_factors.copy()
                shifted[target, col] += epsilon
                upper, _ = attack_loss_and_gradient_vectorized(
                    user_factors, shifted, active, small_public, targets, top_k=5
                )
                shifted[target, col] -= 2 * epsilon
                lower, _ = attack_loss_and_gradient_vectorized(
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
        loss, gradient = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        # g saturates at -1 per (user, target) pair and its derivative vanishes,
        # so the target row receives (essentially) no further push.
        assert loss <= 0.0
        assert np.linalg.norm(gradient[0]) == pytest.approx(0.0, abs=1e-6)

    def test_no_active_users_means_zero_gradient(self, small_split, small_public, rng):
        user_factors, item_factors, _ = self._setup(small_split, small_public, rng)
        loss, gradient = attack_loss_and_gradient_vectorized(
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
        _, gradient = attack_loss_and_gradient_vectorized(
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
        _, saturating = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        _, linear = attack_loss_and_gradient_vectorized(
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
            _, gradient = attack_loss_and_gradient_vectorized(
                user_factors, factors, active, small_public, targets, top_k=5
            )
            factors -= 0.05 * gradient
        final_scores = user_factors[active] @ factors[4]
        assert final_scores.mean() > initial_scores.mean()


#: The ml-1m shape the attacker meets at the paper defaults: 3,815 users with
#: public interactions (xi = 1%) out of 6,040, a 3,706-item catalog, k = 32.
ML1M_USERS, ML1M_ITEMS, ML1M_ACTIVE, ML1M_FACTORS = 6040, 3706, 3815, 32
#: A quarter of one (active users x catalog) float64 matrix (27 MiB).
ML1M_MEMORY_BUDGET = ML1M_ACTIVE * ML1M_ITEMS * 8 // 4


@pytest.fixture(scope="module")
def ml1m_public():
    """Public interactions with the ml-1m shape: 1-4 items per active user."""
    draw = np.random.default_rng(0)
    users = np.sort(draw.choice(ML1M_USERS, size=ML1M_ACTIVE, replace=False))
    counts = draw.integers(1, 5, size=ML1M_ACTIVE)
    items = draw.integers(0, ML1M_ITEMS, size=int(counts.sum()))
    pairs = np.column_stack([np.repeat(users, counts), items])
    public = PublicInteractions(
        dataset=InteractionDataset(ML1M_USERS, ML1M_ITEMS, pairs), xi=0.01
    )
    assert public.users_with_public_interactions().shape[0] == ML1M_ACTIVE
    return public


def _traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAttackerMemory:
    """The attacker holds no (active users x catalog) temporaries."""

    def test_attack_loss_peak_at_the_ml1m_shape(self, ml1m_public):
        draw = np.random.default_rng(1)
        user_factors = draw.normal(scale=0.1, size=(ML1M_USERS, ML1M_FACTORS))
        item_factors = draw.normal(scale=0.1, size=(ML1M_ITEMS, ML1M_FACTORS))
        active = ml1m_public.users_with_public_interactions()
        peak = _traced_peak(
            lambda: attack_loss_and_gradient_vectorized(
                user_factors, item_factors, active, ml1m_public, np.array([5, 50, 500]),
                top_k=10,
            )
        )
        assert peak < ML1M_MEMORY_BUDGET, f"attack loss peaked at {peak / 2**20:.1f} MiB"

    def test_approximator_epoch_peak_at_the_ml1m_shape(self, ml1m_public):
        item_factors = np.random.default_rng(2).normal(
            scale=0.1, size=(ML1M_ITEMS, ML1M_FACTORS)
        )
        approximator = UserMatrixApproximator(ml1m_public, num_factors=ML1M_FACTORS, rng=0)
        peak = _traced_peak(lambda: approximator.refresh(item_factors, epochs=1))
        assert peak < ML1M_MEMORY_BUDGET, f"approximator epoch peaked at {peak / 2**20:.1f} MiB"


class TestCachedPositiveCounts:
    def test_num_positives_draw_matches_the_computed_path(self, small_split):
        # The approximator hands the sampler its cached degrees; the draw and
        # the generator state must be those of the popcount path, also for
        # users whose complement caps their quota (users 0 and 1).
        approximator = UserMatrixApproximator(
            _public_with_saturated_users(small_split.train), num_factors=8, rng=0
        )
        masks = approximator._positive_masks
        counts = approximator._counts
        computed_rng, cached_rng = np.random.default_rng(4), np.random.default_rng(4)
        computed = sample_uniform_negatives_batched(
            computed_rng, masks.shape[1], counts, masks
        )
        cached = sample_uniform_negatives_batched(
            cached_rng, masks.shape[1], counts, masks, num_positives=counts
        )
        np.testing.assert_array_equal(cached[0], computed[0])
        np.testing.assert_array_equal(cached[1], computed[1])
        assert cached_rng.bit_generator.state == computed_rng.bit_generator.state


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
        attack.on_round_start(0, item_factors, [100])
        update = attack.craft_update(clients[100], item_factors, 0)
        assert update is not None
        assert update.num_nonzero_rows <= 10

    def test_upload_respects_clip_norm(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, [100])
        update = attack.craft_update(clients[100], item_factors, 0)
        assert update.max_row_norm <= 1.0 + 1e-9

    def test_target_items_always_in_upload(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, [100])
        update = attack.craft_update(clients[100], item_factors, 0)
        assert set(small_targets.tolist()).issubset(set(update.item_ids.tolist()))

    def test_assigned_items_persist_across_rounds(
        self, small_split, small_public, small_targets, rng
    ):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, [100])
        first = attack.craft_update(clients[100], item_factors, 0)
        attack.on_round_start(1, item_factors, [100])
        second = attack.craft_update(clients[100], item_factors, 1)
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
        attack.on_round_start(0, item_factors, [100, 101])
        total_before = np.linalg.norm(attack._poison_gradient)
        attack.craft_update(clients[100], item_factors, 0)
        total_middle = np.linalg.norm(attack._poison_gradient)
        attack.craft_update(clients[101], item_factors, 0)
        total_after = np.linalg.norm(attack._poison_gradient)
        assert total_middle <= total_before + 1e-9
        assert total_after <= total_middle + 1e-9

    def test_upload_marked_malicious(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, [100])
        update = attack.craft_update(clients[100], item_factors, 0)
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
        attack.on_round_start(0, item_factors, [100])
        update = attack.craft_update(client, item_factors, 0)
        assert update.num_nonzero_rows == 0

    def test_setup_required_before_round(self, small_public):
        attack = FedRecAttack(small_public)
        with pytest.raises(AttackError):
            attack.on_round_start(0, np.zeros((10, 8)), [0])

    def test_craft_before_round_start_returns_none(
        self, small_split, small_public, small_targets
    ):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        assert attack.craft_update(clients[100], np.zeros((small_split.train.num_items, 8)), 0) is None

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
