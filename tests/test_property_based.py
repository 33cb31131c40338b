"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.fedrecattack import g_derivative, g_function
from repro.data.dataset import InteractionDataset
from repro.data.public import sample_public_interactions
from repro.data.splits import leave_one_out_split
from repro.federated.privacy import clip_rows
from repro.federated.updates import ClientUpdate
from repro.federated.aggregation import MedianAggregator, SumAggregator, TrimmedMeanAggregator
from repro.metrics.evaluation import evaluate_snapshot
from repro.models.losses import bpr_loss, bpr_loss_and_gradients, sigmoid

from oracles import evaluate_loop
from oracles.data import with_interactions_removed

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

interaction_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 19)), min_size=0, max_size=80
)

finite_rows = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


# --------------------------------------------------------------------- #
# Dataset invariants
# --------------------------------------------------------------------- #
class TestDatasetProperties:
    @given(interactions=interaction_lists)
    @settings(max_examples=40, deadline=None)
    def test_popularity_sums_to_interaction_count(self, interactions):
        dataset = InteractionDataset(15, 20, interactions)
        assert dataset.item_popularity.sum() == dataset.num_interactions

    @given(interactions=interaction_lists)
    @settings(max_examples=40, deadline=None)
    def test_user_degrees_sum_to_interaction_count(self, interactions):
        dataset = InteractionDataset(15, 20, interactions)
        assert dataset.user_degrees().sum() == dataset.num_interactions

    @given(interactions=interaction_lists)
    @settings(max_examples=40, deadline=None)
    def test_sparsity_in_unit_interval(self, interactions):
        dataset = InteractionDataset(15, 20, interactions)
        assert 0.0 <= dataset.sparsity <= 1.0

    @given(interactions=interaction_lists, seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_leave_one_out_partitions_interactions(self, interactions, seed):
        dataset = InteractionDataset(15, 20, interactions)
        split = leave_one_out_split(dataset, rng=seed)
        num_test_users = int(np.sum(split.test_items >= 0))
        assert split.train.num_interactions + num_test_users == dataset.num_interactions

    @given(interactions=interaction_lists)
    @settings(max_examples=60, deadline=None)
    def test_keyed_dedup_matches_unique_rows(self, interactions):
        # The constructor dedups on row-major (user * num_items + item) keys;
        # the pairs must be exactly what np.unique(axis=0) produced before.
        pairs = np.asarray(interactions, dtype=np.int64).reshape(-1, 2)
        dataset = InteractionDataset(15, 20, pairs)
        expected = np.unique(pairs, axis=0)
        assert dataset.pairs.dtype == expected.dtype
        assert dataset.pairs.shape == expected.shape
        assert dataset.pairs.tobytes() == expected.tobytes()

    @given(interactions=interaction_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_keyed_removal_matches_set_oracle(self, interactions, data):
        # Removals mix present pairs (possibly repeated) with absent ones.
        present = st.sampled_from(interactions) if interactions else st.nothing()
        any_pair = st.tuples(st.integers(0, 14), st.integers(0, 19))
        removals = data.draw(st.lists(st.one_of(present, any_pair), max_size=40))
        dataset = InteractionDataset(15, 20, interactions)
        reduced = with_interactions_removed(dataset, removals)
        expected = sorted(set(interactions) - set(removals))
        assert reduced.pairs.dtype == np.int64
        assert reduced.pairs.shape == (len(expected), 2)
        assert [tuple(pair) for pair in reduced.pairs.tolist()] == expected

    @given(interactions=interaction_lists, xi=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_public_interactions_are_subset(self, interactions, xi, seed):
        dataset = InteractionDataset(15, 20, interactions)
        public = sample_public_interactions(dataset, xi, rng=seed)
        assert public.num_interactions <= dataset.num_interactions
        for user, item in public.dataset.pairs:
            assert item in dataset.positive_items(int(user))


# --------------------------------------------------------------------- #
# Loss / attack-surrogate function invariants
# --------------------------------------------------------------------- #
class TestLossProperties:
    @given(x=st.floats(-500, 500, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_in_unit_interval(self, x):
        value = float(sigmoid(x))
        assert 0.0 <= value <= 1.0

    @given(x=hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-60, 60, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_g_function_monotone_and_bounded_below(self, x):
        values = g_function(x)
        assert np.all(values >= -1.0)
        order = np.argsort(x)
        assert np.all(np.diff(values[order]) >= -1e-12)

    @given(x=hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-60, 60, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_g_derivative_in_unit_interval(self, x):
        derivative = g_derivative(x)
        assert np.all(derivative >= 0.0)
        assert np.all(derivative <= 1.0)

    @given(seed=st.integers(0, 10_000), num_pairs=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_bpr_loss_non_negative_and_gradients_finite(self, seed, num_pairs):
        rng = np.random.default_rng(seed)
        items = rng.normal(size=(12, 4))
        user = rng.normal(size=4)
        pos = rng.integers(0, 12, size=num_pairs)
        neg = rng.integers(0, 12, size=num_pairs)
        loss = bpr_loss(user, items, pos, neg)
        assert loss >= 0.0
        result = bpr_loss_and_gradients(user, items, pos, neg)
        assert np.isfinite(result.grad_user).all()
        assert np.isfinite(result.grad_items).all()


# --------------------------------------------------------------------- #
# Evaluation-stream invariants
# --------------------------------------------------------------------- #
class TestEvaluationStreamProperties:
    """Random interaction matrices through the library and its reference.

    For any interaction matrix, any scores (including degenerate all-ties)
    and any block partitioning (including single-user blocks), the blocked
    pass and the per-user reference must report identical sampled-protocol
    metrics under a shared stream seed.
    """

    @given(
        interactions=interaction_lists,
        seed=st.integers(0, 10_000),
        block_size=st.sampled_from([1, 3, 7, 64]),
        all_ties=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_on_sampled_ranks(self, interactions, seed, block_size, all_ties):
        num_users, num_items = 15, 20
        dataset = InteractionDataset(num_users, num_items, interactions)
        rng = np.random.default_rng(seed)
        scores = (
            np.zeros((num_users, num_items))
            if all_ties
            else rng.normal(size=(num_users, num_items))
        )
        test_items = rng.integers(0, num_items, size=num_users)
        test_items[rng.random(num_users) < 0.25] = -1
        score_block = lambda users: scores[users]  # noqa: E731
        kwargs = dict(test_items=test_items, num_negatives=7, block_size=block_size)
        library = evaluate_snapshot(
            score_block, dataset, rng=np.random.default_rng(seed + 1), **kwargs
        )
        reference = evaluate_loop(
            score_block, dataset, rng=np.random.default_rng(seed + 1), **kwargs
        )
        assert library.accuracy == reference.accuracy

    @given(interactions=interaction_lists, seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_sampled_metrics_stay_in_range(self, interactions, seed):
        """Sampled metrics stay in [0, 1] and evaluate every user with a
        test item."""
        num_users, num_items = 15, 20
        dataset = InteractionDataset(num_users, num_items, interactions)
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(num_users, num_items))
        test_items = rng.integers(0, num_items, size=num_users)
        test_items[rng.random(num_users) < 0.25] = -1
        report = evaluate_snapshot(
            lambda users: scores[users],
            dataset,
            test_items=test_items,
            num_negatives=11,
            rng=np.random.default_rng(seed),
        ).accuracy
        assert report is not None
        assert 0.0 <= report.hr_at_10 <= 1.0
        assert 0.0 <= report.ndcg_at_10 <= 1.0
        assert report.num_evaluated_users == int(np.sum(test_items >= 0))


# --------------------------------------------------------------------- #
# Federated-substrate invariants
# --------------------------------------------------------------------- #
class TestFederatedProperties:
    @given(rows=finite_rows, bound=st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_clip_rows_never_exceeds_bound(self, rows, bound):
        clipped = clip_rows(rows, bound)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= bound + 1e-9)

    @given(rows=finite_rows, bound=st.floats(0.01, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_clip_rows_preserves_direction(self, rows, bound):
        clipped = clip_rows(rows, bound)
        for original, result in zip(rows, clipped):
            norm = np.linalg.norm(original)
            if norm > 1e-9:
                cosine = original @ result / (norm * max(np.linalg.norm(result), 1e-12))
                assert cosine == pytest.approx(1.0, abs=1e-6)

    @given(seed=st.integers(0, 10_000), num_clients=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_sum_aggregation_is_order_invariant(self, seed, num_clients):
        rng = np.random.default_rng(seed)
        updates = [
            ClientUpdate(
                client_id=i,
                item_ids=rng.choice(8, size=3, replace=False),
                item_gradients=rng.normal(size=(3, 4)),
            )
            for i in range(num_clients)
        ]
        forward = SumAggregator().aggregate(updates, 8, 4)
        backward = SumAggregator().aggregate(list(reversed(updates)), 8, 4)
        np.testing.assert_allclose(forward, backward)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_robust_aggregators_bounded_by_client_range(self, seed):
        # Median and trimmed-mean (per coordinate, before rescaling) must lie
        # within the min/max of the client values.
        rng = np.random.default_rng(seed)
        updates = [
            ClientUpdate(
                client_id=i,
                item_ids=np.arange(4),
                item_gradients=rng.normal(size=(4, 3)),
            )
            for i in range(5)
        ]
        stacked = np.stack([u.to_dense(4, 3) for u in updates])
        lower, upper = stacked.min(axis=0), stacked.max(axis=0)
        median = MedianAggregator().aggregate(updates, 4, 3) / 5
        trimmed = TrimmedMeanAggregator(0.2).aggregate(updates, 4, 3) / 5
        assert np.all(median >= lower - 1e-9) and np.all(median <= upper + 1e-9)
        assert np.all(trimmed >= lower - 1e-9) and np.all(trimmed <= upper + 1e-9)
