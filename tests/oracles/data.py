"""Per-user references for the synthetic generator, the leave-one-out split
and the public-interaction sample.

* :func:`generate_synthetic_dataset_loop` — the generator of
  :func:`repro.data.synthetic.generate_synthetic_dataset` one user at a
  time: each user builds its own personalised weight vector and draws its
  own exponential keys, where the library builds one vector per cluster and
  draws the keys of a block of users in one call;
* :func:`leave_one_out_split_loop` — the split of
  :func:`repro.data.splits.leave_one_out_split` with one ``choice`` call per
  eligible user, where the library draws every held-out position in one
  ``integers`` call;
* :func:`sample_public_interactions_pairs` — the sample of
  :func:`repro.data.public.sample_public_interactions` over the ``(N, 2)``
  pair array, rebuilt through the dataset constructor's sort and dedup,
  where the library cuts the public CSR out of the training one.

:func:`with_interactions_removed` is the pair-level removal the split
reference builds its training set with.

Each reference consumes its generator exactly like the library, so from one
seed both give the same pairs and leave the generator in the same state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.public import PublicInteractions
from repro.data.splits import TrainTestSplit
from repro.data.synthetic import (
    SyntheticConfig,
    _item_popularity_weights,
    _user_interaction_budgets,
)
from repro.exceptions import DataError

__all__ = [
    "generate_synthetic_dataset_loop",
    "leave_one_out_split_loop",
    "sample_public_interactions_pairs",
    "with_interactions_removed",
]


def generate_synthetic_dataset_loop(
    config: SyntheticConfig, generator: np.random.Generator
) -> InteractionDataset:
    """The library's generator, one weight vector and one key draw per user."""
    config.validate()
    user_budgets = _user_interaction_budgets(config, generator)
    item_weights = _item_popularity_weights(config)
    user_clusters = generator.integers(0, config.num_clusters, size=config.num_users)
    item_clusters = generator.integers(0, config.num_clusters, size=config.num_items)

    pairs: list[np.ndarray] = []
    for user in range(config.num_users):
        budget = int(user_budgets[user])
        weights = _personalised_weights(
            item_weights,
            item_clusters,
            int(user_clusters[user]),
            config.cluster_strength,
        )
        items = _weighted_sample_without_replacement(weights, budget, generator)
        pairs.append(np.column_stack([np.full(items.shape[0], user, dtype=np.int64), items]))

    interactions = np.concatenate(pairs, axis=0)
    return InteractionDataset(
        config.num_users, config.num_items, interactions, name=config.name
    )


def _personalised_weights(
    base_weights: np.ndarray,
    item_clusters: np.ndarray,
    user_cluster: int,
    cluster_strength: float,
) -> np.ndarray:
    """Mix global popularity with the user's cluster preference."""
    affinity = np.where(item_clusters == user_cluster, 1.0, 1.0 - cluster_strength)
    weights = base_weights * affinity
    return weights / weights.sum()


def _weighted_sample_without_replacement(
    weights: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` item indices without replacement, weighted by ``weights``.

    The Efraimidis-Spirakis exponential-sort trick: the ``count`` smallest
    keys ``Exp(1) / weight`` are an exact weighted draw without replacement.
    """
    count = min(count, weights.shape[0])
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    keys = rng.exponential(size=weights.shape[0]) / np.maximum(weights, 1e-12)
    return np.argpartition(keys, count - 1)[:count].astype(np.int64)


def leave_one_out_split_loop(
    dataset: InteractionDataset,
    generator: np.random.Generator,
    min_train_interactions: int = 1,
) -> TrainTestSplit:
    """The library's split, one ``choice`` call per user with a test item."""
    test_items = np.full(dataset.num_users, -1, dtype=np.int64)
    removals: list[tuple[int, int]] = []
    for user in range(dataset.num_users):
        items = dataset.positive_items(user)
        if items.shape[0] <= min_train_interactions:
            continue
        held_out = int(generator.choice(items))
        test_items[user] = held_out
        removals.append((user, held_out))
    train = with_interactions_removed(dataset, removals, name=f"{dataset.name}-train")
    return TrainTestSplit(train=train, test_items=test_items, full=dataset)


def with_interactions_removed(
    dataset: InteractionDataset,
    removals: Sequence[tuple[int, int]] | np.ndarray,
    name: str | None = None,
) -> InteractionDataset:
    """A copy of ``dataset`` with the given (user, item) pairs removed.

    Pairs absent from the dataset are ignored; ids outside the dataset
    raise :class:`DataError` (a row-major key would alias them onto another
    user's row).
    """
    num_users, num_items = dataset.num_users, dataset.num_items
    removed = np.asarray(removals, dtype=np.int64).reshape(-1, 2)
    if removed.shape[0] > 0 and (
        removed.min() < 0
        or removed[:, 0].max() >= num_users
        or removed[:, 1].max() >= num_items
    ):
        raise DataError("removal pair id out of range")
    pairs = dataset.pairs
    keys = pairs[:, 0] * num_items + pairs[:, 1]
    removed_keys = removed[:, 0] * num_items + removed[:, 1]
    return InteractionDataset(
        num_users, num_items, pairs[~np.isin(keys, removed_keys)], name=name or dataset.name
    )


def sample_public_interactions_pairs(
    train: InteractionDataset, xi: float, generator: np.random.Generator
) -> PublicInteractions:
    """The library's public sample, selected from the pair array."""
    pairs = train.pairs
    if xi == 0.0 or pairs.shape[0] == 0:
        selected = np.empty((0, 2), dtype=np.int64)
    else:
        selected = pairs[generator.random(pairs.shape[0]) < xi]
    public_dataset = InteractionDataset(
        train.num_users, train.num_items, selected, name=f"{train.name}-public"
    )
    return PublicInteractions(dataset=public_dataset, xi=xi)
