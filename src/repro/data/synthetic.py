"""Synthetic implicit-feedback generators calibrated to the paper's datasets.

The evaluation uses MovieLens-100K, MovieLens-1M and Steam-200K.  This
environment has no network access, so when the real files are absent the
library generates synthetic datasets with matched aggregate statistics:

* the same number of users, items and interactions (hence the same sparsity),
* a Zipf-like long-tailed item popularity distribution,
* a log-normal per-user activity distribution,
* light user/item affinity structure (latent clusters) so collaborative
  filtering has signal to learn, which is required for HR@10 to rise during
  training as in Figure 3.

The attack's behaviour depends on these structural properties rather than on
the identity of particular movies, so the synthetic substitute preserves the
phenomena the paper measures (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.presets import DatasetPreset
from repro.exceptions import DataError
from repro.rng import ensure_rng

__all__ = ["SyntheticConfig", "generate_synthetic_dataset"]

#: Upper bound on one block of exponential keys (one row when a row is larger).
_KEY_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic interaction generator.

    Attributes
    ----------
    num_users, num_items, num_interactions:
        Target sizes; the generated dataset matches users/items exactly and
        interactions approximately (duplicates are merged).
    popularity_exponent:
        Zipf exponent of item popularity.
    activity_sigma:
        Log-normal sigma of user activity.
    num_clusters:
        Number of latent user/item affinity clusters.
    cluster_strength:
        In [0, 1); how strongly users prefer items of their own cluster.
    min_interactions_per_user:
        Every user receives at least this many interactions so leave-one-out
        splitting and BPR training are well defined.
    name:
        Name given to the generated dataset.
    """

    num_users: int
    num_items: int
    num_interactions: int
    popularity_exponent: float = 1.0
    activity_sigma: float = 1.0
    num_clusters: int = 8
    cluster_strength: float = 0.65
    min_interactions_per_user: int = 4
    name: str = "synthetic"

    def validate(self) -> None:
        """Raise :class:`DataError` if the configuration is inconsistent."""
        if self.num_users <= 0 or self.num_items <= 0:
            raise DataError("num_users and num_items must be positive")
        if self.num_interactions < self.num_users * self.min_interactions_per_user:
            raise DataError(
                "num_interactions too small to give every user "
                f"{self.min_interactions_per_user} interactions"
            )
        if self.num_interactions > self.num_users * self.num_items:
            raise DataError("num_interactions exceeds the size of the interaction matrix")
        if not 0.0 <= self.cluster_strength < 1.0:
            raise DataError("cluster_strength must be in [0, 1)")
        if self.num_clusters <= 0:
            raise DataError("num_clusters must be positive")

    @classmethod
    def from_preset(cls, preset: DatasetPreset) -> "SyntheticConfig":
        """Build a generator configuration from a :class:`DatasetPreset`."""
        return cls(
            num_users=preset.num_users,
            num_items=preset.num_items,
            num_interactions=preset.num_interactions,
            popularity_exponent=preset.popularity_exponent,
            activity_sigma=preset.activity_sigma,
            name=preset.name,
        )


def generate_synthetic_dataset(
    config: SyntheticConfig,
    rng: np.random.Generator | int | None = None,
) -> InteractionDataset:
    """Generate an :class:`InteractionDataset` according to ``config``.

    Each user draws its interactions without replacement, weighted by global
    popularity mixed with a preference for the items of the user's cluster:
    the Efraimidis-Spirakis trick keeps the ``budget`` smallest keys
    ``Exp(1) / weight``, which is exact for weighted sampling without
    replacement.  The weights are built once per cluster, a
    ``(num_clusters, num_items)`` array.  The keys of a block of users (at
    most :data:`_KEY_BLOCK_BYTES`, at least one user) come from one call,
    which consumes the stream in the same order as one call per user; a
    user with no budget draws nothing.  Each user's items are sorted and
    copied straight into the dataset's CSR item array.
    """
    config.validate()
    generator = ensure_rng(rng)
    num_users, num_items = config.num_users, config.num_items

    user_budgets = _user_interaction_budgets(config, generator)
    item_weights = _item_popularity_weights(config)
    user_clusters = generator.integers(0, config.num_clusters, size=num_users)
    item_clusters = generator.integers(0, config.num_clusters, size=num_items)

    affinity = np.where(
        item_clusters == np.arange(config.num_clusters)[:, None],
        1.0,
        1.0 - config.cluster_strength,
    )
    weights = item_weights * affinity
    floors = np.maximum(weights / weights.sum(axis=1, keepdims=True), 1e-12)

    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(user_budgets, out=indptr[1:])
    items = np.empty(int(indptr[-1]), dtype=np.int64)
    starts, clusters = indptr.tolist(), user_clusters.tolist()
    drawing = np.flatnonzero(user_budgets > 0)
    block_rows = max(1, _KEY_BLOCK_BYTES // (8 * num_items))
    block_keys = np.empty((min(block_rows, drawing.shape[0]), num_items))
    for first in range(0, drawing.shape[0], block_rows):
        block = drawing[first : first + block_rows].tolist()
        # The same bytes and stream use as ``exponential()``, filled in place.
        keys = generator.standard_exponential(out=block_keys[: len(block)])
        for user, row in zip(block, keys):
            row /= floors[clusters[user]]
            lo, hi = starts[user], starts[user + 1]
            chosen = np.argpartition(row, hi - lo - 1)[: hi - lo]
            chosen.sort()
            items[lo:hi] = chosen
    return InteractionDataset._from_csr(num_users, num_items, indptr, items, config.name)


def _user_interaction_budgets(
    config: SyntheticConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-user interaction counts with a log-normal activity profile."""
    raw = rng.lognormal(mean=0.0, sigma=config.activity_sigma, size=config.num_users)
    raw = raw / raw.sum()
    budgets = np.maximum(
        config.min_interactions_per_user,
        np.round(raw * config.num_interactions).astype(np.int64),
    )
    budgets = np.minimum(budgets, config.num_items - 1)
    # Rescale towards the requested total without violating the bounds.
    excess = int(budgets.sum()) - config.num_interactions
    if excess > 0:
        order = np.argsort(-budgets, kind="stable")
        for user in order:
            if excess <= 0:
                break
            reducible = int(budgets[user]) - config.min_interactions_per_user
            take = min(reducible, excess)
            budgets[user] -= take
            excess -= take
    elif excess < 0:
        deficit = -excess
        order = np.argsort(budgets, kind="stable")
        for user in order:
            if deficit <= 0:
                break
            headroom = (config.num_items - 1) - int(budgets[user])
            give = min(headroom, deficit)
            budgets[user] += give
            deficit -= give
    return budgets


def _item_popularity_weights(config: SyntheticConfig) -> np.ndarray:
    """Zipf-like base popularity of every item."""
    ranks = np.arange(1, config.num_items + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, config.popularity_exponent)
    return weights / weights.sum()
