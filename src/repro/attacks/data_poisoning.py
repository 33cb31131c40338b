"""Centralised data-poisoning baselines evaluated in the federated setting (P1, P2).

Table VI of the paper compares FedRecAttack against two state-of-the-art
*data* poisoning attacks that were designed for centralised recommenders and
that assume the attacker knows **all** user-item interactions:

* **P1** — Li et al. (NeurIPS 2016) / Fang et al. (WWW 2020): poisoning of
  matrix-factorization recommenders.  The attacker fits a surrogate MF model
  on the full interaction data and builds fake user profiles containing the
  target items plus the filler items whose surrogate embeddings are most
  similar to the targets (so the targets get pulled towards well-connected
  regions of the latent space).

* **P2** — Huang et al. (NDSS 2021): poisoning of deep-learning recommenders.
  The attacker trains a surrogate model on the full data augmented with the
  fake users, and iteratively selects for each fake user the items the
  surrogate scores highest (outside the already chosen ones).

In the federated setting the fake users cannot inject training *data* into
other clients; they can only behave as clients that train honestly on their
fake profiles.  That is exactly how the paper evaluates them (and why their
effectiveness collapses), and how they are implemented here: the profile
construction uses full knowledge, the participation is honest BPR training.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.federated.updates import ClientUpdate
from repro.models.losses import bpr_loss_and_gradients

__all__ = ["SurrogateMFDataPoisoning", "SurrogateDLDataPoisoning"]


def _train_surrogate_mf(
    context: AttackContext,
    num_factors: int,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit a small MF surrogate on the full interaction data (attacker side)."""
    if context.full_train is None:
        raise AttackError("data-poisoning baselines require full interaction knowledge")
    train = context.full_train
    user_factors = rng.normal(0.0, 0.01, size=(train.num_users, num_factors))
    item_factors = rng.normal(0.0, 0.01, size=(train.num_items, num_factors))
    for _ in range(epochs):
        for user in range(train.num_users):
            positives = train.positive_items(user)
            if positives.shape[0] == 0:
                continue
            negatives = rng.integers(0, train.num_items, size=positives.shape[0])
            gradients = bpr_loss_and_gradients(
                user_factors[user], item_factors, positives, negatives
            )
            user_factors[user] -= learning_rate * gradients.grad_user
            item_factors[gradients.item_ids] -= learning_rate * gradients.grad_items
    return user_factors, item_factors


class _SurrogateDataPoisoning(Attack):
    """Shared machinery of the full-knowledge data-poisoning baselines."""

    def __init__(
        self,
        kappa: int = 60,
        surrogate_factors: int = 16,
        surrogate_epochs: int = 3,
        surrogate_learning_rate: float = 0.05,
    ) -> None:
        super().__init__()
        if kappa <= 0:
            raise AttackError("kappa must be positive")
        self.kappa = int(kappa)
        self.surrogate_factors = int(surrogate_factors)
        self.surrogate_epochs = int(surrogate_epochs)
        self.surrogate_learning_rate = float(surrogate_learning_rate)

    def setup(self, context: AttackContext, clients: dict[int, MaliciousClient]) -> None:
        super().setup(context, clients)
        user_factors, item_factors = _train_surrogate_mf(
            context,
            self.surrogate_factors,
            self.surrogate_epochs,
            self.surrogate_learning_rate,
            context.rng,
        )
        num_fillers = max(0, self.kappa // 2 - context.target_items.shape[0])
        for client in clients.values():
            fillers = self.select_filler_items(num_fillers, context, user_factors, item_factors)
            profile = np.unique(np.concatenate([context.target_items, fillers]))
            client.set_profile(profile)

    def select_filler_items(
        self,
        count: int,
        context: AttackContext,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
    ) -> np.ndarray:
        raise NotImplementedError

    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        round_index: int,
    ) -> ClientUpdate | None:
        return client.train_on_profile(item_factors)


class SurrogateMFDataPoisoning(_SurrogateDataPoisoning):
    """P1: fillers are the items closest to the targets in the surrogate space."""

    name = "P1"

    def select_filler_items(
        self,
        count: int,
        context: AttackContext,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
    ) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        target_centroid = item_factors[context.target_items].mean(axis=0)
        similarity = item_factors @ target_centroid
        similarity[context.target_items] = -np.inf
        order = np.argsort(-similarity, kind="stable")
        return order[:count].astype(np.int64)


class SurrogateDLDataPoisoning(_SurrogateDataPoisoning):
    """P2: fillers are the items the surrogate scores highest for a template user."""

    name = "P2"

    def select_filler_items(
        self,
        count: int,
        context: AttackContext,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
    ) -> np.ndarray:
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        template_user = int(context.rng.integers(0, user_factors.shape[0]))
        scores = item_factors @ user_factors[template_user]
        # Mix the surrogate's preference for the template user with the
        # popularity of the items among the targets' likely audience, as the
        # original attack interleaves "influential" and "popular" items.
        if context.item_popularity is not None:
            popularity = context.item_popularity / max(1, context.item_popularity.max())
            scores = scores + 0.1 * popularity
        scores[context.target_items] = -np.inf
        order = np.argsort(-scores, kind="stable")
        return order[:count].astype(np.int64)
