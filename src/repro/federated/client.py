"""Attacker-controlled clients.

Each benign user's interaction data and feature vector ``u_i`` live only on
its own client (Section III-B); the simulator keeps that private state as
arrays in :class:`~repro.federated.engine.BatchedRoundTrainer`, which trains
every selected benign client of a round in one stacked step.

A malicious client is controlled by an attack and keeps per-client state of
its own: shilling-style attacks (Random / Bandwagon / Popular) give it a
fake interaction profile and let it train honestly on it, while
model-poisoning attacks (FedRecAttack, EB, PipAttack, ...) craft its upload
directly.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.exceptions import FederationError
from repro.federated.updates import ClientUpdate
from repro.models.losses import bpr_loss_and_gradients
from repro.rng import ensure_rng

__all__ = ["MaliciousClient"]


class MaliciousClient:
    """An attacker-controlled client.

    The ``profile`` is the fake interaction set used by honest-training
    attacks; model-poisoning attacks instead use the per-client persistent
    item set ``assigned_items`` (the ``V_i`` of Eq. 21, chosen on first
    participation and kept fixed afterwards).
    """

    def __init__(
        self,
        client_id: int,
        num_items: int,
        num_factors: int,
        learning_rate: float,
        init_scale: float = 0.01,
        l2_reg: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_items <= 0 or num_factors <= 0:
            raise FederationError("num_items and num_factors must be positive")
        if learning_rate <= 0:
            raise FederationError("learning_rate must be positive")
        self.client_id = int(client_id)
        self.num_items = int(num_items)
        self.num_factors = int(num_factors)
        self.learning_rate = float(learning_rate)
        self.l2_reg = float(l2_reg)
        self._rng = ensure_rng(rng)
        #: Private user feature vector, never shared with the server.
        self.user_vector = self._rng.normal(0.0, init_scale, size=num_factors)
        #: Fake interaction profile (item ids); empty until an attack sets it.
        self.profile: np.ndarray = np.empty(0, dtype=np.int64)
        #: Persistent item set ``V_i`` for constrained gradient uploads.
        self.assigned_items: np.ndarray | None = None

    def set_profile(self, items: np.ndarray) -> None:
        """Install a fake interaction profile (shilling-style attacks)."""
        items = np.unique(np.asarray(items, dtype=np.int64))
        if items.shape[0] > 0 and (items.min() < 0 or items.max() >= self.num_items):
            raise FederationError("profile item id out of range")
        self.profile = items

    def train_on_profile(self, item_factors: np.ndarray) -> ClientUpdate:
        """Honest BPR training on the fake profile (Random/Bandwagon/Popular).

        One local SGD step on the profile's pairs: the item gradient is
        uploaded, the user-vector gradient applied locally (Eq. 6).
        """
        if self.profile.shape[0] == 0:
            return ClientUpdate(
                client_id=self.client_id,
                item_ids=np.empty(0, dtype=np.int64),
                item_gradients=np.empty((0, self.num_factors)),
                is_malicious=True,
            )
        mask = np.zeros((1, self.num_items), dtype=bool)
        mask[0, self.profile] = True
        negatives, _ = sample_uniform_negatives_batched(
            self._rng,
            self.num_items,
            np.array([self.profile.shape[0]], dtype=np.int64),
            mask,
        )
        positives = self.profile[: negatives.shape[0]]
        gradients = bpr_loss_and_gradients(
            self.user_vector, item_factors, positives, negatives, l2_reg=self.l2_reg
        )
        self.user_vector = self.user_vector - self.learning_rate * gradients.grad_user
        return ClientUpdate(
            client_id=self.client_id,
            item_ids=gradients.item_ids,
            item_gradients=gradients.grad_items,
            loss=gradients.loss,
            is_malicious=True,
        )
