"""User clients.

Each user's interaction data and feature vector ``u_i`` live only on its own
client (Section III-B).  A benign client performs one local BPR step per
round: it computes the gradients of the shared item matrix and of its own
vector, uploads the former and applies the latter locally (Eq. 6).

A malicious client is structurally identical but is controlled by an attack:
shilling-style attacks (Random / Bandwagon / Popular) give it a fake
interaction profile and let it train honestly on it, while model-poisoning
attacks (FedRecAttack, EB, PipAttack, ...) craft its upload directly.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.exceptions import FederationError
from repro.federated.updates import ClientUpdate
from repro.models.losses import bpr_loss_and_gradients
from repro.rng import ensure_rng

__all__ = ["Client", "BenignClient", "MaliciousClient"]


class Client:
    """Base class holding the private state shared by all clients."""

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
        #: Number of rounds this client has participated in.
        self.participation_count = 0

    @property
    def is_malicious(self) -> bool:
        """Whether the client is controlled by the attacker."""
        return False

    # ------------------------------------------------------------------ #
    # Local training (honest-training attacks; the per-client reference
    # round in ``tests/oracles`` reuses it for benign clients)
    # ------------------------------------------------------------------ #
    def _train_on_profile(
        self,
        positives: np.ndarray,
        negatives: np.ndarray,
        item_factors: np.ndarray,
    ) -> ClientUpdate:
        """One local SGD step on the given positive/negative pairs."""
        gradients = bpr_loss_and_gradients(
            self.user_vector, item_factors, positives, negatives, l2_reg=self.l2_reg
        )
        self.user_vector = self.user_vector - self.learning_rate * gradients.grad_user
        self.participation_count += 1
        return ClientUpdate(
            client_id=self.client_id,
            item_ids=gradients.item_ids,
            item_gradients=gradients.grad_items,
            loss=gradients.loss,
            is_malicious=self.is_malicious,
        )


class BenignClient(Client):
    """An honest user client training on its real interactions.

    The client holds no sampler of its own: the round engine draws every
    selected client's negatives in one stacked pass from the shared round
    stream and hands each client its slice through
    :meth:`accept_negatives`.  With ``resample_negatives=False`` the first
    slice is kept for every later round (the fixed ``V-_i'`` of
    Section III-B).
    """

    def __init__(
        self,
        client_id: int,
        positives: np.ndarray,
        num_items: int,
        num_factors: int,
        learning_rate: float,
        init_scale: float = 0.01,
        l2_reg: float = 0.0,
        resample_negatives: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(
            client_id, num_items, num_factors, learning_rate, init_scale, l2_reg, rng
        )
        self.positives = np.asarray(positives, dtype=np.int64)
        self.resample_negatives = bool(resample_negatives)
        self._negatives: np.ndarray | None = None

    @property
    def needs_fresh_negatives(self) -> bool:
        """Whether the round engine must draw this client's negatives.

        True every round when resampling, else only until the first draw:
        a client whose positives exceed half the catalog gets a quota
        shorter than its positive set, so the cached sample's length says
        nothing about whether it was drawn.
        """
        return self.resample_negatives or self._negatives is None

    def accept_negatives(self, negatives: np.ndarray) -> None:
        """Install the round engine's negatives.

        The client keeps its slice, so ``resample_negatives=False`` reuses
        it on later rounds through :meth:`current_pairs`.
        """
        self._negatives = np.asarray(negatives, dtype=np.int64)

    def current_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The aligned (positives, negatives) pairs of the installed sample."""
        if self._negatives is None:
            raise FederationError(
                f"client {self.client_id} has no negatives yet; the round "
                "engine installs them with accept_negatives"
            )
        negatives = self._negatives[: self.positives.shape[0]]
        positives = self.positives[: negatives.shape[0]]
        return positives, negatives


class MaliciousClient(Client):
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
        super().__init__(
            client_id, num_items, num_factors, learning_rate, init_scale, l2_reg, rng
        )
        #: Fake interaction profile (item ids); empty until an attack sets it.
        self.profile: np.ndarray = np.empty(0, dtype=np.int64)
        #: Persistent item set ``V_i`` for constrained gradient uploads.
        self.assigned_items: np.ndarray | None = None

    @property
    def is_malicious(self) -> bool:
        return True

    def set_profile(self, items: np.ndarray) -> None:
        """Install a fake interaction profile (shilling-style attacks)."""
        items = np.unique(np.asarray(items, dtype=np.int64))
        if items.shape[0] > 0 and (items.min() < 0 or items.max() >= self.num_items):
            raise FederationError("profile item id out of range")
        self.profile = items

    def train_on_profile(self, item_factors: np.ndarray) -> ClientUpdate:
        """Honest BPR training on the fake profile (Random/Bandwagon/Popular)."""
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
        return self._train_on_profile(positives, negatives, item_factors)
