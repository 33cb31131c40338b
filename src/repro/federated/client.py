"""User clients.

Each user's interaction data and feature vector ``u_i`` live only on its own
client (Section III-B).  A benign client performs one local BPR step per
round: it computes the gradients of the shared parameters and of its own
vector, uploads the former and applies the latter locally (Eq. 6).

A malicious client is structurally identical but is controlled by an attack:
shilling-style attacks (Random / Bandwagon / Popular) give it a fake
interaction profile and let it train honestly on it, while model-poisoning
attacks (FedRecAttack, EB, PipAttack, ...) craft its upload directly.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives
from repro.exceptions import FederationError
from repro.federated.updates import ClientUpdate
from repro.models.losses import bpr_loss_and_gradients, sigmoid
from repro.models.neural import MLPScorer
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
    # Local training (shared by benign clients and honest-training attacks)
    # ------------------------------------------------------------------ #
    def _train_on_profile(
        self,
        positives: np.ndarray,
        negatives: np.ndarray,
        item_factors: np.ndarray,
        scorer: MLPScorer | None = None,
        update_local_vector: bool = True,
    ) -> ClientUpdate:
        """One local SGD step on the given positive/negative pairs."""
        if scorer is None:
            gradients = bpr_loss_and_gradients(
                self.user_vector, item_factors, positives, negatives, l2_reg=self.l2_reg
            )
            loss = gradients.loss
            grad_user = gradients.grad_user
            item_ids = gradients.item_ids
            item_grads = gradients.grad_items
            theta_grad = None
        else:
            loss, grad_user, item_ids, item_grads, theta_grad = self._scorer_gradients(
                positives, negatives, item_factors, scorer
            )
        if update_local_vector:
            self.user_vector = self.user_vector - self.learning_rate * grad_user
        self.participation_count += 1
        return ClientUpdate(
            client_id=self.client_id,
            item_ids=item_ids,
            item_gradients=item_grads,
            theta_gradient=theta_grad,
            loss=loss,
            is_malicious=self.is_malicious,
        )

    def _scorer_gradients(
        self,
        positives: np.ndarray,
        negatives: np.ndarray,
        item_factors: np.ndarray,
        scorer: MLPScorer,
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """BPR gradients through the learnable interaction function."""
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        if positives.shape[0] == 0:
            return (
                0.0,
                np.zeros(self.num_factors),
                np.empty(0, dtype=np.int64),
                np.empty((0, self.num_factors)),
                np.zeros(scorer.num_parameters),
            )
        user_batch = np.tile(self.user_vector, (positives.shape[0], 1))
        pos_scores = scorer.score(user_batch, item_factors[positives])
        neg_scores = scorer.score(user_batch, item_factors[negatives])
        margins = pos_scores - neg_scores
        loss = float(-np.sum(np.log(np.clip(sigmoid(margins), 1e-12, 1.0))))
        coefficients = -sigmoid(-margins)

        _, pos_grads = scorer.score_and_gradients(user_batch, item_factors[positives], coefficients)
        _, neg_grads = scorer.score_and_gradients(user_batch, item_factors[negatives], -coefficients)

        grad_user = pos_grads.grad_user.sum(axis=0) + neg_grads.grad_user.sum(axis=0)
        item_ids = np.concatenate([positives, negatives])
        item_rows = np.concatenate([pos_grads.grad_item, neg_grads.grad_item], axis=0)
        unique_ids, inverse = np.unique(item_ids, return_inverse=True)
        accumulated = np.zeros((unique_ids.shape[0], self.num_factors), dtype=np.float64)
        np.add.at(accumulated, inverse, item_rows)
        theta_grad = pos_grads.grad_params + neg_grads.grad_params
        return loss, grad_user, unique_ids, accumulated, theta_grad

    def _sample_negatives(
        self, positives: np.ndarray, count: int, positive_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Uniform negatives drawn from the items not in ``positives``.

        Vectorised mask-based draw; callers with a fixed positive set can pass
        a precomputed ``positive_mask`` to skip rebuilding it every round.
        """
        if positive_mask is None:
            positive_mask = np.zeros(self.num_items, dtype=bool)
            positive_mask[positives] = True
            num_positives = None
        else:
            num_positives = positives.shape[0]
        return sample_uniform_negatives(
            self._rng, self.num_items, count, positive_mask, num_positives
        )


class BenignClient(Client):
    """An honest user client training on its real interactions."""

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
        positive_mask: np.ndarray | None = None,
    ) -> None:
        super().__init__(
            client_id, num_items, num_factors, learning_rate, init_scale, l2_reg, rng
        )
        self.positives = np.asarray(positives, dtype=np.int64)
        self.resample_negatives = bool(resample_negatives)
        if positive_mask is None:
            self._positive_mask = np.zeros(self.num_items, dtype=bool)
            self._positive_mask[self.positives] = True
        else:
            # Typically a read-only row view of the dataset's shared
            # InteractionStore — no per-client mask allocation.  The client
            # only ever reads it.
            if positive_mask.shape != (self.num_items,):
                raise FederationError(
                    f"positive_mask must have shape ({self.num_items},), "
                    f"got {positive_mask.shape}"
                )
            self._positive_mask = positive_mask
        self._negatives = self._sample_negatives(
            self.positives, self.positives.shape[0], self._positive_mask
        )

    @property
    def positive_mask(self) -> np.ndarray:
        """Boolean mask of the client's positives over the catalog (read-only).

        The batched round sampler stacks these masks to draw a whole round's
        negatives in one pass; treat the array as immutable.
        """
        return self._positive_mask

    @property
    def needs_fresh_negatives(self) -> bool:
        """Whether :meth:`draw_pairs` would draw a fresh negative sample."""
        return self.resample_negatives or self._negatives.shape[0] < self.positives.shape[0]

    def draw_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The round's aligned (positives, negatives) training pairs.

        Both the per-client and the vectorized round engine call this under
        the historical ``"permutation"`` sampler, so the two engines consume
        identical per-client random streams and train on identical pairs.
        Under the default ``"batched"`` sampler the round engine draws every
        client's negatives from the shared round stream instead and hands
        them to :meth:`accept_negatives`.  Either way the initial sample
        drawn at construction comes from the client's own stream.
        """
        if self.needs_fresh_negatives:
            self._negatives = self._sample_negatives(
                self.positives, self.positives.shape[0], self._positive_mask
            )
        return self._current_pairs()

    def accept_negatives(self, negatives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Install externally drawn negatives and return the round's pairs.

        This is the batched-sampler entry point: the round engine draws the
        negatives of all selected clients in one stacked pass and each client
        keeps its slice (so ``resample_negatives=False`` still reuses it on
        later rounds).
        """
        self._negatives = np.asarray(negatives, dtype=np.int64)
        return self._current_pairs()

    def _current_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        negatives = self._negatives[: self.positives.shape[0]]
        positives = self.positives[: negatives.shape[0]]
        return positives, negatives

    def local_train(
        self,
        item_factors: np.ndarray,
        scorer: MLPScorer | None = None,
        pairs: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> ClientUpdate:
        """One local training round: compute gradients, update ``u_i`` locally.

        ``pairs`` lets the loop engine inject pairs drawn by the batched
        round sampler; ``None`` draws through the client's own stream.
        """
        positives, negatives = self.draw_pairs() if pairs is None else pairs
        return self._train_on_profile(positives, negatives, item_factors, scorer)


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

    def train_on_profile(
        self, item_factors: np.ndarray, scorer: MLPScorer | None = None
    ) -> ClientUpdate:
        """Honest BPR training on the fake profile (Random/Bandwagon/Popular)."""
        if self.profile.shape[0] == 0:
            return ClientUpdate(
                client_id=self.client_id,
                item_ids=np.empty(0, dtype=np.int64),
                item_gradients=np.empty((0, self.num_factors)),
                is_malicious=True,
            )
        negatives = self._sample_negatives(self.profile, self.profile.shape[0])
        positives = self.profile[: negatives.shape[0]]
        return self._train_on_profile(positives, negatives, item_factors, scorer)
