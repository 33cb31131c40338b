"""Batched round engine.

:class:`BatchedRoundTrainer` performs one aggregation round's local training
for *all* selected benign clients with stacked numpy operations instead of a
per-client Python loop:

* every client's (positives, negatives) pairs for the round are drawn through
  :meth:`draw_round_pairs` — one stacked rejection-sampling pass over all
  selected clients from the shared round stream (the per-client reference
  round in ``tests/oracles`` calls the same method, so both train on
  identical pairs),
* the user vectors are stacked into a ``(B, k)`` matrix, the positive and
  negative item vectors are gathered once, and the BPR margins, coefficients,
  per-user losses and all gradients are computed in bulk
  (:func:`repro.models.losses.bpr_coefficients_batched`),
* the per-(client, item) item gradients stay in the *lazy factored* form —
  folded coefficients in CSR layout plus the stacked user matrix, packaged
  as :class:`~repro.federated.updates.FactoredRoundUpdates` — which the
  ``sum`` / ``mean`` aggregators and the DP mechanism consume without ever
  materialising the ``(nnz, k)`` gradient-row array.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.store import InteractionStore
from repro.federated.client import BenignClient
from repro.federated.config import FederatedConfig
from repro.federated.privacy import GaussianNoiseMechanism
from repro.federated.updates import FactoredRoundUpdates, SparseRoundUpdates
from repro.models.losses import bpr_coefficients_batched

__all__ = ["BatchedRoundTrainer"]

Pairs = tuple[np.ndarray, np.ndarray]


class BatchedRoundTrainer:
    """Trains a round's benign clients in one batched computation.

    Parameters
    ----------
    clients, config, privacy, num_items:
        The benign client registry, the protocol configuration, the DP
        mechanism and the catalog size.
    round_rng:
        The shared round-sampler stream: one stacked draw per round, in
        client selection order.
    store:
        The dataset's shared :class:`~repro.data.store.InteractionStore`.
        The sampler reads its stacked positive masks straight out of the
        store's cached mask matrix (one fancy-index gather) and their
        popcounts out of the cached degrees.  Client ids must equal dataset
        user ids, which is how the simulation builds its benign registry.
    """

    def __init__(
        self,
        clients: dict[int, BenignClient],
        config: FederatedConfig,
        privacy: GaussianNoiseMechanism,
        num_items: int,
        round_rng: np.random.Generator,
        store: InteractionStore,
    ) -> None:
        self._clients = clients
        self._config = config
        self._privacy = privacy
        self._num_items = int(num_items)
        self._round_rng = round_rng
        self._store = store

    # ------------------------------------------------------------------ #
    # Pair drawing
    # ------------------------------------------------------------------ #
    def draw_round_pairs(self, benign_ids: list[int]) -> list[Pairs]:
        """The round's (positives, negatives) pairs, aligned with ``benign_ids``.

        One stacked rejection-sampling draw from the round stream covers
        every selected client that needs fresh negatives; clients keeping
        their first sample (``resample_negatives_each_epoch=False``) reuse
        it and consume no stream.
        """
        clients = [self._clients[cid] for cid in benign_ids]
        fresh = [i for i, client in enumerate(clients) if client.needs_fresh_negatives]
        if fresh:
            counts = np.array(
                [clients[i].positives.shape[0] for i in fresh], dtype=np.int64
            )
            ids = np.array([benign_ids[i] for i in fresh], dtype=np.int64)
            # One gather out of the persistent mask matrix.
            masks = self._store.mask_rows(ids)
            negatives, offsets = sample_uniform_negatives_batched(
                self._round_rng,
                self._num_items,
                counts,
                masks,
                num_positives=self._store.degrees[ids],
            )
            for row, i in enumerate(fresh):
                clients[i].accept_negatives(negatives[offsets[row] : offsets[row + 1]])
        return [client.current_pairs() for client in clients]

    # ------------------------------------------------------------------ #
    # Single-round training
    # ------------------------------------------------------------------ #
    def train_round(
        self,
        benign_ids: list[int],
        item_factors: np.ndarray,
    ) -> tuple["FactoredRoundUpdates | SparseRoundUpdates", float]:
        """One local-training round for ``benign_ids``.

        Returns the privatised round structure — the lazy
        :class:`FactoredRoundUpdates`, or an empty :class:`SparseRoundUpdates`
        when no benign client trains — plus the round's total benign training
        loss (measured before privacy noise).
        """
        num_clients = len(benign_ids)
        if num_clients == 0:
            return self._empty_round(), 0.0

        clients = [self._clients[cid] for cid in benign_ids]
        pair_lists = self.draw_round_pairs(benign_ids)
        segment_ids, positives, negatives = _stack_pairs(pair_lists)
        user_vectors = np.stack([client.user_vector for client in clients])

        l2_reg = self._config.l2_reg
        batched = bpr_coefficients_batched(
            user_vectors,
            item_factors,
            segment_ids,
            positives,
            negatives,
            l2_reg=l2_reg,
        )
        round_updates = FactoredRoundUpdates(
            client_ids=np.asarray(benign_ids, dtype=np.int64),
            item_ids=batched.item_ids,
            coefficients=batched.coefficients,
            client_offsets=batched.segment_offsets,
            user_vectors=user_vectors,
            losses=batched.losses,
            malicious_mask=np.zeros(num_clients, dtype=bool),
            ridge=2.0 * l2_reg if l2_reg > 0.0 else 0.0,
            ridge_matrix=item_factors if l2_reg > 0.0 else None,
        )

        self._step_clients(clients, user_vectors, batched.grad_users)
        return self._privacy.apply_round(round_updates), float(batched.losses.sum())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _empty_round(self) -> SparseRoundUpdates:
        num_factors = self._config.num_factors
        return SparseRoundUpdates(
            client_ids=np.empty(0, dtype=np.int64),
            item_ids=np.empty(0, dtype=np.int64),
            grad_rows=np.empty((0, num_factors), dtype=np.float64),
            client_offsets=np.zeros(1, dtype=np.int64),
            losses=np.empty(0, dtype=np.float64),
            malicious_mask=np.empty(0, dtype=bool),
        )

    def _step_clients(
        self,
        clients: list[BenignClient],
        user_vectors: np.ndarray,
        grad_users: np.ndarray,
    ) -> None:
        """Apply every client's local SGD step on its private vector."""
        stepped = user_vectors - self._config.learning_rate * grad_users
        for index, client in enumerate(clients):
            client.user_vector = stepped[index].copy()
            client.participation_count += 1


def _stack_pairs(pair_lists: list[Pairs]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-client pairs into (segment_ids, positives, negatives)."""
    counts = np.array([pairs[0].shape[0] for pairs in pair_lists], dtype=np.int64)
    segment_ids = np.repeat(np.arange(len(pair_lists), dtype=np.int64), counts)
    if counts.sum() > 0:
        positives = np.concatenate([pairs[0] for pairs in pair_lists])
        negatives = np.concatenate([pairs[1] for pairs in pair_lists])
    else:
        positives = np.empty(0, dtype=np.int64)
        negatives = np.empty(0, dtype=np.int64)
    return segment_ids, positives, negatives
