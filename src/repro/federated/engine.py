"""Batched round engine.

:class:`BatchedRoundTrainer` holds the benign clients' private state as
arrays — the user matrix ``user_factors`` (row ``u`` is user ``u``'s
``u_i``), a negatives buffer aligned with the store's CSR item ids and each
user's drawn length — and trains *all* selected benign clients of a round in
stacked numpy operations instead of a per-client Python loop:

* :meth:`BatchedRoundTrainer.draw_round_pairs` draws fresh negatives in one
  stacked rejection-sampling pass from the shared round stream and gathers
  every selected client's pairs at once (the per-client reference round in
  ``tests/oracles`` calls the same method, so both train on identical pairs),
* the BPR margins, coefficients, per-user losses and all gradients are
  computed in bulk (:func:`repro.models.losses.bpr_coefficients_batched`),
  and the local SGD step is one scatter into ``user_factors``,
* the per-(client, item) item gradients stay in the *lazy factored* form —
  folded coefficients in CSR layout plus the gathered user vectors, packaged
  as :class:`~repro.federated.updates.FactoredRoundUpdates` — which the
  ``sum`` / ``mean`` aggregators and the DP mechanism consume without ever
  materialising the ``(nnz, k)`` gradient-row array.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.store import InteractionStore
from repro.federated.config import FederatedConfig
from repro.federated.privacy import GaussianNoiseMechanism
from repro.federated.updates import FactoredRoundUpdates, SparseRoundUpdates
from repro.models.losses import bpr_coefficients_batched

__all__ = ["BatchedRoundTrainer"]


class BatchedRoundTrainer:
    """Trains a round's benign clients in one batched computation.

    Parameters
    ----------
    user_factors:
        The initial user matrix, shape ``(num_users, k)``; the trainer owns
        it from here on and steps its rows in place.
    config, privacy, num_items:
        The protocol configuration, the DP mechanism and the catalog size.
    round_rng:
        The shared round-sampler stream: one stacked draw per round, in
        client selection order.
    store:
        The dataset's shared :class:`~repro.data.store.InteractionStore`.
        Client ids are dataset user ids: a client's positives are its CSR
        slice, the sampler reads its stacked positive masks straight out of
        the store's cached mask matrix (one fancy-index gather) and their
        popcounts out of the cached degrees.
    """

    def __init__(
        self,
        user_factors: np.ndarray,
        config: FederatedConfig,
        privacy: GaussianNoiseMechanism,
        num_items: int,
        round_rng: np.random.Generator,
        store: InteractionStore,
    ) -> None:
        #: Private user vectors, one row per user, never shared with the server.
        self.user_factors = user_factors
        self._config = config
        self._privacy = privacy
        self._num_items = int(num_items)
        self._round_rng = round_rng
        self._store = store
        # User u's negatives occupy ``_negatives[indptr[u] : indptr[u] + n]``
        # with ``n = _drawn[u]``: a user asks for one negative per positive,
        # capped at the complement of its positives, so its draw fits its
        # CSR slice.  A heavy user's quota is shorter than its slice, which
        # is why the drawn length, not the slice, says whether it has drawn.
        self._negatives = np.empty(store.indices.shape[0], dtype=np.int64)
        self._drawn = np.full(store.num_users, -1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Pair drawing
    # ------------------------------------------------------------------ #
    def draw_round_pairs(
        self, benign_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The round's pairs as stacked ``(offsets, positives, negatives)``.

        Row ``b`` (client ``benign_ids[b]``) pairs its first ``n`` positives
        with its ``n`` drawn negatives at ``offsets[b]:offsets[b + 1]``.  One
        stacked draw from the round stream covers every selected client that
        needs fresh negatives: all of them when resampling, else those that
        never drew; the others reuse their first draw and consume no stream.
        """
        ids = np.asarray(benign_ids, dtype=np.int64)
        store = self._store
        if self._config.resample_negatives_each_epoch:
            fresh = ids
        else:
            fresh = ids[self._drawn[ids] < 0]
        if fresh.shape[0] > 0:
            degrees = store.degrees[fresh]
            negatives, offsets = sample_uniform_negatives_batched(
                self._round_rng,
                self._num_items,
                degrees,
                # One gather out of the persistent mask matrix.
                store.mask_rows(fresh),
                num_positives=degrees,
            )
            self._negatives[_slots(store.indptr[fresh], offsets)] = negatives
            self._drawn[fresh] = np.diff(offsets)
        offsets = np.zeros(ids.shape[0] + 1, dtype=np.int64)
        np.cumsum(self._drawn[ids], out=offsets[1:])
        slots = _slots(store.indptr[ids], offsets)
        return offsets, store.indices[slots], self._negatives[slots]

    # ------------------------------------------------------------------ #
    # Single-round training
    # ------------------------------------------------------------------ #
    def train_round(
        self,
        benign_ids: np.ndarray,
        item_factors: np.ndarray,
    ) -> tuple["FactoredRoundUpdates | SparseRoundUpdates", float]:
        """One local-training round for ``benign_ids``.

        Returns the privatised round structure — the lazy
        :class:`FactoredRoundUpdates`, or an empty :class:`SparseRoundUpdates`
        when no benign client trains — plus the round's total benign training
        loss (measured before privacy noise).
        """
        ids = np.asarray(benign_ids, dtype=np.int64)
        num_clients = ids.shape[0]
        if num_clients == 0:
            return self._empty_round(), 0.0

        offsets, positives, negatives = self.draw_round_pairs(ids)
        segment_ids = np.repeat(np.arange(num_clients, dtype=np.int64), np.diff(offsets))
        # A fancy-index gather copies, so the round structure below keeps the
        # vectors the gradients were taken at after the step writes back.
        user_vectors = self.user_factors[ids]

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
            client_ids=ids,
            item_ids=batched.item_ids,
            coefficients=batched.coefficients,
            client_offsets=batched.segment_offsets,
            user_vectors=user_vectors,
            losses=batched.losses,
            malicious_mask=np.zeros(num_clients, dtype=bool),
            ridge=2.0 * l2_reg if l2_reg > 0.0 else 0.0,
            ridge_matrix=item_factors if l2_reg > 0.0 else None,
        )

        # Every client's local SGD step on its private vector (Eq. 6).
        self.user_factors[ids] = user_vectors - self._config.learning_rate * batched.grad_users
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


def _slots(starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Buffer slots ``starts[b] + 0 .. n_b - 1`` for ``n_b = diff(offsets)[b]``, row by row."""
    lengths = np.diff(offsets)
    return np.arange(offsets[-1], dtype=np.int64) + np.repeat(starts - offsets[:-1], lengths)
