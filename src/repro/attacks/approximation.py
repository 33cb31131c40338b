"""User feature-matrix approximation from public interactions.

The private user matrix ``U`` is the attacker's missing piece.  Eq. (19) of
the paper approximates it by minimising the recommender's own BPR loss over
the *public* interactions ``D'`` while keeping the shared item matrix ``V``
fixed:

    U^t  ~=  argmin_U  L_rec(U, V^t, Theta^t; D')

:class:`UserMatrixApproximator` performs that optimisation with SGD.  Only
users that have at least one public interaction are updated — for the others
no gradient exists, so their approximated vectors stay at their random
initialisation and contribute (essentially) nothing to the attack loss, which
matches the ablation result that the attack collapses at ``xi = 0``.

Two implementations of the SGD pass exist, selected by ``engine`` (the same
switch as :attr:`repro.federated.config.FederatedConfig.engine`):

* ``"vectorized"`` (default) — one call to
  :func:`repro.models.losses.bpr_coefficients_batched` per epoch over
  all active users' stacked vectors.  Within an epoch the per-user updates
  are independent (each touches only its own row of ``U`` while ``V`` stays
  fixed), so batching the whole epoch is exact, not an approximation.
* ``"loop"`` — the original one-user-at-a-time reference implementation.

Negative sampling is orthogonal to the engine and selected by ``sampler``
(propagated from :attr:`repro.federated.config.FederatedConfig.sampler`):
``"batched"`` (the default) draws the whole epoch's negatives in one stacked
rejection-sampling pass, ``"permutation"`` (the historical stream) draws one
catalog permutation per active user in loop order.  Each epoch's draws
happen up front in both cases and come back as one CSR array, so the two
computation engines consume the attack RNG identically and from identical
seeds produce matching approximations up to floating-point summation order —
per sampler.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import (
    DEFAULT_SAMPLER,
    sample_uniform_negatives,
    sample_uniform_negatives_batched,
)
from repro.data.public import PublicInteractions
from repro.exceptions import AttackError
from repro.models.losses import bpr_coefficients_batched, bpr_loss_and_gradients
from repro.rng import ensure_rng

__all__ = ["UserMatrixApproximator"]


class UserMatrixApproximator:
    """SGD approximation of the private user matrix from public interactions.

    Parameters
    ----------
    public:
        The attacker's public interactions ``D'``.
    num_factors:
        Feature dimensionality ``k`` of the shared model.
    learning_rate:
        SGD learning rate of the inner approximation problem.
    l2_reg:
        L2 regularisation on the approximated vectors (keeps them bounded
        when a user has a single public interaction).
    init_scale:
        Scale of the random initialisation.
    rng:
        Attack-private randomness.
    engine:
        ``"vectorized"`` batches each SGD epoch over all active users;
        ``"loop"`` is the per-user reference path.  Identical RNG streams,
        matching results.
    sampler:
        ``"batched"`` (default) draws the epoch's negatives in one stacked
        pass; ``"permutation"`` draws per user in loop order.
    """

    def __init__(
        self,
        public: PublicInteractions,
        num_factors: int,
        learning_rate: float = 0.05,
        l2_reg: float = 1e-4,
        init_scale: float = 0.01,
        rng: np.random.Generator | int | None = None,
        engine: str = "vectorized",
        sampler: str = DEFAULT_SAMPLER,
    ) -> None:
        if num_factors <= 0:
            raise AttackError("num_factors must be positive")
        if learning_rate <= 0:
            raise AttackError("learning_rate must be positive")
        if engine not in ("loop", "vectorized"):
            raise AttackError(f"engine must be 'loop' or 'vectorized', got {engine!r}")
        if sampler not in ("permutation", "batched"):
            raise AttackError(
                f"sampler must be 'permutation' or 'batched', got {sampler!r}"
            )
        self.public = public
        self.num_factors = int(num_factors)
        self.learning_rate = float(learning_rate)
        self.l2_reg = float(l2_reg)
        self.engine = engine
        self.sampler = sampler
        self._rng = ensure_rng(rng)
        num_users = public.dataset.num_users
        self.user_factors = self._rng.normal(0.0, init_scale, size=(num_users, num_factors))
        self._active_users = public.users_with_public_interactions()
        self._num_items = public.dataset.num_items
        # The public set is static, so everything an epoch needs besides its
        # negatives is built once from the public dataset's shared
        # InteractionStore: per-user positives (read-only views into its CSR
        # indices), the sampler's boolean masks (stacked over the *active*
        # rows only — at realistic xi most users have no public
        # interactions), and the flat pair positives with their segment ids.
        # None of it changes an RNG stream or the numerics.  The arrays are
        # read-only: they describe the same interactions, so a mutation
        # through :attr:`active_public_items` would desynchronize them.
        store = public.dataset.interaction_store()
        self._positives: tuple[np.ndarray, ...] = tuple(
            store.positives(int(user)) for user in self._active_users
        )
        # Users without public interactions have empty CSR slices, so the
        # store's indices are exactly the active users' positives in row order.
        self._counts = store.degrees[self._active_users]
        num_rows = self._counts.shape[0]
        segment_ids = np.repeat(np.arange(num_rows, dtype=np.int64), self._counts)
        self._positive_masks = np.zeros((num_rows, self._num_items), dtype=bool)
        self._positive_masks[segment_ids, store.indices] = True
        self._positive_masks.setflags(write=False)
        # Each user gets min(|positives|, N - |positives|) negatives per epoch
        # under either sampler; a user whose complement is shorter than its
        # positive set trains on its first that-many positives only (rank
        # mask), so the pair arrays align with every epoch's negative CSR.
        quotas = np.minimum(self._counts, self._num_items - self._counts)
        self._negative_offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(quotas, out=self._negative_offsets[1:])
        row_starts = store.indptr[self._active_users]
        ranks = np.arange(segment_ids.shape[0], dtype=np.int64) - row_starts[segment_ids]
        keep = ranks < quotas[segment_ids]
        self._pair_positives = store.indices[keep]
        self._pair_segments = segment_ids[keep]

    @property
    def active_users(self) -> np.ndarray:
        """Users the attacker can actually approximate (>= 1 public interaction)."""
        return self._active_users

    @property
    def active_public_items(self) -> tuple[np.ndarray, ...]:
        """Cached public positives aligned with :attr:`active_users`.

        Consumers computing per-user statistics over the same active set
        (e.g. the vectorized attack loss) can reuse this instead of
        re-fetching each user's public items every round.  The arrays are
        read-only (the negative-sampling masks are derived from them).
        """
        return self._positives

    def refresh(self, item_factors: np.ndarray, epochs: int = 1) -> None:
        """Run ``epochs`` SGD passes of Eq. (19) against the current ``V``.

        The approximator keeps its state between calls, so each round's
        refresh warm-starts from the previous round's estimate — the same
        behaviour as re-running the inner optimisation to (near) convergence
        but far cheaper.
        """
        if item_factors.shape != (self._num_items, self.num_factors):
            raise AttackError(
                f"item_factors must have shape ({self._num_items}, {self.num_factors}), "
                f"got {item_factors.shape}"
            )
        if epochs <= 0 or self._active_users.shape[0] == 0:
            return
        if self.engine == "vectorized":
            for _ in range(epochs):
                self._epoch_vectorized(item_factors)
        else:
            for _ in range(epochs):
                negatives, offsets = self._draw_epoch_negatives()
                for row in range(self._active_users.shape[0]):
                    self._update_user(
                        row, item_factors, negatives[offsets[row] : offsets[row + 1]]
                    )

    # ------------------------------------------------------------------ #
    # Epoch negative sampling (shared by both engines)
    # ------------------------------------------------------------------ #
    def _draw_epoch_negatives(self) -> tuple[np.ndarray, np.ndarray]:
        """One epoch's negatives for every active user, drawn up front.

        Returned CSR-style: row ``r``'s negatives are
        ``values[offsets[r]:offsets[r + 1]]``.  ``"batched"``: one stacked
        rejection-sampling pass over all active users.  ``"permutation"``:
        one draw per user in loop order (the historical stream).  Both
        engines call this at the top of an epoch, so the attack RNG stream
        depends only on the sampler.
        """
        if self.sampler == "batched":
            return sample_uniform_negatives_batched(
                self._rng, self._num_items, self._counts, self._positive_masks
            )
        offsets = self._negative_offsets
        values = np.empty(int(offsets[-1]), dtype=np.int64)
        for row, count in enumerate(self._counts.tolist()):
            values[offsets[row] : offsets[row + 1]] = sample_uniform_negatives(
                self._rng,
                self._num_items,
                count,
                self._positive_masks[row],
                num_positives=count,
            )
        return values, offsets

    # ------------------------------------------------------------------ #
    # Vectorized epoch: one batched BPR call over all active users
    # ------------------------------------------------------------------ #
    def _epoch_vectorized(self, item_factors: np.ndarray) -> None:
        """One SGD pass over every active user in stacked numpy operations.

        Negative samples are drawn up front through the configured sampler
        (keeping the attack RNG streams identical to the loop engine's); the
        gradient math — the expensive part — runs once over the pairs, whose
        positives and segment ids were aligned with the negative CSR in
        ``__init__``.
        """
        negatives, _ = self._draw_epoch_negatives()
        if negatives.shape[0] == 0:
            return
        # Only the user-vector gradients are needed, so the coefficients-only
        # kernel is used and the (nnz, k) item-gradient rows never exist.
        batched = bpr_coefficients_batched(
            self.user_factors[self._active_users],
            item_factors,
            self._pair_segments,
            self._pair_positives,
            negatives,
            l2_reg=self.l2_reg,
        )
        self.user_factors[self._active_users] -= self.learning_rate * batched.grad_users

    # ------------------------------------------------------------------ #
    # Loop reference path: one user at a time
    # ------------------------------------------------------------------ #
    def _update_user(
        self, row: int, item_factors: np.ndarray, negatives: np.ndarray
    ) -> None:
        user = int(self._active_users[row])
        positives = self._positives[row]
        if positives.shape[0] == 0:
            return
        if negatives.shape[0] < positives.shape[0]:
            positives = positives[: negatives.shape[0]]
        gradients = bpr_loss_and_gradients(
            self.user_factors[user], item_factors, positives, negatives, l2_reg=self.l2_reg
        )
        self.user_factors[user] = (
            self.user_factors[user] - self.learning_rate * gradients.grad_user
        )
