"""User feature-matrix approximation from public interactions.

The private user matrix ``U`` is the attacker's missing piece.  Eq. (19) of
the paper approximates it by minimising the recommender's own BPR loss over
the *public* interactions ``D'`` while keeping the shared item matrix ``V``
fixed (the interaction function is the dot product, so ``V`` is the only
shared parameter):

    U^t  ~=  argmin_U  L_rec(U, V^t; D')

:class:`UserMatrixApproximator` performs that optimisation with SGD.  Only
users that have at least one public interaction are updated — for the others
no gradient exists, so their approximated vectors stay at their random
initialisation and contribute (essentially) nothing to the attack loss, which
matches the ablation result that the attack collapses at ``xi = 0``.

Each SGD epoch updates all active users at once from their public pairs
alone.  Per pair ``(j, n)`` of user ``b`` it gathers ``v_j - v_n``, takes one
row-wise dot with ``u_b`` for the margin, and one weighted segment sum folds
``-sigmoid(-margin) (v_j - v_n)`` into each user's gradient, plus the L2 term
on the users that have pairs.  An epoch reads about one pair per public
interaction, so it never scores the catalog: no (active users x catalog)
product, no per-(user, item) fold, and no loss or item-L2 terms that nothing
reads.  Within an epoch the per-user updates are independent (each touches
only its own row of ``U`` while ``V`` stays fixed), so batching the whole
epoch is exact, not an approximation.  The epoch's negatives are drawn up
front in one stacked rejection-sampling pass from the attack stream; the
one-user-at-a-time reference update in ``tests/oracles`` consumes the same
draws and matches up to floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.public import PublicInteractions
from repro.exceptions import AttackError
from repro.models.losses import segment_sum, sigmoid
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
    """

    def __init__(
        self,
        public: PublicInteractions,
        num_factors: int,
        learning_rate: float = 0.05,
        l2_reg: float = 1e-4,
        init_scale: float = 0.01,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_factors <= 0:
            raise AttackError("num_factors must be positive")
        if learning_rate <= 0:
            raise AttackError("learning_rate must be positive")
        self.public = public
        self.num_factors = int(num_factors)
        self.learning_rate = float(learning_rate)
        self.l2_reg = float(l2_reg)
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
        # Each user gets min(|positives|, N - |positives|) negatives per
        # epoch; a user whose complement is shorter than its positive set
        # trains on its first that-many positives only (rank mask), so the
        # pair arrays align with every epoch's negative CSR.
        quotas = np.minimum(self._counts, self._num_items - self._counts)
        row_starts = store.indptr[self._active_users]
        ranks = np.arange(segment_ids.shape[0], dtype=np.int64) - row_starts[segment_ids]
        keep = ranks < quotas[segment_ids]
        self._pair_positives = store.indices[keep]
        self._pair_segments = segment_ids[keep]
        self._has_pairs = quotas > 0

    @property
    def active_users(self) -> np.ndarray:
        """Users the attacker can actually approximate (>= 1 public interaction)."""
        return self._active_users

    @property
    def active_public_items(self) -> tuple[np.ndarray, ...]:
        """Cached public positives aligned with :attr:`active_users`.

        Consumers computing per-user statistics over the same active set
        (e.g. the stacked attack loss) can reuse this instead of
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
        for _ in range(epochs):
            self._epoch(item_factors)

    def _draw_epoch_negatives(self) -> tuple[np.ndarray, np.ndarray]:
        """One epoch's negatives for every active user, drawn up front.

        Returned CSR-style: row ``r``'s negatives are
        ``values[offsets[r]:offsets[r + 1]]``, from one stacked
        rejection-sampling pass over all active users.
        """
        return sample_uniform_negatives_batched(
            self._rng,
            self._num_items,
            self._counts,
            self._positive_masks,
            num_positives=self._counts,
        )

    def _epoch(self, item_factors: np.ndarray) -> None:
        """One SGD pass over every active user, pair by pair.

        The pairs' positives and owners were aligned with the negative CSR
        in ``__init__``, so only the user gradients the update reads are
        computed: ``sum_pairs -sigmoid(-margin) (v_pos - v_neg)`` plus
        ``2 * l2_reg * u`` on the users that have pairs.
        """
        negatives, _ = self._draw_epoch_negatives()
        if negatives.shape[0] == 0:
            return
        users = self.user_factors[self._active_users]
        differences = item_factors[self._pair_positives] - item_factors[negatives]
        margins = np.einsum("ij,ij->i", users[self._pair_segments], differences)
        coefficients = np.asarray(-sigmoid(-margins))
        gradients = segment_sum(
            differences, self._pair_segments, users.shape[0], weights=coefficients
        )
        gradients[self._has_pairs] += 2.0 * self.l2_reg * users[self._has_pairs]
        self.user_factors[self._active_users] = users - self.learning_rate * gradients
