"""A scoring model that serves through ``ScorerProtocol`` by shape alone.

:class:`DistanceScorer` scores stored users against items by negative
squared Euclidean distance, ``-||u - v||^2``.  It subclasses nothing: it
conforms to :class:`repro.models.base.ScorerProtocol` only because it has
``n_users``, ``n_items``, ``score`` and ``score_block``, which is the rule
the library's structural dispatch promises.  Its scores are not a dot
product, so suites that sweep scoring surfaces keep one that is not MF.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError

__all__ = ["DistanceScorer"]


class DistanceScorer:
    """Negative squared distances between stored user and item vectors."""

    def __init__(self, user_factors: np.ndarray, item_factors: np.ndarray) -> None:
        self.user_factors = np.asarray(user_factors, dtype=np.float64)
        self.item_factors = np.asarray(item_factors, dtype=np.float64)

    @property
    def n_users(self) -> int:
        return int(self.user_factors.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.item_factors.shape[0])

    def score(self, user: int, items: np.ndarray | None = None) -> np.ndarray:
        """One user's row of :meth:`score_block`, restricted to ``items``."""
        row = self.score_block(np.array([user], dtype=np.int64))[0]
        return row if items is None else row[np.asarray(items, dtype=np.int64)]

    def score_block(self, users: np.ndarray, /) -> np.ndarray:
        """``(B, n_items)`` scores of a block of user ids in one stacked pass."""
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ModelError(f"users must be a 1-D array of user ids, got shape {users.shape}")
        if users.size and (int(users.min()) < 0 or int(users.max()) >= self.n_users):
            raise ModelError(f"user ids out of range [0, {self.n_users})")
        vectors = self.user_factors[users]
        user_norms = np.einsum("ij,ij->i", vectors, vectors)
        item_norms = np.einsum("ij,ij->i", self.item_factors, self.item_factors)
        return 2.0 * (vectors @ self.item_factors.T) - user_norms[:, None] - item_norms[None, :]
