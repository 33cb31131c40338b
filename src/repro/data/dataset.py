"""Implicit-feedback interaction dataset.

The paper works with implicit feedback: the training data ``D`` is a set of
(user, item) pairs and, for each user ``u_i``, ``V+_i`` is the set of items
the user interacted with and ``V-_i`` the complement (Section III-A).
:class:`InteractionDataset` stores exactly that, as one read-only
compressed-sparse-row (CSR) pair of arrays: ``indptr`` (one row pointer per
user) and ``indices`` (each user's item ids, sorted).  Per-user access slices
it, and the shared :class:`~repro.data.store.InteractionStore` wraps the same
two arrays.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.data.store import InteractionStore
from repro.exceptions import DataError

__all__ = ["InteractionDataset"]


class InteractionDataset:
    """A set of implicit user-item interactions.

    Parameters
    ----------
    num_users:
        Number of users ``n``; user ids are ``0 .. n-1``.
    num_items:
        Number of items ``m``; item ids are ``0 .. m-1``.
    interactions:
        Array-like of shape ``(N, 2)`` with ``(user, item)`` pairs.
        Duplicates are dropped (the paper drops duplicate interactions during
        preprocessing).
    name:
        Human-readable dataset name, e.g. ``"ml-100k"``.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        interactions: Iterable[tuple[int, int]] | np.ndarray,
        name: str = "dataset",
    ) -> None:
        if num_users <= 0 or num_items <= 0:
            raise DataError(
                f"num_users and num_items must be positive, got {num_users} and {num_items}"
            )
        pairs = np.asarray(list(interactions) if not isinstance(interactions, np.ndarray) else interactions)
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DataError(f"interactions must have shape (N, 2), got {pairs.shape}")
        pairs = pairs.astype(np.int64, copy=False)
        if pairs.shape[0] > 0:
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= num_users:
                raise DataError("user id out of range")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= num_items:
                raise DataError("item id out of range")
        # Row-major keys sort pairs by user, then item; a sort plus an
        # adjacent-difference mask dedups them, and the sorted keys give the
        # CSR row pointer (one binary search per user) and item ids directly.
        keys = pairs[:, 0] * num_items + pairs[:, 1]
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        indptr = np.searchsorted(keys, np.arange(num_users + 1, dtype=np.int64) * num_items)
        self._adopt_csr(num_users, num_items, indptr, keys % num_items, name)

    @classmethod
    def _from_csr(
        cls, num_users: int, num_items: int, indptr: np.ndarray, indices: np.ndarray, name: str
    ) -> "InteractionDataset":
        """A dataset over CSR arrays whose rows are already sorted and distinct.

        The arrays are taken as they are, not copied (and frozen read-only).
        """
        dataset = cls.__new__(cls)
        dataset._adopt_csr(num_users, num_items, indptr, indices, name)
        return dataset

    def _adopt_csr(
        self, num_users: int, num_items: int, indptr: np.ndarray, indices: np.ndarray, name: str
    ) -> None:
        self._name = name
        self._num_users = int(num_users)
        self._num_items = int(num_items)
        # Counted before the store freezes ``indices``: ``bincount`` copies a
        # read-only input whole.
        self._item_popularity = np.bincount(indices, minlength=num_items)
        # The store checks the row pointer and the item ids, and freezes both
        # arrays read-only; the dataset keeps no other copy of them.
        self._store = InteractionStore(num_users, num_items, indptr, indices)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Dataset name."""
        return self._name

    @property
    def num_users(self) -> int:
        """Number of users ``n``."""
        return self._num_users

    @property
    def num_items(self) -> int:
        """Number of items ``m``."""
        return self._num_items

    @property
    def num_interactions(self) -> int:
        """Number of distinct (user, item) interactions ``|D|``."""
        return int(self._store.indices.shape[0])

    @property
    def pairs(self) -> np.ndarray:
        """All interactions as an ``(N, 2)`` array of ``(user, item)`` pairs.

        Sorted by user, then item; built from the CSR on each access.
        """
        users = np.repeat(np.arange(self._num_users, dtype=np.int64), self._store.degrees)
        return np.column_stack((users, self._store.indices))

    @property
    def item_popularity(self) -> np.ndarray:
        """Interaction count per item, shape ``(num_items,)``."""
        return self._item_popularity

    @property
    def sparsity(self) -> float:
        """Fraction of the user-item matrix that is empty (Table II)."""
        total = self._num_users * self._num_items
        return 1.0 - self.num_interactions / total

    @property
    def average_interactions_per_user(self) -> float:
        """Average number of interactions per user (Table II, "Avg.")."""
        return self.num_interactions / self._num_users

    # ------------------------------------------------------------------ #
    # Per-user access
    # ------------------------------------------------------------------ #
    def positive_items(self, user: int) -> np.ndarray:
        """Items the user interacted with, i.e. ``V+_i`` (sorted).

        A read-only view into the dataset's CSR item ids.
        """
        return self._store.positives(user)

    def user_degrees(self) -> np.ndarray:
        """Number of interactions of every user, shape ``(num_users,)``."""
        return np.diff(self._store.indptr)

    # ------------------------------------------------------------------ #
    # Aggregate views
    # ------------------------------------------------------------------ #
    def interaction_store(self) -> InteractionStore:
        """The :class:`~repro.data.store.InteractionStore` holding this dataset's CSR.

        The store *is* the dataset's CSR (no copy), so the batched negative
        sampler, the attacker's user-matrix approximation and the evaluation
        engine all see the same CSR indices and mask rows (the dataset is
        immutable, which is what makes the sharing safe).
        """
        return self._store

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_interactions

    def __repr__(self) -> str:
        return (
            f"InteractionDataset(name={self._name!r}, users={self._num_users}, "
            f"items={self._num_items}, interactions={self.num_interactions}, "
            f"sparsity={self.sparsity:.4f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionDataset):
            return NotImplemented
        return (
            self._num_users == other._num_users
            and self._num_items == other._num_items
            and np.array_equal(self._store.indptr, other._store.indptr)
            and np.array_equal(self._store.indices, other._store.indices)
        )
