"""Persistent per-dataset interaction structure shared across subsystems.

Three hot paths need fast "which items has user ``u`` interacted with?"
access at scale, and before this module each of them rebuilt its own copy of
that answer:

* the **batched negative sampler** stacked every selected client's boolean
  positive mask into a fresh ``(B, num_items)`` array each round,
* the **attacker's** :class:`~repro.attacks.approximation.UserMatrixApproximator`
  hand-built a mask matrix over its active public users,
* the **evaluation metrics** allocated a fresh per-user mask for every
  sampled-protocol ranking.

:class:`InteractionStore` computes the answer once per dataset: the
interactions in CSR layout (``indptr`` / ``indices``) plus a lazily built,
read-only ``(num_users, num_items)`` boolean mask matrix whose rows are
shared — as views, never copies — by all three consumers.  Obtain the store
through :meth:`repro.data.dataset.InteractionDataset.interaction_store`,
which caches one instance per dataset so every subsystem sees the same
arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import DataError

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.data.dataset import InteractionDataset

__all__ = ["InteractionStore"]


class InteractionStore:
    """CSR indices plus cached boolean mask rows for one interaction set.

    Parameters
    ----------
    num_users, num_items:
        Shape of the interaction matrix.
    indptr:
        CSR row pointer, shape ``(num_users + 1,)``; user ``u``'s items are
        ``indices[indptr[u]:indptr[u + 1]]``.
    indices:
        Item ids, sorted within each user's slice.

    Both index arrays are frozen read-only: every consumer holds views into
    them, so a mutation anywhere would silently corrupt the sampler, the
    attacker and the evaluator at once.
    """

    def __init__(self, num_users: int, num_items: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        if num_users <= 0 or num_items <= 0:
            raise DataError("num_users and num_items must be positive")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.shape != (num_users + 1,):
            raise DataError(
                f"indptr must have shape ({num_users + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.shape[0] or np.any(np.diff(indptr) < 0):
            raise DataError("indptr must be a non-decreasing pointer starting at 0")
        if indices.shape[0] > 0 and (indices.min() < 0 or indices.max() >= num_items):
            raise DataError("item id out of range")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._num_users = int(num_users)
        self._num_items = int(num_items)
        self._indptr = indptr
        self._indices = indices
        self._degrees = np.diff(indptr)
        self._degrees.setflags(write=False)
        self._masks: np.ndarray | None = None

    @classmethod
    def from_dataset(cls, dataset: "InteractionDataset") -> "InteractionStore":
        """Build the store from a dataset's (already deduplicated) pairs."""
        pairs = dataset.pairs
        counts = np.bincount(pairs[:, 0], minlength=dataset.num_users)
        indptr = np.zeros(dataset.num_users + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return cls(dataset.num_users, dataset.num_items, indptr, pairs[order, 1])

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        """Number of users (mask-matrix rows)."""
        return self._num_users

    @property
    def num_items(self) -> int:
        """Catalog size (mask-matrix columns)."""
        return self._num_items

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer, shape ``(num_users + 1,)`` (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR item ids, sorted within each user's slice (read-only)."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Interaction count per user, shape ``(num_users,)`` (read-only)."""
        return self._degrees

    @property
    def masks(self) -> np.ndarray:
        """The full ``(num_users, num_items)`` boolean mask matrix (read-only).

        Built once on first access; block consumers (the vectorized evaluator)
        slice contiguous row ranges out of it without copying.
        """
        if self._masks is None:
            masks = np.zeros((self._num_users, self._num_items), dtype=bool)
            if self._indices.shape[0] > 0:
                rows = np.repeat(np.arange(self._num_users, dtype=np.int64), self._degrees)
                masks[rows, self._indices] = True
            masks.setflags(write=False)
            self._masks = masks
        return self._masks

    # ------------------------------------------------------------------ #
    # Per-user / per-block access
    # ------------------------------------------------------------------ #
    def positives(self, user: int) -> np.ndarray:
        """Sorted items of ``user`` — a read-only view into the CSR indices."""
        self._check_user(user)
        return self._indices[self._indptr[user] : self._indptr[user + 1]]

    def degree(self, user: int) -> int:
        """Interaction count of ``user``."""
        self._check_user(user)
        return int(self._degrees[user])

    def mask_row(self, user: int) -> np.ndarray:
        """Boolean positive mask of ``user`` — a read-only view, never a copy."""
        self._check_user(user)
        return self.masks[user]

    def mask_block(self, lo: int, hi: int) -> np.ndarray:
        """Contiguous mask rows ``[lo, hi)`` — a read-only view, never a copy.

        This is the blocked-evaluation entry point: both evaluation engines
        partition the users into contiguous blocks, so their positive masks
        (and the batched ranking-negative draw that tests candidates against
        them) slice straight out of the shared matrix.
        """
        if lo < 0 or hi > self._num_users or lo > hi:
            raise DataError(
                f"block [{lo}, {hi}) out of range [0, {self._num_users})"
            )
        return self.masks[lo:hi]

    def mask_rows(self, users: np.ndarray) -> np.ndarray:
        """Stacked masks of ``users`` as a fresh *writable* ``(B, num_items)`` array.

        This is the batched-sampler entry point: the gather replaces the old
        per-client ``np.stack`` loop, and because the result is a private
        copy the caller may hand it to
        :func:`~repro.data.negative_sampling.sample_uniform_negatives_batched`
        with ``copy=False`` and let the sampler scribble on it.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.shape[0] > 0 and (users.min() < 0 or users.max() >= self._num_users):
            raise DataError("user id out of range")
        return self.masks[users]

    def _check_user(self, user: int) -> None:
        if user < 0 or user >= self._num_users:
            raise DataError(f"user id {user} out of range [0, {self._num_users})")

    def __repr__(self) -> str:
        return (
            f"InteractionStore(users={self._num_users}, items={self._num_items}, "
            f"nnz={self._indices.shape[0]}, masks_built={self._masks is not None})"
        )
