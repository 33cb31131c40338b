"""Leave-one-out train/test splitting.

The paper evaluates with the leave-one-out protocol (Section V-A): for every
user one interaction is held out as the test item and the rest form the
training set.  Users with a single interaction keep it in training and have
no test item.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import DataError
from repro.rng import ensure_rng

__all__ = ["TrainTestSplit", "leave_one_out_split"]


@dataclass(frozen=True)
class TrainTestSplit:
    """A leave-one-out split of an :class:`InteractionDataset`.

    Attributes
    ----------
    train:
        The training interactions (everything except the held-out items).
    test_items:
        Array of length ``num_users``; ``test_items[u]`` is the held-out item
        of user ``u`` or ``-1`` when the user has no test item.
    full:
        The original, unsplit dataset.
    """

    train: InteractionDataset
    test_items: np.ndarray
    full: InteractionDataset = field(repr=False)


def leave_one_out_split(
    dataset: InteractionDataset,
    rng: np.random.Generator | int | None = None,
    min_train_interactions: int = 1,
) -> TrainTestSplit:
    """Split ``dataset`` with the leave-one-out protocol.

    Parameters
    ----------
    dataset:
        The full interaction dataset.
    rng:
        Randomness used to pick the held-out item of each user.  The
        conventional choice is the most recent interaction; without timestamps
        in the synthetic substrate we pick uniformly at random, which is the
        standard fallback.
    min_train_interactions:
        A user only contributes a test item if at least this many
        interactions remain in its training profile afterwards.
    """
    if min_train_interactions < 1:
        raise DataError("min_train_interactions must be at least 1")
    generator = ensure_rng(rng)
    store = dataset.interaction_store()
    eligible = np.flatnonzero(store.degrees > min_train_interactions)
    # One bounded draw per eligible user, in user order: the same positions,
    # and the same generator state afterwards, as one ``choice(items)`` per
    # user.  ``held_out`` indexes the CSR item array and is ascending.
    held_out = store.indptr[eligible] + generator.integers(0, store.degrees[eligible])
    test_items = np.full(dataset.num_users, -1, dtype=np.int64)
    test_items[eligible] = store.indices[held_out]
    kept = np.ones(store.indices.shape[0], dtype=bool)
    kept[held_out] = False
    train = InteractionDataset._from_csr(
        dataset.num_users,
        dataset.num_items,
        store.indptr - np.searchsorted(held_out, store.indptr),
        store.indices[kept],
        f"{dataset.name}-train",
    )
    return TrainTestSplit(train=train, test_items=test_items, full=dataset)
