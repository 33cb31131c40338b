"""Recommendation-accuracy metrics: HR@K and NDCG@K (leave-one-out).

These measure the *side effects* of an attack (Figure 3, Table VIII): a
stealthy attack must leave the hit ratio of held-out test items essentially
unchanged.  Both a full-ranking protocol and the common sampled protocol
(rank the test item against ``num_negatives`` sampled negatives, as in the
NCF paper the authors follow) are supported; both are computed by
:func:`repro.metrics.evaluation.evaluate_snapshot`.  This module holds the
report type and the sampled protocol's negative draw,
:func:`draw_ranking_negatives_batched`, which draws one score-block's
negatives in a single stacked pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.negative_sampling import sample_ranking_negatives_batched
from repro.data.store import InteractionStore
from repro.exceptions import ModelError

__all__ = [
    "AccuracyReport",
    "draw_ranking_negatives_batched",
]


@dataclass(frozen=True)
class AccuracyReport:
    """Leave-one-out recommendation accuracy of one model snapshot."""

    hr_at_10: float
    ndcg_at_10: float
    num_evaluated_users: int

    def as_dict(self) -> dict[str, float]:
        """The metrics as a plain dictionary."""
        return {"HR@10": self.hr_at_10, "NDCG@10": self.ndcg_at_10}


def _validate_test_items(test_items: np.ndarray, num_users: int, k: int) -> np.ndarray:
    """Shared validation of the per-user held-out item column."""
    if k <= 0:
        raise ModelError(f"k must be positive, got {k}")
    test_items = np.asarray(test_items, dtype=np.int64)
    if test_items.shape[0] != num_users:
        raise ModelError(
            "test_items must have one entry per user "
            f"({num_users}), got {test_items.shape[0]}"
        )
    return test_items


def draw_ranking_negatives_batched(
    rng: np.random.Generator,
    store: InteractionStore,
    users: np.ndarray,
    test_items: np.ndarray,
    num_negatives: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The sampled protocol's stacked negative draw for one block of users.

    This is the evaluation stream's entry point: one call draws the ranking
    negatives of a whole score block through a single stacked
    rejection-sampling pass of
    :func:`~repro.data.negative_sampling.sample_ranking_negatives_batched`,
    testing candidates directly against the shared
    :class:`~repro.data.store.InteractionStore` mask rows (a contiguous
    read-only :meth:`~repro.data.store.InteractionStore.mask_block` view
    when ``users`` is a contiguous range — no per-user mask allocation).

    **RNG contract of the evaluation stream.**  The stream is consumed one
    stacked draw per user block, blocks in user order; within a block, each
    rejection round draws one flat candidate vector covering every pending
    row (rows in user order), so the realization depends only on the block
    partitioning, the blocks' mask rows, the test items and
    ``num_negatives``.

    Users whose ``test_items`` entry is negative are skipped (they request
    zero negatives and consume no randomness); users whose positives plus
    test item cover the catalog receive zero negatives.  Everyone else
    receives exactly
    ``num_negatives`` draws (with replacement), so the CSR segments of the
    returned ``(negatives, offsets)`` have length ``num_negatives`` or 0.
    """
    if num_negatives < 0:
        raise ModelError(f"num_negatives must be non-negative, got {num_negatives}")
    users = np.asarray(users, dtype=np.int64)
    test_items = np.asarray(test_items, dtype=np.int64)
    if users.shape != test_items.shape:
        raise ModelError(
            f"users and test_items must align, got {users.shape} vs {test_items.shape}"
        )
    if users.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    lo = int(users[0])
    if np.array_equal(users, np.arange(lo, lo + users.shape[0], dtype=np.int64)):
        masks = store.mask_block(lo, lo + users.shape[0])
        degrees = store.degrees[lo : lo + users.shape[0]]
    else:
        masks = store.mask_rows(users)
        degrees = store.degrees[users]
    counts = np.where(test_items >= 0, int(num_negatives), 0)
    return sample_ranking_negatives_batched(
        rng, store.num_items, counts, masks, test_items, num_positives=degrees
    )
