"""Sort-based reference for the stacked training negative sampler.

:func:`sample_uniform_negatives_unique` is the rejection sampler of
:func:`repro.data.negative_sampling.sample_uniform_negatives_batched` with
its original deduplication: ``np.unique(keys, return_index=True)`` over the
(owner, item) keys finds each pair's first occurrence, and a second sort puts
the survivors back in draw order.  Everything else — the oversampling, the
draw sizes, the "taken" bitmap of the rows still pending — is the library's,
so from one generator state both accept the same negatives and leave the
generator in the same state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_uniform_negatives_unique"]


def sample_uniform_negatives_unique(
    rng: np.random.Generator,
    num_items: int,
    counts: np.ndarray,
    positive_masks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The library's stacked draw, deduplicated through ``np.unique``."""
    counts = np.asarray(counts, dtype=np.int64)
    num_users = counts.shape[0]
    num_positives = positive_masks.sum(axis=1).astype(np.int64)
    counts = np.minimum(counts, num_items - num_positives)
    offsets = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    negatives = np.empty(int(offsets[-1]), dtype=np.int64)
    if negatives.shape[0] == 0:
        return negatives, offsets

    taken: np.ndarray | None = None
    slot = np.full(num_users, -1, dtype=np.int64)
    filled = np.zeros(num_users, dtype=np.int64)
    remaining = counts.copy()
    pending = np.flatnonzero(remaining > 0)
    while pending.shape[0] > 0:
        free = num_items - num_positives[pending] - filled[pending]
        draws = np.ceil(remaining[pending] * (num_items / free) * 1.2).astype(np.int64) + 4
        owners = np.repeat(np.arange(pending.shape[0], dtype=np.int64), draws)
        candidates = rng.integers(0, num_items, size=owners.shape[0], dtype=np.int64)
        if taken is None:
            ok = ~positive_masks[pending[owners], candidates]
        else:
            ok = ~taken[slot[pending[owners]], candidates]
        owners, candidates = owners[ok], candidates[ok]
        _, first = np.unique(owners * num_items + candidates, return_index=True)
        first.sort()
        owners, candidates = owners[first], candidates[first]
        starts = np.searchsorted(owners, np.arange(pending.shape[0]))
        ranks = np.arange(owners.shape[0], dtype=np.int64) - starts[owners]
        keep = ranks < remaining[pending[owners]]
        owners, candidates, ranks = owners[keep], candidates[keep], ranks[keep]
        users = pending[owners]
        negatives[offsets[users] + filled[users] + ranks] = candidates
        accepted = np.bincount(owners, minlength=pending.shape[0])
        filled[pending] += accepted
        remaining[pending] -= accepted
        pending = pending[remaining[pending] > 0]
        if taken is None and pending.shape[0] > 0:
            slot[pending] = np.arange(pending.shape[0], dtype=np.int64)
            taken = positive_masks[pending]
        if taken is not None:
            marked = slot[users] >= 0
            taken[slot[users[marked]], candidates[marked]] = True
    return negatives, offsets
