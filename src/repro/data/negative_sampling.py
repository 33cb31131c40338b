"""Negative sampling for BPR training and the sampled ranking protocol.

Each user client samples a set of negative items ``V-_i'`` of the same size
as its positive set and trains on the paired loss of Eq. (4).
:func:`sample_uniform_negatives_batched` draws those negatives for *many*
users at once from a *single shared* RNG stream: oversampled uniform
candidates, masked against the stacked positive masks, deduplicated in draw
order, and resampled until every user has its quota.  Accepting candidates
in draw order (skipping rejects and duplicates) is classic rejection
sampling, so each user's accepted set is an exact uniform draw without
replacement from the complement of its positives.  The federated round
(the ``"round-sampler"`` stream), the attacker's user-matrix approximation
(the attack stream) and the shilling clients (each client's own stream, at
batch size one) all draw through it; see ``docs/architecture.md`` for the
RNG contract.

A second stacked draw, :func:`sample_ranking_negatives_batched`, serves the
*evaluation* side: the sampled ranking protocol draws one score-block's
ranking negatives with replacement in a single rejection-sampling pass,
excluding each row's held-out test item.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError

__all__ = [
    "sample_uniform_negatives_batched",
    "sample_ranking_negatives_batched",
]


def sample_uniform_negatives_batched(
    rng: np.random.Generator,
    num_items: int,
    counts: np.ndarray,
    positive_masks: np.ndarray,
    *,
    num_positives: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw distinct uniform negatives for ``B`` users in one stacked pass.

    Parameters
    ----------
    rng:
        The shared stream the whole batch consumes (the batched sampler's RNG
        contract: one stream per draw site, not one per user).
    num_items:
        Catalog size ``N``.
    counts:
        Requested negatives per user, shape ``(B,)``.  Automatically capped at
        each user's complement size ``N - |positives|``.
    positive_masks:
        Stacked boolean positive masks, shape ``(B, N)``, C-contiguous (a row
        gather or a row slice is; a column-strided view raises
        :class:`DataError`).  Never modified and never copied whole;
        read-only arrays are welcome.
    num_positives:
        Optional per-row popcount of ``positive_masks`` for callers that
        cache it (e.g. :attr:`InteractionStore.degrees`); computed from the
        masks when omitted.  Either way the draw is the same.

    Returns
    -------
    (negatives, offsets):
        CSR-style result: user ``b``'s negatives are
        ``negatives[offsets[b]:offsets[b + 1]]``, in acceptance (draw) order.

    The rejection loop oversamples each round by the inverse acceptance
    probability, so even users whose positives cover most of the catalog
    finish in a handful of rounds; every candidate is tested against the
    positives *and* the already-accepted items, and duplicates within a round
    are dropped keeping first occurrences, which makes the accepted sequence
    an exact uniform draw without replacement.  The first round tests
    candidates against ``positive_masks`` directly (nothing is accepted
    yet); only the rows still pending after it get a private "taken" bitmap
    of their positives plus their accepted negatives.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_users = counts.shape[0]
    if positive_masks.shape != (num_users, num_items):
        raise DataError(
            f"positive_masks must have shape ({num_users}, {num_items}), "
            f"got {positive_masks.shape}"
        )
    if np.any(counts < 0):
        raise DataError("counts must be non-negative")
    flat_masks = _flat_rows(positive_masks)
    if num_positives is None:
        num_positives = positive_masks.sum(axis=1)
    num_positives = np.asarray(num_positives, dtype=np.int64)
    counts = np.minimum(counts, num_items - num_positives)
    offsets = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    negatives = np.empty(total, dtype=np.int64)
    if total == 0:
        return negatives, offsets

    # Candidates are tested by one flat lookup, row * N + item.  After the
    # first round, row ``slot[user]`` of the flat ``taken`` bitmap marks
    # everything a pending user's candidates must avoid: its positives plus
    # its negatives accepted in earlier rounds.
    taken: np.ndarray | None = None
    slot = np.full(num_users, -1, dtype=np.int64)
    filled = np.zeros(num_users, dtype=np.int64)
    remaining = counts.copy()
    pending = np.flatnonzero(remaining > 0)
    while pending.shape[0] > 0:
        # Acceptance probability per pending user; oversample accordingly
        # (plus slack) so nearly every user finishes this round.
        free = num_items - num_positives[pending] - filled[pending]
        draws = np.ceil(remaining[pending] * (num_items / free) * 1.2).astype(np.int64) + 4
        owners = np.repeat(np.arange(pending.shape[0], dtype=np.int64), draws)
        candidates = rng.integers(0, num_items, size=owners.shape[0], dtype=np.int64)
        if taken is None:
            ok = ~flat_masks[pending[owners] * num_items + candidates]
        else:
            ok = ~taken[slot[pending[owners]] * num_items + candidates]
        owners, candidates = owners[ok], candidates[ok]
        owners, candidates = _first_occurrences(owners, candidates, num_items)
        # Rank of each accepted candidate within its user (owners stay sorted
        # ascending, with draw order preserved inside each user's run).
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
            taken = positive_masks[pending].reshape(-1)
        if taken is not None:
            marked = slot[users] >= 0
            taken[slot[users[marked]] * num_items + candidates[marked]] = True
    return negatives, offsets


def _flat_rows(masks: np.ndarray) -> np.ndarray:
    """``masks`` as one flat view, row ``r`` and item ``i`` at ``r * N + i``.

    Only a C-contiguous array flattens without a copy, so any other layout
    is refused rather than copied whole.
    """
    if not masks.flags.c_contiguous:
        raise DataError(
            "positive_masks must be C-contiguous (a row gather or row slice "
            "of the mask matrix), not a strided view"
        )
    return masks.reshape(-1)


def _first_occurrences(
    owners: np.ndarray, candidates: np.ndarray, num_items: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop repeated (owner, item) pairs, keeping first occurrences in draw order.

    ``owners`` is non-decreasing, so one stable argsort of the item ids puts
    equal pairs next to each other, earliest draw first, and one adjacent
    comparison marks the repeats; the kept entries never leave draw order,
    so no second sort restores it.  The ids are sorted in the smallest
    unsigned type that holds them, where numpy's stable sort is a radix sort
    (8- and 16-bit keys).  Extra memory is O(draws).
    """
    items = candidates.astype(np.min_scalar_type(num_items - 1))
    order = np.argsort(items, kind="stable")
    items, ordered_owners = items[order], owners[order]
    repeated = (items[1:] == items[:-1]) & (ordered_owners[1:] == ordered_owners[:-1])
    keep = np.ones(candidates.shape[0], dtype=bool)
    keep[order[1:][repeated]] = False
    return owners[keep], candidates[keep]


def sample_ranking_negatives_batched(
    rng: np.random.Generator,
    num_items: int,
    counts: np.ndarray,
    positive_masks: np.ndarray,
    excluded_items: np.ndarray,
    *,
    num_positives: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ranking negatives for ``B`` users in one stacked pass.

    This is the stacked core of the *evaluation* stream: unlike
    the training draw of :func:`sample_uniform_negatives_batched` it samples
    **with replacement** (the sampled ranking protocol accepts repeated
    negatives), and each row may exclude one extra item — the row's
    held-out test item — on top of its positives.

    Parameters
    ----------
    rng:
        The shared stream the whole batch consumes (one stream per draw
        site, not one per user).
    num_items:
        Catalog size ``N``.
    counts:
        Requested negatives per row, shape ``(B,)``.  A row whose positives
        plus excluded item cover the whole catalog receives **zero**
        negatives; because the draw is with replacement, every other row
        receives exactly its requested count.
    positive_masks:
        Stacked boolean positive masks, shape ``(B, N)``, C-contiguous (a
        column-strided view raises :class:`DataError`).  Never mutated —
        read-only views (e.g. contiguous
        :meth:`repro.data.store.InteractionStore.mask_block` slices) are
        welcome, which is what keeps the stacked draw allocation-free per
        block.
    excluded_items:
        One extra excluded item id per row, shape ``(B,)``; negative values
        mean "no exclusion".
    num_positives:
        Optional per-row popcount of ``positive_masks`` for callers that
        cache it (e.g. :attr:`InteractionStore.degrees`); computed from the
        masks when omitted.

    Returns
    -------
    (negatives, offsets):
        CSR-style result: row ``b``'s negatives are
        ``negatives[offsets[b]:offsets[b + 1]]``, in acceptance (draw) order.

    Every rejection round oversamples the pending rows by the inverse
    acceptance probability (plus slack), tests the flat candidate vector
    against the positive masks (one flat lookup, row * N + item) and the
    excluded items, and keeps each row's accepted candidates in draw order
    up to its remaining quota — classic rejection sampling, so each
    accepted draw is an exact uniform sample from the row's free items.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_rows = counts.shape[0]
    excluded_items = np.asarray(excluded_items, dtype=np.int64)
    if positive_masks.shape != (num_rows, num_items):
        raise DataError(
            f"positive_masks must have shape ({num_rows}, {num_items}), "
            f"got {positive_masks.shape}"
        )
    if excluded_items.shape != (num_rows,):
        raise DataError(
            f"excluded_items must have shape ({num_rows},), got {excluded_items.shape}"
        )
    if np.any(excluded_items >= num_items):
        raise DataError("excluded item id out of range")
    if np.any(counts < 0):
        raise DataError("counts must be non-negative")
    flat_masks = _flat_rows(positive_masks)
    if num_positives is None:
        num_positives = positive_masks.sum(axis=1)
    # Free items per row: the catalog minus the positives, minus the excluded
    # item when it is valid and not already a positive.
    excluded_is_free = np.zeros(num_rows, dtype=np.int64)
    excludable = np.flatnonzero(excluded_items >= 0)
    if excludable.shape[0] > 0:
        excluded_is_free[excludable] = ~flat_masks[
            excludable * num_items + excluded_items[excludable]
        ]
    free = num_items - np.asarray(num_positives, dtype=np.int64) - excluded_is_free
    effective = np.where(free > 0, counts, 0)
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(effective, out=offsets[1:])
    total = int(offsets[-1])
    negatives = np.empty(total, dtype=np.int64)
    if total == 0:
        return negatives, offsets

    filled = np.zeros(num_rows, dtype=np.int64)
    remaining = effective.copy()
    pending = np.flatnonzero(remaining > 0)
    while pending.shape[0] > 0:
        # Acceptance probability per pending row is free/N; oversample
        # accordingly (plus slack) so nearly every row finishes this round.
        draws = np.ceil(remaining[pending] * (num_items / free[pending]) * 1.2).astype(
            np.int64
        ) + 4
        owners = np.repeat(np.arange(pending.shape[0], dtype=np.int64), draws)
        candidates = rng.integers(0, num_items, size=owners.shape[0], dtype=np.int64)
        rows = pending[owners]
        ok = ~flat_masks[rows * num_items + candidates] & (candidates != excluded_items[rows])
        owners, candidates = owners[ok], candidates[ok]
        # Rank of each accepted candidate within its owner (owners stay sorted
        # ascending with draw order preserved inside each owner's run), then
        # truncate to the remaining quota — with replacement, no dedup.
        starts = np.searchsorted(owners, np.arange(pending.shape[0]))
        ranks = np.arange(owners.shape[0], dtype=np.int64) - starts[owners]
        keep = ranks < remaining[pending[owners]]
        owners, candidates, ranks = owners[keep], candidates[keep], ranks[keep]
        rows = pending[owners]
        negatives[offsets[rows] + filled[rows] + ranks] = candidates
        accepted = np.bincount(owners, minlength=pending.shape[0])
        filled[pending] += accepted
        remaining[pending] -= accepted
        pending = pending[remaining[pending] > 0]
    return negatives, offsets

