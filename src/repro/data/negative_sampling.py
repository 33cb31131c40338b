"""Negative sampling for BPR training.

Each user client samples a set of negative items ``V-_i'`` of the same size
as its positive set and trains on the paired loss of Eq. (4).  Two sampling
engines implement that draw (selected by ``FederatedConfig.sampler``):

* :func:`sample_uniform_negatives` — the ``"permutation"`` engine.  One user
  at a time, a random permutation of the catalog is filtered through the
  user's positive mask and truncated: an exact uniform draw without
  replacement, consumed from a *per-user* RNG stream.  This is the historical
  engine: the golden seed histories pin its realizations, so it stays
  selectable by name.
* :func:`sample_uniform_negatives_batched` — the ``"batched"`` engine and the
  default (:data:`DEFAULT_SAMPLER`).  One stacked rejection-sampling pass
  draws negatives for *many* users at once from a *single shared* RNG
  stream: oversampled uniform candidates, masked against the stacked
  positive masks, deduplicated in draw order, and resampled until every user
  has its quota.  Accepting candidates in draw order (skipping rejects and
  duplicates) is classic rejection sampling, so each user's accepted set is
  still an exact uniform draw without replacement from the complement of its
  positives — only the random *stream* (and therefore every training
  realization) differs from the permutation engine.

Both engines are exact; see ``docs/architecture.md`` for the two RNG
contracts and which simulation streams feed them.

A third stacked draw, :func:`sample_ranking_negatives_batched`, serves the
*evaluation* side: the sampled ranking protocol's ``"batched"`` stream
(``FederatedConfig.eval_sampler``) draws one score-block's ranking negatives
with replacement in a single rejection-sampling pass, optionally excluding
each row's held-out test item.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import DataError
from repro.rng import ensure_rng

__all__ = [
    "NegativeSampler",
    "sample_uniform_negatives",
    "sample_uniform_negatives_batched",
    "sample_ranking_negatives_batched",
    "SAMPLER_ENGINES",
    "DEFAULT_SAMPLER",
]

#: The valid values of every ``sampler`` switch in the package.
SAMPLER_ENGINES = ("permutation", "batched")

#: The library default of every ``sampler`` parameter outside the config
#: dataclasses (whose defaults the switch registry declares).
DEFAULT_SAMPLER = "batched"


def sample_uniform_negatives(
    rng: np.random.Generator,
    num_items: int,
    count: int,
    positive_mask: np.ndarray,
    num_positives: int | None = None,
) -> np.ndarray:
    """Draw ``count`` distinct uniform negatives outside ``positive_mask``.

    Fully vectorised and exact: a random permutation of the catalog is
    filtered through the boolean mask and truncated, which is an unbiased
    uniform draw without replacement from the complement of the positives —
    no rejection loop, no Python-level per-item work.  ``num_positives`` (the
    mask's popcount) can be passed by callers that cache it.
    """
    if num_positives is None:
        num_positives = int(positive_mask.sum())
    count = min(count, num_items - num_positives)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    permutation = rng.permutation(num_items)
    negatives = permutation[~positive_mask[permutation]]
    return negatives[:count]


def sample_uniform_negatives_batched(
    rng: np.random.Generator,
    num_items: int,
    counts: np.ndarray,
    positive_masks: np.ndarray,
    *,
    copy: bool = True,
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
        Stacked boolean positive masks, shape ``(B, N)``.  Not modified when
        ``copy=True`` (the default).
    copy:
        ``False`` lets the sampler use ``positive_masks`` as its scratch
        "taken" bitmap instead of copying it.  Only pass ``False`` for a
        private array the caller relinquishes — e.g. the fresh gather
        returned by :meth:`repro.data.store.InteractionStore.mask_rows` —
        since the rows are mutated in place.

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
    an exact uniform draw without replacement.
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
    num_positives = positive_masks.sum(axis=1)
    counts = np.minimum(counts, num_items - num_positives)
    offsets = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    negatives = np.empty(total, dtype=np.int64)
    if total == 0:
        return negatives, offsets

    # ``taken`` marks everything a candidate must avoid: the user's positives
    # plus its already-accepted negatives from earlier rejection rounds.
    taken = positive_masks.copy() if copy else positive_masks
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
        ok = ~taken[pending[owners], candidates]
        owners, candidates = owners[ok], candidates[ok]
        # Deduplicate per (user, item) keeping first occurrences, then restore
        # draw order so truncation to the remaining quota stays unbiased.
        keys = owners * num_items + candidates
        _, first = np.unique(keys, return_index=True)
        first.sort()
        owners, candidates = owners[first], candidates[first]
        # Rank of each accepted candidate within its user (owners are sorted
        # ascending after np.unique + sort, with draw order preserved inside
        # each user because keys share the owner's block).
        starts = np.searchsorted(owners, np.arange(pending.shape[0]))
        ranks = np.arange(owners.shape[0], dtype=np.int64) - starts[owners]
        keep = ranks < remaining[pending[owners]]
        owners, candidates, ranks = owners[keep], candidates[keep], ranks[keep]
        users = pending[owners]
        taken[users, candidates] = True
        negatives[offsets[users] + filled[users] + ranks] = candidates
        accepted = np.bincount(owners, minlength=pending.shape[0])
        filled[pending] += accepted
        remaining[pending] -= accepted
        pending = pending[remaining[pending] > 0]
    return negatives, offsets


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

    This is the stacked core of the ``"batched"`` *evaluation* stream: unlike
    the training draw of :func:`sample_uniform_negatives_batched` it samples
    **with replacement** (the sampled ranking protocol accepts repeated
    negatives, exactly like the per-user
    :func:`repro.metrics.accuracy.draw_ranking_negatives`), and each row may
    exclude one extra item — the row's held-out test item — on top of its
    positives.

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
        negatives (mirroring the per-user draw, which gives up after one
        empty rejection round); because the draw is with replacement, every
        other row receives exactly its requested count.
    positive_masks:
        Stacked boolean positive masks, shape ``(B, N)``.  Never mutated —
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
    against the positive masks and the excluded items, and keeps each row's
    accepted candidates in draw order up to its remaining quota — classic
    rejection sampling, so each accepted draw is an exact uniform sample
    from the row's free items.
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
    if num_positives is None:
        num_positives = positive_masks.sum(axis=1)
    # Free items per row: the catalog minus the positives, minus the excluded
    # item when it is valid and not already a positive.
    excluded_is_free = np.zeros(num_rows, dtype=np.int64)
    excludable = np.flatnonzero(excluded_items >= 0)
    if excludable.shape[0] > 0:
        excluded_is_free[excludable] = ~positive_masks[
            excludable, excluded_items[excludable]
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
        ok = ~positive_masks[rows, candidates] & (candidates != excluded_items[rows])
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


class NegativeSampler:
    """Samples negative items for users of an :class:`InteractionDataset`.

    ``sampler`` selects the engine: ``"batched"`` (default, the stacked
    rejection-sampling pass, here degenerate at batch size one but consuming
    the same kind of stream as the federated round sampler) or
    ``"permutation"`` (one catalog permutation per call).
    """

    def __init__(
        self,
        dataset: InteractionDataset,
        rng: np.random.Generator | int | None = None,
        sampler: str = DEFAULT_SAMPLER,
    ) -> None:
        if sampler not in SAMPLER_ENGINES:
            raise DataError(
                f"sampler must be one of {SAMPLER_ENGINES}, got {sampler!r}"
            )
        self._dataset = dataset
        self._rng = ensure_rng(rng)
        self._sampler = sampler

    def sample_for_user(self, user: int, count: int | None = None) -> np.ndarray:
        """Sample ``count`` negative items for ``user``.

        ``count`` defaults to the size of the user's positive set, matching
        ``|V-_i'| = |V+_i|`` in Section III-B.  If the user has interacted
        with nearly every item the sample may contain fewer items.
        """
        positives = self._dataset.positive_items(user)
        if count is None:
            count = positives.shape[0]
        if count < 0:
            raise DataError(f"count must be non-negative, got {count}")
        num_items = self._dataset.num_items
        positive_mask = np.zeros(num_items, dtype=bool)
        positive_mask[positives] = True
        if self._sampler == "batched":
            negatives, _ = sample_uniform_negatives_batched(
                self._rng,
                num_items,
                np.array([count], dtype=np.int64),
                positive_mask[None, :],
            )
            return negatives
        return sample_uniform_negatives(self._rng, num_items, count, positive_mask)

    def sample_pairs(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """Return aligned arrays of positive and negative items for ``user``.

        This is the pairing ``V_i = {(v+_i1, v-_i1), ...}`` of Eq. (4).
        """
        positives = self._dataset.positive_items(user)
        negatives = self.sample_for_user(user, positives.shape[0])
        if negatives.shape[0] < positives.shape[0]:
            positives = positives[: negatives.shape[0]]
        return positives, negatives
