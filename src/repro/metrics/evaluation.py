"""Evaluation engine.

:func:`evaluate_snapshot` computes HR@K, NDCG@K, ER@5, ER@10 and
target-NDCG@10 in **one pass over user blocks**, with **one** ``score_block``
call per canonical block whichever metrics are requested:

* a block of users is scored with a single stacked ``U_block @ V.T``-style
  matrix product through the ``score_block(users)`` callback,
* the sampled protocol draws the block's negatives in one stacked pass of
  :func:`~repro.metrics.accuracy.draw_ranking_negatives_batched` (blocks in
  user order) and gathers each user's ``1 + num_negatives`` candidate
  scores from that raw block, before anything is masked,
* positives are then masked in place via the shared
  :class:`~repro.data.store.InteractionStore` CSR coordinates,
* top-K membership is decided by comparing each candidate's score against
  the block's K-th-largest masked score (one ``np.partition`` per block):
  with the optimistic rank ``r(v) = 1 + #{j : masked_j > s_v}`` used
  throughout the metrics, ``r(v) <= K``  iff  ``s_v >= kth_largest(masked)``,
  exactly — ties included — so exact ranks only ever need to be counted for
  the (typically few) items that actually made a top-K list.

The per-user reference evaluation in ``tests/oracles`` reads its scores
from the *same* ``score_block`` calls over the *same* block partitioning
(BLAS results are not row-stable across GEMM shapes, so this, not
re-computation, is what makes bit-identity possible), draws the same
stream, and reduces per-user contributions with the same ``np.sum`` /
``np.mean`` calls, so every metric is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.metrics.accuracy import (
    AccuracyReport,
    _validate_test_items,
    draw_ranking_negatives_batched,
)
from repro.metrics.exposure import ExposureReport, _validate_targets
from repro.metrics.ranking import cumulative_discounts
from repro.models.base import ScorerProtocol
from repro.rng import ensure_rng

if TYPE_CHECKING:
    from repro.data.store import InteractionStore

__all__ = [
    "EvaluationResult",
    "evaluate_snapshot",
    "resolve_score_block",
    "user_blocks",
    "DEFAULT_BLOCK_SIZE",
]

ScoreBlockFunction = Callable[[np.ndarray], np.ndarray]

#: A scoring source: either a model implementing the formal id-based
#: :class:`~repro.models.base.ScorerProtocol`, or a bare block-score callback
#: (what the simulation and the serving exposure hook pass).
ScoreSource = ScorerProtocol | ScoreBlockFunction


def resolve_score_block(source: ScoreSource) -> ScoreBlockFunction:
    """Normalise a scoring source into a block-score callback.

    Protocol objects dispatch through their bound ``score_block`` method;
    plain callables pass through unchanged.  This structural check is the
    *only* sanctioned model dispatch outside ``models/`` — repro-lint R8
    forbids ``isinstance`` checks against concrete model classes, which is
    what keeps MF and any other protocol object on one code path.
    """
    if isinstance(source, ScorerProtocol):
        return source.score_block
    return source


#: Default user-block size.  Small enough that a block's score matrix stays
#: cache-resident through the mask/partition/compare pipeline; any consumer
#: whose floats must coincide with this engine's uses the same value.
DEFAULT_BLOCK_SIZE = 128


@dataclass(frozen=True)
class EvaluationResult:
    """Accuracy and exposure reports of one model snapshot."""

    accuracy: AccuracyReport | None
    exposure: ExposureReport | None


def evaluate_snapshot(
    score_block: ScoreSource,
    train: InteractionDataset,
    *,
    test_items: np.ndarray | None = None,
    target_items: np.ndarray | None = None,
    k: int = 10,
    num_negatives: int | None = 99,
    rng: np.random.Generator | int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> EvaluationResult:
    """Evaluate accuracy and/or exposure of one model snapshot.

    Parameters
    ----------
    score_block:
        The scoring source: a model implementing the id-based
        :class:`~repro.models.base.ScorerProtocol` (dispatched through
        :func:`resolve_score_block`), or a bare callback mapping an array of
        user ids to their stacked ``(B, num_items)`` score matrix.  Every
        score comes from the resolved callback, one call per canonical
        block, whichever metrics are requested.
    train:
        Training interactions; positives are masked out of the rankings and
        the shared :class:`~repro.data.store.InteractionStore` provides the
        masks.
    test_items:
        Per-user held-out items for HR@k / NDCG@k (``-1`` skips a user);
        ``None`` disables accuracy evaluation.
    target_items:
        Attack targets for ER@5 / ER@10 / target-NDCG@10; ``None`` disables
        exposure evaluation.
    k:
        Accuracy cutoff (the paper reports ``k=10``).
    num_negatives:
        Sampled-protocol negatives per user (``None`` ranks against the full
        catalog).  The sampled protocol draws one stacked pass per block
        through :func:`~repro.metrics.accuracy.draw_ranking_negatives_batched`
        and reads the drawn candidates' scores from the block's raw scores.
    rng:
        Randomness for the sampled protocol.
    block_size:
        Users per scoring block (the stream draws one stacked pass per
        block).
    """
    if block_size <= 0:
        raise ModelError(f"block_size must be positive, got {block_size}")
    if test_items is None and target_items is None:
        return EvaluationResult(accuracy=None, exposure=None)
    store = train.interaction_store()
    num_users, num_items = store.num_users, store.num_items
    generator = ensure_rng(rng)
    if test_items is not None:
        test_items = _validate_test_items(test_items, num_users, k)
    if target_items is not None:
        target_items = _validate_targets(target_items, num_items)
    exposure_ks, exposure_ndcg_k = (5, 10), 10
    ideal = cumulative_discounts(exposure_ndcg_k)
    cutoffs = _threshold_cutoffs(
        test_items, target_items, num_negatives, k, exposure_ks,
        exposure_ndcg_k, num_items,
    )

    full_rank_tests = test_items if num_negatives is None else None
    resolved = resolve_score_block(score_block)

    blocks: list[_BlockMetrics] = []
    for lo, hi in user_blocks(num_users, block_size):
        scores = _score_block_checked(resolved, lo, hi, num_items)
        # The sampled protocol ranks raw scores, so it reads the block before
        # _measure_block masks it in place.
        sampled = (
            _accuracy_block_sampled(
                scores, store, lo, hi, test_items, k, num_negatives, generator
            )
            if test_items is not None and num_negatives is not None
            else None
        )
        block = _measure_block(
            scores, lo, hi, store, full_rank_tests, target_items, k,
            cutoffs, exposure_ks, exposure_ndcg_k, ideal,
        )
        if sampled is not None:
            block = replace(block, hits=sampled[0], contributions=sampled[1])
        blocks.append(block)
    return _reduce_blocks(blocks, test_items, target_items, exposure_ks)


def user_blocks(num_users: int, block_size: int) -> list[tuple[int, int]]:
    """The canonical ``(lo, hi)`` block partitioning of every scoring pass.

    Public because bit-reproducible serving depends on it: BLAS results are
    not row-stable across GEMM shapes, so any consumer that wants its floats
    to coincide with :func:`evaluate_snapshot` (the serving layer's block
    cache does) must score *whole* blocks of exactly this partitioning.
    """
    return [
        (start, min(num_users, start + block_size))
        for start in range(0, num_users, block_size)
    ]


def _score_block_checked(
    score_block: ScoreBlockFunction, lo: int, hi: int, num_items: int
) -> np.ndarray:
    """Score one canonical block and validate its shape *as it is produced*.

    Every scoring pass funnels through this one call, so a wrong-width block
    names the offending user range instead of surfacing later as a confusing
    shape error.  The caller always owns a writable array (the pipeline
    masks blocks in place); fresh products pass through without a copy.
    """
    users = np.arange(lo, hi, dtype=np.int64)
    scores = np.asarray(score_block(users), dtype=np.float64)
    if scores.shape != (hi - lo, num_items):
        raise ModelError(
            f"score_block must produce a ({hi - lo}, {num_items}) matrix for "
            f"users [{lo}, {hi}), got {scores.shape}"
        )
    if scores.base is not None or not scores.flags.writeable:
        scores = scores.copy()
    return scores


def _top_k_thresholds(masked: np.ndarray, cutoffs: Sequence[int]) -> dict[int, np.ndarray]:
    """Per-row ``k``-th largest masked score for every requested cutoff.

    ``cutoffs`` must be sorted strictly descending with every value in
    ``[1, N]`` — checked here, because a silently violated precondition
    yields *wrong thresholds*, not an error (the partition index arithmetic
    below is only meaningful under it).  One full-width **in-place**
    partition at the largest cutoff — ``masked`` is reordered within each
    row, never copied; smaller cutoffs are derived by partitioning the
    resulting ``(B, k_max)`` top slice, which is far cheaper than a second
    full-width partition.  Row reordering is safe for every later consumer
    because exact rank counts (``#{j : masked_j > v}``) only depend on each
    row's multiset of values.
    """
    num_items = masked.shape[1]
    thresholds: dict[int, np.ndarray] = {}
    if not cutoffs:
        return thresholds
    for position, kk in enumerate(cutoffs):
        if kk < 1 or kk > num_items:
            raise ModelError(
                f"top-K cutoffs must lie in [1, {num_items}], got {kk}"
            )
        if position > 0 and kk >= cutoffs[position - 1]:
            raise ModelError(
                f"top-K cutoffs must be sorted strictly descending, got {list(cutoffs)}"
            )
    k_max = cutoffs[0]
    masked.partition(num_items - k_max, axis=1)
    thresholds[k_max] = masked[:, num_items - k_max]
    top_slice = masked[:, num_items - k_max :]
    for kk in cutoffs[1:]:
        thresholds[kk] = np.partition(top_slice, k_max - kk, axis=1)[:, k_max - kk]
    return thresholds


def _membership(
    scores_at: np.ndarray,
    thresholds: dict[int, np.ndarray],
    kk: int,
    num_items: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """``optimistic_rank <= kk`` for candidate scores, via the threshold rule.

    ``r(v) <= kk``  iff  ``s_v >= kth_largest(masked)`` when ``kk <= N`` (a
    candidate at least ties the ``kk``-th slot); for ``kk > N`` every rank
    fits.  Exact for members and non-members of the masked row alike.
    """
    if kk > num_items:
        return np.ones(scores_at.shape, dtype=bool)
    threshold = thresholds[kk] if rows is None else thresholds[kk][rows]
    if scores_at.ndim == 2:
        return scores_at >= threshold[:, None]
    return scores_at >= threshold


@dataclass(frozen=True)
class _BlockMetrics:
    """Every metric contribution of one canonical user block.

    The unit :func:`evaluate_snapshot` reduces over.  ``contributions`` is
    ``None`` when accuracy was not requested (not merely empty — an empty
    valid set still contributes a zero-length array, keeping the
    reduction's concatenation order stable); ``er`` / ``target_ndcg`` are
    ``None`` when exposure was not requested or the block had no
    contributing users (matching the historical append-only-when-contributing
    reduction exactly).
    """

    hits: int
    contributions: np.ndarray | None
    er: dict[int, np.ndarray] | None
    target_ndcg: np.ndarray | None


def _threshold_cutoffs(
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    num_negatives: int | None,
    k: int,
    exposure_ks: tuple[int, int],
    exposure_ndcg_k: int,
    num_items: int,
) -> list[int]:
    """The descending top-K cutoffs one evaluation's thresholds must cover."""
    threshold_ks: set[int] = set()
    if test_items is not None and num_negatives is None:
        threshold_ks.add(k)
    if target_items is not None:
        threshold_ks.update(exposure_ks)
        threshold_ks.add(exposure_ndcg_k)
    return sorted({kk for kk in threshold_ks if kk <= num_items}, reverse=True)


def _measure_block(
    scores: np.ndarray,
    lo: int,
    hi: int,
    store: "InteractionStore",
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    k: int,
    cutoffs: Sequence[int],
    exposure_ks: tuple[int, int],
    exposure_ndcg_k: int,
    ideal: np.ndarray,
) -> _BlockMetrics:
    """Mask, rank and measure one fresh pre-mask score block.

    Positives are masked to ``-inf`` in place, raw test/target gathers
    happen at the documented points relative to the in-place partition, and
    the block's full-rank accuracy (``test_items``; ``None`` under the
    sampled protocol, whose candidates :func:`evaluate_snapshot` gathers
    before this call) and exposure contributions come back as one
    :class:`_BlockMetrics`.
    """
    mask_block = store.masks[lo:hi]
    indptr, indices = store.indptr, store.indices

    # Raw-score gathers happen before masking: the reference ranks the test
    # item's *unmasked* score.
    block_tests = test_items[lo:hi] if test_items is not None else None
    valid = np.flatnonzero(block_tests >= 0) if block_tests is not None else None
    test_scores = (
        scores[valid, block_tests[valid]] if block_tests is not None else None
    )

    # Mask positives to -inf through the store's CSR coordinates — a
    # sparse scatter (~density * B * N writes), far cheaper than a dense
    # np.where pass.  ``scores`` is the masked matrix from here on.
    masked_cols = indices[indptr[lo] : indptr[hi]]
    masked_rows = np.repeat(
        np.arange(hi - lo, dtype=np.int64), store.degrees[lo:hi]
    )
    scores[masked_rows, masked_cols] = -np.inf

    # The exposure metrics read the targets' columns before the in-place
    # partition reorders the rows.
    target_scores = scores[:, target_items] if target_items is not None else None

    thresholds = _top_k_thresholds(scores, cutoffs)

    hits = 0
    contributions: np.ndarray | None = None
    if block_tests is not None:
        hits, contributions = _accuracy_block_full(
            scores, valid, test_scores, thresholds, k
        )

    er: dict[int, np.ndarray] | None = None
    target_ndcg: np.ndarray | None = None
    if target_items is not None:
        exposure_parts = _exposure_block(
            scores, target_scores, mask_block, thresholds, target_items,
            exposure_ks, exposure_ndcg_k, ideal,
        )
        if exposure_parts is not None:
            er, target_ndcg = exposure_parts
    return _BlockMetrics(
        hits=hits, contributions=contributions, er=er, target_ndcg=target_ndcg
    )


def _reduce_blocks(
    blocks: Sequence[_BlockMetrics],
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    exposure_ks: tuple[int, int],
) -> EvaluationResult:
    """Reduce per-block contributions into the final reports.

    Concatenates the per-block arrays in block order and reduces with the
    same ``np.sum`` / ``np.mean`` calls as the per-user reference.
    """
    accuracy = None
    if test_items is not None:
        hits = sum(block.hits for block in blocks)
        accuracy_parts = [
            block.contributions for block in blocks if block.contributions is not None
        ]
        evaluated = int(sum(part.shape[0] for part in accuracy_parts))
        ndcg_sum = float(np.sum(np.concatenate(accuracy_parts))) if accuracy_parts else 0.0
        accuracy = AccuracyReport(
            hr_at_10=float(hits) / evaluated if evaluated else 0.0,
            ndcg_at_10=ndcg_sum / evaluated if evaluated else 0.0,
            num_evaluated_users=evaluated,
        )
    exposure = None
    if target_items is not None:
        er_means = {
            kk: float(np.mean(np.concatenate(parts))) if parts else 0.0
            for kk, parts in (
                (kk, [block.er[kk] for block in blocks if block.er is not None])
                for kk in exposure_ks
            )
        }
        target_ndcg_parts = [
            block.target_ndcg for block in blocks if block.target_ndcg is not None
        ]
        ndcg = (
            float(np.mean(np.concatenate(target_ndcg_parts))) if target_ndcg_parts else 0.0
        )
        exposure = ExposureReport(
            er_at_5=er_means[exposure_ks[0]],
            er_at_10=er_means[exposure_ks[1]],
            ndcg_at_10=ndcg,
        )
    return EvaluationResult(accuracy=accuracy, exposure=exposure)


def _accuracy_block_full(
    partitioned: np.ndarray,
    valid: np.ndarray,
    test_scores: np.ndarray,
    thresholds: dict[int, np.ndarray],
    k: int,
) -> tuple[int, np.ndarray]:
    """Full-rank HR/NDCG contributions of one user block.

    ``partitioned`` is the block's masked score matrix after the in-place
    partition — row-reordered but value-preserving, which is all the exact
    rank count needs.  ``test_scores`` are the *raw* test-item scores
    gathered before masking (the per-user reference reads the unmasked score
    too).  Returns the block's hit count and the per-evaluated-user NDCG
    contributions (0 for misses), in user order — the same values the
    per-user reference appends one by one.
    """
    num_items = partitioned.shape[1]
    contributions = np.zeros(valid.shape[0], dtype=np.float64)
    if valid.shape[0] == 0:
        return 0, contributions
    hit = _membership(test_scores, thresholds, k, num_items, rows=valid)
    block_hits = int(np.count_nonzero(hit))
    for position in np.flatnonzero(hit):
        rank = 1 + int(
            np.count_nonzero(partitioned[valid[position]] > test_scores[position])
        )
        contributions[position] = 1.0 / float(np.log2(rank + 1.0))
    return block_hits, contributions


def _accuracy_block_sampled(
    scores: np.ndarray,
    store: InteractionStore,
    lo: int,
    hi: int,
    test_items: np.ndarray,
    k: int,
    num_negatives: int,
    generator: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Sampled-protocol HR/NDCG of one block, read from its raw scores.

    One stacked :func:`~repro.metrics.accuracy.draw_ranking_negatives_batched`
    call draws the whole block's negatives; each test item's raw score is
    ranked against its own negatives' raw scores in one broadcast
    comparison.  Saturated users (positives plus test item cover the
    catalog, so the draw is empty) rank their test item against nothing:
    rank 1, a hit.  Returns the block's hit count and the per-evaluated-user
    NDCG contributions (0 for misses), in user order.

    Segment lengths are validated against the ``{0, num_negatives}``
    invariant — a drawer violating it (a short segment, or negatives
    attached to an invalid user) is a hard :class:`ModelError`, never a
    silent row-misalignment of every later user's candidates.
    """
    block_tests = test_items[lo:hi]
    valid = np.flatnonzero(block_tests >= 0)
    negatives, offsets = draw_ranking_negatives_batched(
        generator, store, np.arange(lo, hi, dtype=np.int64), block_tests, num_negatives
    )
    segment_lengths = np.diff(offsets)[valid]
    full = np.flatnonzero(segment_lengths == num_negatives)
    saturated = np.flatnonzero(segment_lengths == 0)
    if full.shape[0] + saturated.shape[0] != valid.shape[0]:
        raise ModelError(
            "ranking-negative segments must be empty (saturated user) or "
            f"exactly num_negatives={num_negatives} long, got segment "
            f"lengths {np.unique(segment_lengths).tolist()}"
        )
    rows = valid[full]
    negative_ids = negatives[
        offsets[rows][:, None] + np.arange(num_negatives, dtype=np.int64)[None, :]
    ]
    test_scores = scores[rows, block_tests[rows]]
    ranks = 1 + np.count_nonzero(
        scores[rows[:, None], negative_ids] > test_scores[:, None], axis=1
    )
    contributions = np.zeros(valid.shape[0], dtype=np.float64)
    contributions[saturated] = 1.0  # 1 / log2(1 + 1)
    hit = ranks <= k
    contributions[full[hit]] = 1.0 / np.log2(ranks[hit] + 1.0)
    return int(saturated.shape[0] + np.count_nonzero(hit)), contributions


def _exposure_block(
    partitioned: np.ndarray,
    target_scores: np.ndarray,
    mask_block: np.ndarray,
    thresholds: dict[int, np.ndarray],
    target_items: np.ndarray,
    exposure_ks: tuple[int, int],
    exposure_ndcg_k: int,
    ideal: np.ndarray,
) -> tuple[dict[int, np.ndarray], np.ndarray] | None:
    """ER / target-NDCG contributions of one user block.

    ``target_scores`` is the ``(B, T)`` gather of the masked target columns
    taken before the partition (interacted targets read ``-inf``, exactly
    like the per-user reference's masked row); ``partitioned`` is the
    row-reordered masked matrix, used only for the value-multiset rank
    counts.  Returns
    ``(per-cutoff ER contributions, target-NDCG contributions)`` in user
    order, or ``None`` when no user in the block contributes (every target
    already interacted) — the caller appends nothing then, exactly like the
    historical in-place reduction.
    """
    num_items = partitioned.shape[1]
    uninteracted = ~mask_block[:, target_items]
    denominators = uninteracted.sum(axis=1)
    contributing = np.flatnonzero(denominators > 0)
    if contributing.shape[0] == 0:
        return None
    er: dict[int, np.ndarray] = {}
    for kk in exposure_ks:
        member = _membership(target_scores, thresholds, kk, num_items) & uninteracted
        er[kk] = member[contributing].sum(axis=1) / denominators[contributing]
    in_list = (
        _membership(target_scores, thresholds, exposure_ndcg_k, num_items) & uninteracted
    )[contributing]
    scores_contributing = target_scores[contributing]
    discounts = np.zeros_like(scores_contributing)
    pair_rows, pair_cols = np.nonzero(in_list)
    if pair_rows.shape[0] > 0:
        # Exact ranks, grouped by row: np.nonzero returns row-major order,
        # so each row's in-list targets form one slice ranked with a single
        # broadcast comparison.  Under a successful attack nearly every
        # (user, target) pair is in-list, and this keeps the work at one
        # vectorized row pass per user instead of one per pair.
        ranks = np.empty(pair_rows.shape[0], dtype=np.int64)
        row_ids, row_starts = np.unique(pair_rows, return_index=True)
        row_stops = np.append(row_starts[1:], pair_rows.shape[0])
        for index, local_row in enumerate(row_ids):
            row = int(contributing[local_row])
            start, stop = int(row_starts[index]), int(row_stops[index])
            values = scores_contributing[local_row, pair_cols[start:stop]]
            ranks[start:stop] = 1 + np.count_nonzero(
                partitioned[row][None, :] > values[:, None], axis=1
            )
        discounts[pair_rows, pair_cols] = 1.0 / np.log2(ranks + 1.0)
    dcg = discounts.sum(axis=1)
    idcg = ideal[np.minimum(denominators[contributing], exposure_ndcg_k)]
    return er, dcg / idcg
