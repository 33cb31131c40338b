"""Per-user reference for :func:`repro.metrics.evaluation.evaluate_snapshot`.

:func:`evaluate_loop` reads its scores from the same ``score_block`` calls
over the same canonical block partitioning as the blocked pass (BLAS results
are not row-stable across GEMM shapes, so sharing the calls, not
re-computing, is what makes bit-identity possible), predraws the sampled
protocol's negatives from the same stream in the same order, and then ranks
one user at a time through the per-user metric loops of
:mod:`oracles.accuracy` and :mod:`oracles.exposure`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.metrics.accuracy import (
    AccuracyReport,
    _validate_test_items,
    draw_ranking_negatives_batched,
)
from repro.metrics.evaluation import (
    DEFAULT_BLOCK_SIZE,
    EvaluationResult,
    ScoreBlockFunction,
    ScoreSource,
    _score_block_checked,
    resolve_score_block,
    user_blocks,
)
from repro.rng import ensure_rng

from .accuracy import evaluate_accuracy
from .exposure import evaluate_exposure

__all__ = ["evaluate_loop", "predraw_negatives"]


def evaluate_loop(
    source: ScoreSource,
    train: InteractionDataset,
    *,
    test_items: np.ndarray | None = None,
    target_items: np.ndarray | None = None,
    k: int = 10,
    num_negatives: int | None = 99,
    rng: np.random.Generator | int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> EvaluationResult:
    """The per-user reference evaluation, fed block-materialised scores.

    Scores are materialised through the same ``score_block`` calls the
    blocked pass makes (same block boundaries), then handed to the per-user
    loop metrics as a row-indexing callback — streamed one block at a time
    when only a single consumer needs them, concatenated only when both
    accuracy and exposure read the same scores.  The sampled protocol ranks
    each test item against predrawn negatives (:func:`predraw_negatives`)
    on the raw score rows.
    """
    if block_size <= 0:
        raise ModelError(f"block_size must be positive, got {block_size}")
    if test_items is None and target_items is None:
        return EvaluationResult(accuracy=None, exposure=None)
    generator = ensure_rng(rng)
    resolved = resolve_score_block(source)
    score_fn: Callable[[int], np.ndarray]
    if test_items is not None and target_items is not None:
        # Two consumers scan the same scores; materialise once.
        scores = np.concatenate(
            [
                _score_block_checked(resolved, lo, hi, train.num_items)
                for lo, hi in user_blocks(train.num_users, block_size)
            ],
            axis=0,
        )
        score_fn = lambda user: scores[user]  # noqa: E731 - tiny adapter
    else:
        score_fn = _BlockStreamScores(resolved, train.num_users, train.num_items, block_size)
    accuracy: AccuracyReport | None = None
    if test_items is not None:
        predrawn = None
        if num_negatives is not None:
            predrawn = predraw_negatives(
                train, _validate_test_items(test_items, train.num_users, k),
                num_negatives, generator, block_size,
            )
        accuracy = evaluate_accuracy(
            score_fn, train, test_items, k=k, predrawn_negatives=predrawn
        )
    exposure = (
        evaluate_exposure(score_fn, train, target_items)
        if target_items is not None
        else None
    )
    return EvaluationResult(accuracy=accuracy, exposure=exposure)


class _BlockStreamScores:
    """Row-score callback that materialises one canonical block at a time.

    Single-consumer evaluations (accuracy only, or exposure only) scan users
    in ascending order, so holding the full ``(num_users, num_items)``
    float64 matrix buys nothing.  This adapter scores the canonical block
    containing the requested user on demand and serves rows out of it until
    the scan moves past the block.  The floats are identical to the
    materialised path: same ``score_block`` calls over the same canonical
    partitioning, each validated as produced.
    """

    def __init__(
        self,
        score_block: ScoreBlockFunction,
        num_users: int,
        num_items: int,
        block_size: int,
    ) -> None:
        self._score_block = score_block
        self._num_users = num_users
        self._num_items = num_items
        self._block_size = block_size
        self._lo = 0
        self._hi = 0
        self._scores = np.empty((0, num_items), dtype=np.float64)

    def __call__(self, user: int) -> np.ndarray:
        user = int(user)
        if not self._lo <= user < self._hi:
            lo = (user // self._block_size) * self._block_size
            hi = min(self._num_users, lo + self._block_size)
            self._scores = _score_block_checked(self._score_block, lo, hi, self._num_items)
            self._lo, self._hi = lo, hi
        return self._scores[user - self._lo]


def predraw_negatives(
    train: InteractionDataset,
    test_items: np.ndarray,
    num_negatives: int,
    generator: np.random.Generator,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Consume the evaluation stream for every block upfront.

    Returns the whole population's ranking negatives as one ``(values,
    offsets)`` CSR pair indexed by user id.  The stream consumption — one
    stacked :func:`draw_ranking_negatives_batched` call per block, blocks in
    user order — is identical to the library's interleaved draws.
    """
    store = train.interaction_store()
    values_parts: list[np.ndarray] = []
    counts_parts: list[np.ndarray] = []
    for lo, hi in user_blocks(train.num_users, block_size):
        values, offsets = draw_ranking_negatives_batched(
            generator, store, np.arange(lo, hi, dtype=np.int64),
            test_items[lo:hi], num_negatives,
        )
        values_parts.append(values)
        counts_parts.append(np.diff(offsets))
    all_offsets = np.zeros(train.num_users + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts_parts), out=all_offsets[1:])
    return np.concatenate(values_parts), all_offsets
