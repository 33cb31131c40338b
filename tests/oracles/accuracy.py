"""Per-user reference for the accuracy metrics (HR@K, NDCG@K, leave-one-out).

One user at a time through a ``score_fn(user)`` callback: the reference the
blocked pass of :func:`repro.metrics.evaluation.evaluate_snapshot` must
reproduce bit-identically.  The full-ranking protocol ranks the test item
against every non-interacted item; the sampled protocol ranks it against
negatives predrawn by the caller (see
:func:`oracles.evaluation.predraw_negatives`), because the evaluation stream
draws a whole block of users at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.metrics.accuracy import AccuracyReport, _validate_test_items

__all__ = [
    "hit_ratio_at_k",
    "ndcg_at_k_leave_one_out",
    "evaluate_accuracy",
]

ScoreFunction = Callable[[int], np.ndarray]
Predrawn = tuple[np.ndarray, np.ndarray]


def hit_ratio_at_k(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int = 10,
    predrawn_negatives: Predrawn | None = None,
) -> float:
    """HR@k: fraction of users whose held-out item ranks in the top ``k``."""
    hits, _, count = _ranking_pass(
        score_fn, train, test_items, k, predrawn_negatives
    )
    return hits / count if count else 0.0


def ndcg_at_k_leave_one_out(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int = 10,
    predrawn_negatives: Predrawn | None = None,
) -> float:
    """NDCG@k of the single held-out item per user."""
    _, ndcg_sum, count = _ranking_pass(
        score_fn, train, test_items, k, predrawn_negatives
    )
    return ndcg_sum / count if count else 0.0


def evaluate_accuracy(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int = 10,
    predrawn_negatives: Predrawn | None = None,
) -> AccuracyReport:
    """HR@k and NDCG@k in a single ranking pass.

    ``predrawn_negatives`` selects the sampled protocol: the negatives as a
    ``(values, offsets)`` CSR pair indexed by user id (user ``u``'s
    candidates are ``values[offsets[u]:offsets[u + 1]]``), which the
    per-user pass only ranks.  ``None`` ranks against the full catalog.
    """
    hits, ndcg_sum, count = _ranking_pass(
        score_fn, train, test_items, k, predrawn_negatives
    )
    return AccuracyReport(
        hr_at_10=hits / count if count else 0.0,
        ndcg_at_10=ndcg_sum / count if count else 0.0,
        num_evaluated_users=count,
    )


def _ranking_pass(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int,
    predrawn_negatives: Predrawn | None,
) -> tuple[float, float, int]:
    """Shared evaluation loop returning (hit count, NDCG sum, user count).

    The per-user NDCG contributions (0 for misses) are collected into one
    array and reduced with a single :func:`numpy.sum`, so the blocked pass —
    which concatenates the same per-user values block by block — arrives at
    the bit-identical total.
    """
    test_items = _validate_test_items(test_items, train.num_users, k)
    store = train.interaction_store()
    hits = 0
    contributions: list[float] = []
    for user in range(train.num_users):
        test_item = int(test_items[user])
        if test_item < 0:
            continue
        scores = score_fn(user)
        if predrawn_negatives is None:
            rank = _full_rank(scores, test_item, store.positives(user))
        else:
            values, offsets = predrawn_negatives
            negatives = values[offsets[user] : offsets[user + 1]]
            rank = 1 + int(np.sum(scores[negatives] > scores[test_item]))
        if rank <= k:
            hits += 1
            contributions.append(1.0 / float(np.log2(rank + 1.0)))
        else:
            contributions.append(0.0)
    count = len(contributions)
    ndcg_sum = float(np.sum(np.asarray(contributions, dtype=np.float64)))
    return float(hits), ndcg_sum, count


def _full_rank(scores: np.ndarray, test_item: int, positives: np.ndarray) -> int:
    """Rank of the test item against every non-interacted item."""
    masked = scores.astype(np.float64, copy=True)
    if positives.shape[0] > 0:
        masked[positives] = -np.inf
    test_score = scores[test_item]
    return 1 + int(np.sum(masked > test_score))
