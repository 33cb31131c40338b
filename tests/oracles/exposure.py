"""Per-user reference for the exposure metrics (ER@K, target NDCG@K).

One user at a time through a ``score_fn(user)`` callback, all three metrics
from one scoring pass per user: the reference the blocked pass of
:func:`repro.metrics.evaluation.evaluate_snapshot` must reproduce
bit-identically.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.metrics.exposure import ExposureReport, _validate_targets
from repro.metrics.ranking import cumulative_discounts

__all__ = ["exposure_ratio_at_k", "target_ndcg_at_k", "evaluate_exposure"]

ScoreFunction = Callable[[int], np.ndarray]


def exposure_ratio_at_k(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    target_items: np.ndarray,
    k: int,
    users: np.ndarray | None = None,
) -> float:
    """Exposure ratio at ``k`` of the target items (Eq. 8).

    Parameters
    ----------
    score_fn:
        Maps a user id to that user's full predicted-score vector.
    train:
        Training interactions; recommendations are drawn from the items each
        user has not interacted with (``V-_i``).
    target_items:
        The attacker's target item ids ``V^tar``.
    k:
        Length of the recommendation list.
    users:
        Users to average over (defaults to every user).
    """
    er_means, _ = _exposure_pass(score_fn, train, target_items, (k,), None, users)
    return er_means[k]


def target_ndcg_at_k(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    target_items: np.ndarray,
    k: int,
    users: np.ndarray | None = None,
) -> float:
    """NDCG@k of the target items within users' recommendation lists."""
    _, ndcg = _exposure_pass(score_fn, train, target_items, (), k, users)
    return ndcg


def evaluate_exposure(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    target_items: np.ndarray,
    users: np.ndarray | None = None,
) -> ExposureReport:
    """Compute the paper's three attack metrics in one scoring pass."""
    er_means, ndcg = _exposure_pass(score_fn, train, target_items, (5, 10), 10, users)
    return ExposureReport(er_at_5=er_means[5], er_at_10=er_means[10], ndcg_at_10=ndcg)


def _exposure_pass(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    target_items: np.ndarray,
    er_ks: Sequence[int],
    ndcg_k: int | None,
    users: np.ndarray | None,
) -> tuple[dict[int, float], float]:
    """One per-user loop computing every requested exposure metric at once.

    Per-user values are collected in user order and reduced with
    :func:`numpy.mean` at the end — the same convention the blocked pass
    follows, so equal per-user values yield bit-equal averages.
    """
    for k in er_ks:
        if k <= 0:
            raise ModelError(f"k must be positive, got {k}")
    if ndcg_k is not None and ndcg_k <= 0:
        raise ModelError(f"k must be positive, got {ndcg_k}")
    target_items = _validate_targets(target_items, train.num_items)
    store = train.interaction_store()
    user_ids = np.arange(train.num_users) if users is None else np.asarray(users, dtype=np.int64)
    er_values: dict[int, list[float]] = {k: [] for k in er_ks}
    ndcg_values: list[float] = []
    ideal = cumulative_discounts(ndcg_k) if ndcg_k is not None else None
    for user in user_ids:
        mask_row = store.masks[int(user)]
        uninteracted = ~mask_row[target_items]
        denominator = int(np.count_nonzero(uninteracted))
        if denominator == 0:
            continue
        scores = score_fn(int(user))
        masked = np.where(mask_row, -np.inf, scores)
        target_scores = masked[target_items]
        ranks = 1 + np.sum(masked[None, :] > target_scores[:, None], axis=1)
        for k in er_ks:
            hits = int(np.count_nonzero((ranks <= k) & uninteracted))
            er_values[k].append(hits / denominator)
        if ndcg_k is not None:
            in_list = (ranks <= ndcg_k) & uninteracted
            discounts = np.where(in_list, 1.0 / np.log2(ranks + 1.0), 0.0)
            dcg = float(np.sum(discounts))
            idcg = float(ideal[min(denominator, ndcg_k)])
            ndcg_values.append(dcg / idcg if idcg > 0 else 0.0)
    er_means = {
        k: float(np.mean(np.asarray(values, dtype=np.float64))) if values else 0.0
        for k, values in er_values.items()
    }
    ndcg = float(np.mean(np.asarray(ndcg_values, dtype=np.float64))) if ndcg_values else 0.0
    return er_means, ndcg
