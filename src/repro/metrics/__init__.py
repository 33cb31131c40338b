"""Evaluation metrics.

The paper uses three attack-effectiveness metrics — ER@5, ER@10 (exposure
ratio, Eq. 8) and NDCG@10 of the target items — and HR@10 for recommendation
accuracy (the side-effect / stealthiness analysis of Figure 3 and
Table VIII).  :func:`evaluate_snapshot` computes all of them in one blocked
pass, one ``score_block`` call per user block, on top of shared ranking
utilities.
"""

from repro.metrics.accuracy import AccuracyReport, draw_ranking_negatives_batched
from repro.metrics.evaluation import (
    DEFAULT_BLOCK_SIZE,
    EvaluationResult,
    evaluate_snapshot,
    resolve_score_block,
    user_blocks,
)
from repro.metrics.exposure import ExposureReport
from repro.metrics.ranking import cumulative_discounts

__all__ = [
    "AccuracyReport",
    "ExposureReport",
    "EvaluationResult",
    "DEFAULT_BLOCK_SIZE",
    "evaluate_snapshot",
    "resolve_score_block",
    "user_blocks",
    "draw_ranking_negatives_batched",
    "cumulative_discounts",
]
