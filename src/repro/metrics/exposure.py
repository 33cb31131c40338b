"""Attack-effectiveness metrics: exposure ratio and target-item NDCG.

The exposure ratio at K (Eq. 8) measures, averaged over users, the fraction
of not-yet-interacted target items that appear in the user's top-K
recommendation list.  NDCG@K of the target items additionally rewards higher
ranks, as in the paper's evaluation (Section V-A).

All three metrics (ER@5, ER@10, target NDCG@10) come out of one blocked
scoring pass of :func:`repro.metrics.evaluation.evaluate_snapshot`: the
targets' optimistic ranks (``1 +`` the number of strictly higher-scoring
non-interacted items, so tied items share the best rank of their tie group)
drive every metric.  A target is counted as exposed at ``K`` iff
its rank is ``<= K`` — equivalent to top-K-list membership except on exact
score ties, which are resolved in the target's favor (a measure-zero event
for continuous model scores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError

__all__ = ["ExposureReport"]


@dataclass(frozen=True)
class ExposureReport:
    """Attack-effectiveness metrics for one model snapshot.

    Attributes mirror the columns the paper reports: ``er_at_5``,
    ``er_at_10`` (Eq. 8) and ``ndcg_at_10`` of the target items.
    """

    er_at_5: float
    er_at_10: float
    ndcg_at_10: float

    def as_dict(self) -> dict[str, float]:
        """The metrics as a plain dictionary (used by the reporting layer)."""
        return {
            "ER@5": self.er_at_5,
            "ER@10": self.er_at_10,
            "NDCG@10": self.ndcg_at_10,
        }


def _validate_targets(target_items: np.ndarray, num_items: int) -> np.ndarray:
    target_items = np.asarray(target_items, dtype=np.int64)
    if target_items.ndim != 1 or target_items.shape[0] == 0:
        raise ModelError("target_items must be a non-empty 1-D array")
    if target_items.min() < 0 or target_items.max() >= num_items:
        raise ModelError("target item id out of range")
    return target_items
