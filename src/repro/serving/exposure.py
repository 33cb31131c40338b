"""Attack evaluation against the *deployed* service.

The paper's exposure metrics (ER@5, ER@10, target-NDCG@10) are normally
computed from raw factors; :func:`exposure_under_serving` computes them
through a live :class:`~repro.serving.service.RecommenderService` instead —
every score flows through the service's block cache via
:meth:`~repro.serving.service.RecommenderService.score_block_function`.

Because the service scores whole canonical blocks at its configured
``block_size``, the report is bit-identical to evaluating the underlying
snapshot's model directly at that block size: this hook is how the serving
layer proves that caching and batching change *nothing* about what an
attacker's target items are exposed to.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ServingError
from repro.metrics.evaluation import evaluate_snapshot
from repro.metrics.exposure import ExposureReport
from repro.serving.service import RecommenderService

__all__ = ["exposure_under_serving"]


def exposure_under_serving(
    service: RecommenderService,
    target_items: np.ndarray,
) -> ExposureReport:
    """Target-item exposure of the recommendations the service actually serves.

    Parameters
    ----------
    service:
        The live service; must have been built with training interactions
        (they define which users count as non-interacted per target).
    target_items:
        The attack's target item ids.
    """
    train = service.train
    if train is None:
        raise ServingError(
            "exposure_under_serving requires a service built with training "
            "interactions (pass train=... to RecommenderService)"
        )
    result = evaluate_snapshot(
        service.score_block_function(),
        train,
        target_items=np.asarray(target_items, dtype=np.int64),
        rng=0,
        block_size=service.block_size,
    )
    assert result.exposure is not None  # target_items were given
    return result.exposure
