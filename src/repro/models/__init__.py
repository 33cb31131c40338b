"""Recommender substrate: matrix factorization, losses and the scoring protocol.

The paper's base recommender is matrix factorization (MF) trained with the
Bayesian Personalized Ranking (BPR) loss (Section III-A).  This subpackage
implements that model with hand-derived analytic gradients on NumPy, and the
structural :class:`ScorerProtocol` that evaluation and serving consume.
"""

from repro.models.base import Recommender, ScorerProtocol
from repro.models.losses import (
    bpr_coefficients_batched,
    bpr_loss,
    bpr_loss_and_gradients,
    BatchedBPRCoefficients,
    BPRGradients,
    sigmoid,
)
from repro.models.mf import MatrixFactorizationModel

__all__ = [
    "Recommender",
    "ScorerProtocol",
    "MatrixFactorizationModel",
    "BPRGradients",
    "BatchedBPRCoefficients",
    "bpr_loss",
    "bpr_loss_and_gradients",
    "bpr_coefficients_batched",
    "sigmoid",
]
