"""Recommender substrate: matrix factorization, losses and scorers.

The paper's base recommender is matrix factorization (MF) trained with the
Bayesian Personalized Ranking (BPR) loss (Section III-A).  This subpackage
implements that model with hand-derived analytic gradients on NumPy, plus an
optional learnable interaction function (a small MLP scorer) demonstrating
the paper's claim that the attack generalises to deep recommenders.
"""

from repro.models.base import Recommender, ScorerProtocol
from repro.models.losses import (
    bpr_coefficients_batched,
    bpr_loss,
    bpr_loss_and_gradients,
    BatchedBPRCoefficients,
    BatchedBPRGradients,
    BPRGradients,
    sigmoid,
)
from repro.models.mf import MatrixFactorizationModel
from repro.models.neural import MLPRecommender, MLPScorer

__all__ = [
    "Recommender",
    "ScorerProtocol",
    "MatrixFactorizationModel",
    "MLPScorer",
    "MLPRecommender",
    "BPRGradients",
    "BatchedBPRGradients",
    "BatchedBPRCoefficients",
    "bpr_loss",
    "bpr_loss_and_gradients",
    "bpr_coefficients_batched",
    "sigmoid",
]
