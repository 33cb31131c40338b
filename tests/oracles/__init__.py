"""Reference implementations the equivalence suites compare the library against.

The library runs one fast path per stage; the plain loop each stage replaced
lives here, so no ``src/`` module branches on which version to run:

* :mod:`oracles.federated` — the one-client-at-a-time federated round
  (:class:`~oracles.federated.LoopRoundSimulation`);
* :mod:`oracles.attacks` — the per-user attack loss, the per-user
  user-matrix approximation and the attacks running them;
* :mod:`oracles.evaluation`, :mod:`oracles.accuracy`, :mod:`oracles.exposure`
  — the per-user evaluation and its metric loops;
* :mod:`oracles.sampling` — the stacked training sampler with its original
  ``np.unique`` deduplication;
* :mod:`oracles.losses` — the sort-based fold of the batched BPR
  coefficients;
* :mod:`oracles.data` — the synthetic generator one user at a time, the
  leave-one-out split one ``choice`` call per user, and the public sample
  selected from the pair array.

:mod:`oracles.scoring` is no reference: its
:class:`~oracles.scoring.DistanceScorer` is a non-MF model that serves
through ``ScorerProtocol`` without subclassing anything, for the suites that
sweep scoring surfaces.

Every reference consumes the library's random streams in the same order, so
from one seed it matches the library bit for bit (evaluation, data) or up to
floating-point summation order (training).
"""

from .attacks import LoopFedRecAttack, LoopPipAttack, attack_loss_and_gradient, loop_refresh
from .data import (
    generate_synthetic_dataset_loop,
    leave_one_out_split_loop,
    sample_public_interactions_pairs,
)
from .evaluation import evaluate_loop, predraw_negatives
from .federated import LoopRoundSimulation
from .losses import fold_by_key
from .sampling import sample_uniform_negatives_unique
from .scoring import DistanceScorer

__all__ = [
    "DistanceScorer",
    "LoopFedRecAttack",
    "LoopPipAttack",
    "LoopRoundSimulation",
    "attack_loss_and_gradient",
    "evaluate_loop",
    "fold_by_key",
    "generate_synthetic_dataset_loop",
    "leave_one_out_split_loop",
    "loop_refresh",
    "predraw_negatives",
    "sample_public_interactions_pairs",
    "sample_uniform_negatives_unique",
]
