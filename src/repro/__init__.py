"""repro — a reproduction of FedRecAttack (ICDE 2022).

FedRecAttack is a model poisoning attack against federated recommendation
that approximates the private user feature matrix from a small fraction of
public interactions and uses it to craft constrained poisoned gradients for
the shared item embeddings.  This package implements the complete system
described in the paper from scratch on NumPy:

* :mod:`repro.data` — interaction datasets, synthetic generators calibrated
  to MovieLens-100K / MovieLens-1M / Steam-200K, leave-one-out splits, and
  public-interaction exposure,
* :mod:`repro.models` — the matrix-factorization recommender with BPR loss
  and analytic gradients, and the formal scoring protocol,
* :mod:`repro.metrics` — ER@K, target NDCG@K, HR@K, leave-one-out NDCG@K,
* :mod:`repro.federated` — the federated training protocol: server, clients,
  privacy noise, aggregation rules (including byzantine-robust ones),
* :mod:`repro.attacks` — FedRecAttack and every baseline the paper compares
  against (Random, Bandwagon, Popular, EB, PipAttack, P1-P4),
* :mod:`repro.defenses` — gradient-anomaly detectors and defense evaluation,
* :mod:`repro.experiments` — the harness that regenerates every table and
  figure of the paper's evaluation section,
* :mod:`repro.serving` — the deployment layer: immutable factor snapshots,
  a cached top-K query service behind the formal scoring protocol, and a
  stdlib JSON/HTTP front end (``fedrecattack serve``).

Quickstart
----------
>>> from repro import ExperimentConfig, run_experiment
>>> config = ExperimentConfig(dataset="ml-100k", scale=0.1, attack="fedrecattack",
...                           num_epochs=20, clients_per_round=64, num_factors=16)
>>> result = run_experiment(config)
>>> result.er_at_10  # exposure ratio of the target items after the attack
"""

from repro.attacks import (
    Attack,
    FedRecAttack,
    FedRecAttackConfig,
    select_target_items,
)
from repro.data import (
    InteractionDataset,
    PublicInteractions,
    load_dataset,
    leave_one_out_split,
    sample_public_interactions,
)
from repro.experiments import (
    BENCH_PROFILE,
    PAPER_PROFILE,
    ExperimentConfig,
    ExperimentProfile,
    ExperimentResult,
    run_experiment,
)
from repro.federated import FederatedConfig, FederatedSimulation
from repro.metrics import evaluate_snapshot
from repro.models import MatrixFactorizationModel, ScorerProtocol
from repro.serving import FactorSnapshot, RecommenderService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Attack",
    "FedRecAttack",
    "FedRecAttackConfig",
    "select_target_items",
    "InteractionDataset",
    "PublicInteractions",
    "load_dataset",
    "leave_one_out_split",
    "sample_public_interactions",
    "ExperimentConfig",
    "ExperimentProfile",
    "ExperimentResult",
    "run_experiment",
    "BENCH_PROFILE",
    "PAPER_PROFILE",
    "FederatedConfig",
    "FederatedSimulation",
    "evaluate_snapshot",
    "MatrixFactorizationModel",
    "ScorerProtocol",
    "FactorSnapshot",
    "RecommenderService",
]
