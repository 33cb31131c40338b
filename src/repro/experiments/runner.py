"""Single-experiment runner.

``run_experiment`` turns an :class:`ExperimentConfig` into numbers: it loads
(or synthesises) the dataset, makes the leave-one-out split, exposes the
public interactions, selects target items, builds the attack and the
federated simulation, trains, and returns the final exposure and accuracy
metrics together with the full per-epoch history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.target_selection import select_target_items
from repro.data.loaders import load_dataset
from repro.data.public import sample_public_interactions
from repro.data.splits import leave_one_out_split
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import build_attack
from repro.federated.dynamics import RoundIncident
from repro.federated.history import TrainingHistory
from repro.federated.simulation import FederatedSimulation, UpdateObserver
from repro.metrics.accuracy import AccuracyReport
from repro.metrics.exposure import ExposureReport
from repro.rng import SeedSequenceFactory
from repro.serving.snapshot import FactorSnapshot

if TYPE_CHECKING:
    from repro.data.dataset import InteractionDataset

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything measured in one experiment run."""

    config: ExperimentConfig
    exposure: ExposureReport | None
    accuracy: AccuracyReport | None
    history: TrainingHistory
    target_items: np.ndarray
    num_malicious: int
    #: Training split used by the run — the masking source when the trained
    #: factors are put behind a :class:`~repro.serving.service.RecommenderService`.
    train: "InteractionDataset | None" = None
    #: Immutable export of the final trained factors, ready to serve
    #: (``fedrecattack serve`` hands it straight to the service).
    snapshot: FactorSnapshot | None = None

    @property
    def incidents(self) -> "list[RoundIncident]":
        """The run's structured degradation log (empty with dynamics off)."""
        return self.history.incidents

    @property
    def er_at_5(self) -> float:
        """Final ER@5 (0 when no exposure evaluation was configured)."""
        return self.exposure.er_at_5 if self.exposure else 0.0

    @property
    def er_at_10(self) -> float:
        """Final ER@10."""
        return self.exposure.er_at_10 if self.exposure else 0.0

    @property
    def target_ndcg_at_10(self) -> float:
        """Final NDCG@10 of the target items."""
        return self.exposure.ndcg_at_10 if self.exposure else 0.0

    @property
    def hr_at_10(self) -> float:
        """Final HR@10 of the held-out items."""
        return self.accuracy.hr_at_10 if self.accuracy else 0.0


def run_experiment(
    config: ExperimentConfig, update_observer: UpdateObserver | None = None
) -> ExperimentResult:
    """Run one federated-training experiment described by ``config``.

    This is the high-level "config in, numbers out" entry point used by the
    CLI and every table/figure generator.  The pipeline is: load or
    synthesise the dataset (``config.dataset`` / ``config.scale`` /
    ``config.data_dir``), make the leave-one-out split, expose the public
    fraction ``xi`` to the attacker, select the target items, build the
    attack named by ``config.attack`` with ``rho * num_users`` malicious
    clients, and train through
    :class:`~repro.federated.simulation.FederatedSimulation`.

    Every random decision derives from ``config.seed``, so a config value
    uniquely determines the result.

    Parameters
    ----------
    config:
        Full experiment description; see
        :class:`~repro.experiments.config.ExperimentConfig` for the knobs and
        their paper defaults.
    update_observer:
        Optional callback ``observer(round_index, updates)`` called after
        every aggregation round with the round's client updates — this is how
        the defense experiments feed gradient detectors without changing the
        protocol.

    Returns
    -------
    ExperimentResult
        Final exposure (ER@5 / ER@10 / target NDCG@10) and accuracy (HR@10)
        reports, the per-epoch history, the chosen targets and the malicious
        client count.
    """
    config.validate()
    seeds = SeedSequenceFactory(config.seed)

    dataset = load_dataset(
        config.dataset,
        data_dir=config.data_dir,
        scale=config.scale,
        rng=seeds.generator("dataset"),
    )
    split = leave_one_out_split(dataset, rng=seeds.generator("split"))
    public = sample_public_interactions(split.train, config.xi, rng=seeds.generator("public"))
    target_items = select_target_items(
        split.train,
        count=config.num_target_items,
        strategy=config.target_strategy,
        rng=seeds.generator("targets"),
    )

    attack = build_attack(config, public)
    num_malicious = 0
    if attack is not None:
        num_malicious = max(1, int(math.ceil(config.rho * split.train.num_users)))

    evaluate_every = (
        config.num_epochs if config.evaluate_every is None else config.evaluate_every
    )
    simulation = FederatedSimulation(
        train=split.train,
        config=config.to_federated_config(),
        test_items=split.test_items,
        target_items=target_items,
        attack=attack,
        num_malicious=num_malicious,
        seed=seeds.child("simulation"),
        evaluate_every=evaluate_every,
        eval_num_negatives=config.eval_num_negatives,
        update_observer=update_observer,
    )
    outcome = simulation.run(config.num_epochs)

    return ExperimentResult(
        config=config,
        exposure=outcome.exposure,
        accuracy=outcome.accuracy,
        history=outcome.history,
        target_items=target_items,
        num_malicious=num_malicious,
        train=split.train,
        snapshot=FactorSnapshot.from_result(outcome),
    )
