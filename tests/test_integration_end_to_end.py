"""End-to-end integration tests.

These train small-but-realistic federated recommenders and check the paper's
headline qualitative claims: FedRecAttack raises the exposure ratio of the
target items far above both the clean run and the shilling baselines, does so
with negligible accuracy damage, and collapses without public interactions.
"""

from __future__ import annotations

import pytest

from repro.defenses.detectors import NonZeroRowCountDetector, evaluate_detector
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.attacks.target_selection import select_target_items
from repro.data.loaders import load_dataset
from repro.data.public import sample_public_interactions
from repro.data.splits import leave_one_out_split
from repro.rng import SeedSequenceFactory


def _integration_config(attack: str, rho: float, xi: float = 0.01) -> ExperimentConfig:
    """A configuration big enough for the attack to show its effect (~2 s)."""
    return ExperimentConfig(
        dataset="ml-100k-mini",
        attack=attack,
        rho=rho,
        xi=xi,
        num_factors=16,
        learning_rate=0.03,
        num_epochs=20,
        clients_per_round=64,
        eval_num_negatives=30,
        seed=7,
    )


@pytest.fixture(scope="module")
def clean_result():
    return run_experiment(_integration_config("none", rho=0.0))


@pytest.fixture(scope="module")
def fedrecattack_result():
    return run_experiment(_integration_config("fedrecattack", rho=0.10))


class TestHeadlineClaims:
    def test_clean_run_has_zero_exposure(self, clean_result):
        assert clean_result.er_at_10 == pytest.approx(0.0, abs=0.02)

    def test_clean_run_learns_something(self, clean_result):
        # HR@10 against 30 sampled negatives must beat the random baseline (10/31).
        assert clean_result.hr_at_10 > 0.45

    def test_fedrecattack_raises_exposure(self, clean_result, fedrecattack_result):
        assert fedrecattack_result.er_at_10 > 0.5
        assert fedrecattack_result.er_at_10 > clean_result.er_at_10 + 0.4

    def test_fedrecattack_side_effects_negligible(self, clean_result, fedrecattack_result):
        # The paper reports an HR@10 drop below 2.5%; allow a small margin at
        # miniature scale.
        assert fedrecattack_result.hr_at_10 > clean_result.hr_at_10 - 0.10

    def test_fedrecattack_beats_shilling_baseline(self, fedrecattack_result):
        baseline = run_experiment(_integration_config("random", rho=0.10))
        assert fedrecattack_result.er_at_10 > baseline.er_at_10 + 0.4

    def test_ablation_without_public_interactions_collapses(self):
        result = run_experiment(_integration_config("fedrecattack", rho=0.10, xi=0.0))
        assert result.er_at_10 == pytest.approx(0.0, abs=0.05)


class TestConstraintCompliance:
    def test_all_malicious_uploads_respect_kappa_and_clip(self):
        seeds = SeedSequenceFactory(3)
        dataset = load_dataset("ml-100k", scale=0.08, rng=seeds.generator("dataset"))
        split = leave_one_out_split(dataset, rng=seeds.generator("split"))
        public = sample_public_interactions(split.train, 0.05, rng=seeds.generator("public"))
        targets = select_target_items(split.train, 1, rng=seeds.generator("targets"))
        kappa, clip = 20, 0.5
        attack = FedRecAttack(
            public, FedRecAttackConfig(kappa=kappa, clip_norm=clip, approx_epochs_initial=3)
        )
        observed = []
        simulation = FederatedSimulation(
            train=split.train,
            config=FederatedConfig(
                num_factors=8, learning_rate=0.05, clients_per_round=32, num_epochs=4, clip_norm=clip
            ),
            test_items=split.test_items,
            target_items=targets,
            attack=attack,
            num_malicious=5,
            seed=seeds.child("sim"),
            eval_num_negatives=10,
            update_observer=lambda _, updates: observed.append([u for u in updates if u.is_malicious]),
        )
        simulation.run()
        malicious_updates = [u for round_updates in observed for u in round_updates]
        assert malicious_updates, "the attack never uploaded anything"
        for update in malicious_updates:
            assert update.num_nonzero_rows <= kappa
            assert update.max_row_norm <= clip + 1e-9

    def test_kappa_constrained_attack_evades_row_count_detector(self):
        seeds = SeedSequenceFactory(4)
        dataset = load_dataset("ml-100k", scale=0.08, rng=seeds.generator("dataset"))
        split = leave_one_out_split(dataset, rng=seeds.generator("split"))
        public = sample_public_interactions(split.train, 0.05, rng=seeds.generator("public"))
        targets = select_target_items(split.train, 1, rng=seeds.generator("targets"))
        attack = FedRecAttack(public, FedRecAttackConfig(kappa=30, approx_epochs_initial=3))
        rounds = []
        simulation = FederatedSimulation(
            train=split.train,
            config=FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=3),
            test_items=split.test_items,
            target_items=targets,
            attack=attack,
            num_malicious=4,
            seed=seeds.child("sim"),
            eval_num_negatives=10,
            update_observer=lambda _, updates: rounds.append(list(updates)),
        )
        simulation.run()
        # A detector keyed on "too many non-zero rows" cannot separate uploads
        # capped at kappa from benign ones — recall stays at zero.
        report = evaluate_detector(NonZeroRowCountDetector(max_rows=100), rounds)
        assert report.recall == 0.0
