"""The batched federated round against its per-client reference.

The library trains every round in stacked numpy operations; the reference
(:class:`oracles.LoopRoundSimulation`, with the per-user attacker references
of :mod:`oracles.attacks`) trains one client at a time.  Both draw every
client's training pairs from the same shared round-level stream and consume
the attack stream identically, so from identical master seeds they must
produce matching training histories, metrics and final parameters, differing
at most by floating-point summation order.  That holds with negatives redrawn
every round and with each client's first draw kept for the whole run
(``resample_negatives_each_epoch=False``).
"""

from __future__ import annotations

# repro-lint: disable-file=R4 — the batched round and its per-client reference
# consume identical random streams but sum gradients in different orders, so
# this suite pins the documented tolerance contract (LOSS_RTOL / FACTOR_ATOL),
# not bit-equality.  Bit-exact claims live in the eval-engine equivalence
# suite and tests/golden/.

import numpy as np
import pytest

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.attacks.pipattack import PipAttack
from repro.attacks.shilling import RandomAttack
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory

from oracles import LoopFedRecAttack, LoopPipAttack, LoopRoundSimulation

LOSS_RTOL = 1e-9
FACTOR_ATOL = 1e-12

#: Per-round redrawn negatives (the default) or one draw kept for the run.
NEGATIVES = ("resampled", "fixed")


def _negatives(negatives: str) -> dict[str, bool]:
    return {"resample_negatives_each_epoch": negatives == "resampled"}


def _run(
    small_split,
    small_targets,
    engine,
    attack=None,
    num_malicious=0,
    **config_kwargs,
):
    defaults = dict(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=4,
    )
    defaults.update(config_kwargs)
    simulation_class = LoopRoundSimulation if engine == "oracle" else FederatedSimulation
    simulation = simulation_class(
        train=small_split.train,
        config=FederatedConfig(**defaults),
        test_items=small_split.test_items,
        target_items=small_targets,
        attack=attack,
        num_malicious=num_malicious,
        seed=SeedSequenceFactory(41),
        eval_num_negatives=20,
    )
    return simulation.run(), simulation


def _assert_equivalent(result_a, result_b):
    np.testing.assert_allclose(
        result_a.history.training_loss(),
        result_b.history.training_loss(),
        rtol=LOSS_RTOL,
    )
    np.testing.assert_allclose(
        result_a.item_factors, result_b.item_factors, atol=FACTOR_ATOL
    )
    np.testing.assert_allclose(
        result_a.user_factors, result_b.user_factors, atol=FACTOR_ATOL
    )
    if result_a.accuracy is not None:
        assert result_a.accuracy.hr_at_10 == pytest.approx(result_b.accuracy.hr_at_10, abs=0.02)
        assert result_a.accuracy.ndcg_at_10 == pytest.approx(
            result_b.accuracy.ndcg_at_10, abs=0.02
        )
    if result_a.exposure is not None:
        assert result_a.exposure.er_at_10 == pytest.approx(result_b.exposure.er_at_10, abs=0.02)


class TestEngineEquivalence:
    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_mf_path(self, small_split, small_targets, negatives):
        result_loop, _ = _run(small_split, small_targets, "oracle", **_negatives(negatives))
        result_vec, _ = _run(small_split, small_targets, "library", **_negatives(negatives))
        _assert_equivalent(result_loop, result_vec)

    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_l2_regularised_path(self, small_split, small_targets, negatives):
        kwargs = dict(l2_reg=0.01, **_negatives(negatives))
        result_loop, _ = _run(small_split, small_targets, "oracle", **kwargs)
        result_vec, _ = _run(small_split, small_targets, "library", **kwargs)
        _assert_equivalent(result_loop, result_vec)

    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_privacy_noise_path(self, small_split, small_targets, negatives):
        # Noise is drawn per client in upload order by both realizations, so
        # even the noisy trajectories must coincide.
        kwargs = dict(noise_scale=0.1, clip_benign_gradients=True, **_negatives(negatives))
        result_loop, _ = _run(small_split, small_targets, "oracle", **kwargs)
        result_vec, _ = _run(small_split, small_targets, "library", **kwargs)
        _assert_equivalent(result_loop, result_vec)

    def test_under_attack(self, small_split, small_targets):
        result_loop, _ = _run(
            small_split, small_targets, "oracle", attack=RandomAttack(kappa=10), num_malicious=4
        )
        result_vec, _ = _run(
            small_split,
            small_targets,
            "library",
            attack=RandomAttack(kappa=10),
            num_malicious=4,
        )
        _assert_equivalent(result_loop, result_vec)
        assert result_loop.exposure.er_at_5 == pytest.approx(result_vec.exposure.er_at_5, abs=0.02)

    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_under_fedrecattack(self, small_split, small_public, small_targets, negatives):
        # The reference run uses the per-user approximation and attack-loss
        # references, the library run the stacked implementations.  Both
        # consume identical random streams — including the approximation's
        # negative draws — so the histories must still coincide.
        config = FedRecAttackConfig(
            kappa=12, approx_epochs_initial=3, approx_epochs_per_round=1
        )
        result_loop, sim_loop = _run(
            small_split,
            small_targets,
            "oracle",
            attack=LoopFedRecAttack(small_public, config),
            num_malicious=4,
            **_negatives(negatives),
        )
        result_vec, sim_vec = _run(
            small_split,
            small_targets,
            "library",
            attack=FedRecAttack(small_public, config),
            num_malicious=4,
            **_negatives(negatives),
        )
        _assert_equivalent(result_loop, result_vec)
        assert result_loop.exposure.er_at_5 == pytest.approx(result_vec.exposure.er_at_5, abs=0.02)
        assert sim_loop.attack.last_attack_loss == pytest.approx(
            sim_vec.attack.last_attack_loss, rel=1e-6, abs=1e-9
        )

    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_under_pipattack(self, small_split, small_targets, negatives):
        result_loop, _ = _run(
            small_split,
            small_targets,
            "oracle",
            attack=LoopPipAttack(),
            num_malicious=4,
            **_negatives(negatives),
        )
        result_vec, _ = _run(
            small_split,
            small_targets,
            "library",
            attack=PipAttack(),
            num_malicious=4,
            **_negatives(negatives),
        )
        _assert_equivalent(result_loop, result_vec)

    def test_round_counters_agree(self, small_split, small_targets):
        _, sim_loop = _run(small_split, small_targets, "oracle")
        _, sim_vec = _run(small_split, small_targets, "library")
        assert sim_loop.server.rounds_applied == sim_vec.server.rounds_applied
        assert sim_loop.round_index == sim_vec.round_index

    def test_observer_sees_equivalent_updates(self, small_split, small_targets):
        def collect(engine):
            rows = []
            simulation_class = (
                LoopRoundSimulation if engine == "oracle" else FederatedSimulation
            )
            simulation = simulation_class(
                train=small_split.train,
                config=FederatedConfig(num_factors=8, clients_per_round=32, num_epochs=2),
                test_items=small_split.test_items,
                target_items=small_targets,
                seed=SeedSequenceFactory(5),
                update_observer=lambda round_index, updates: rows.append(
                    (round_index, sorted((u.client_id, u.item_ids.shape[0]) for u in updates))
                ),
            )
            simulation.run()
            return rows

        assert collect("oracle") == collect("library")


#: Round sizes cutting the epoch into one-client rounds (a stacked batch of
#: one), ragged rounds and one round larger than the whole federation.
CLIENTS_PER_ROUND = (1, 9, 128)


class TestBatchGeometry:
    @pytest.mark.parametrize("negatives", NEGATIVES)
    @pytest.mark.parametrize("clients_per_round", CLIENTS_PER_ROUND)
    @pytest.mark.parametrize("scenario", ("benign", "fedrecattack", "pipattack"))
    def test_engines_agree(
        self, small_split, small_public, small_targets, scenario, clients_per_round, negatives
    ):
        def run(engine):
            attack = None
            if scenario == "fedrecattack":
                attack_class = LoopFedRecAttack if engine == "oracle" else FedRecAttack
                attack = attack_class(
                    small_public,
                    FedRecAttackConfig(
                        kappa=12, approx_epochs_initial=3, approx_epochs_per_round=1
                    ),
                )
            elif scenario == "pipattack":
                attack = LoopPipAttack() if engine == "oracle" else PipAttack()
            return _run(
                small_split,
                small_targets,
                engine,
                attack=attack,
                num_malicious=4 if attack is not None else 0,
                clients_per_round=clients_per_round,
                num_epochs=2,
                **_negatives(negatives),
            )

        (result_loop, sim_loop), (result_vec, sim_vec) = run("oracle"), run("library")
        _assert_equivalent(result_loop, result_vec)
        assert sim_loop.server.rounds_applied == sim_vec.server.rounds_applied
