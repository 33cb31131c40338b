"""Loop-vs-vectorized round engine equivalence.

Both engines draw every client's training pairs through the same sampler
streams — per-client streams under ``sampler="permutation"``, one shared
round-level stream under ``sampler="batched"`` — so from identical master
seeds they must produce matching training histories, metrics and final
parameters, differing at most by floating-point summation order.  The suite
therefore pins *two* training realizations per scenario (one per sampler),
and additionally checks that the two samplers genuinely differ (a batched
draw silently falling back to the permutation stream would erase the
documented RNG-contract distinction).
"""

from __future__ import annotations

# repro-lint: disable-file=R4 — loop and vectorized engines consume identical
# random streams but sum gradients in different orders, so this suite pins the
# documented tolerance contract (LOSS_RTOL / FACTOR_ATOL, see the
# FederatedConfig.engine docstring), not bit-equality.  Bit-exact claims live
# in the eval-engine equivalence suite and tests/golden/.

import numpy as np
import pytest

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.attacks.pipattack import PipAttack
from repro.attacks.shilling import RandomAttack
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory

LOSS_RTOL = 1e-9
FACTOR_ATOL = 1e-12


def _run(
    small_split,
    small_targets,
    engine,
    attack=None,
    num_malicious=0,
    sampler="permutation",
    **config_kwargs,
):
    defaults = dict(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=4,
        engine=engine,
        sampler=sampler,
    )
    defaults.update(config_kwargs)
    simulation = FederatedSimulation(
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
    if result_a.accuracy is not None:
        assert result_a.accuracy.hr_at_10 == pytest.approx(result_b.accuracy.hr_at_10, abs=0.02)
        assert result_a.accuracy.ndcg_at_10 == pytest.approx(
            result_b.accuracy.ndcg_at_10, abs=0.02
        )
    if result_a.exposure is not None:
        assert result_a.exposure.er_at_10 == pytest.approx(result_b.exposure.er_at_10, abs=0.02)


SAMPLERS = ("permutation", "batched")


class TestEngineEquivalence:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_mf_path(self, small_split, small_targets, sampler):
        result_loop, _ = _run(small_split, small_targets, "loop", sampler=sampler)
        result_vec, _ = _run(small_split, small_targets, "vectorized", sampler=sampler)
        _assert_equivalent(result_loop, result_vec)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_mlp_scorer_path(self, small_split, small_targets, sampler):
        kwargs = dict(use_learnable_scorer=True, scorer_hidden_units=8, sampler=sampler)
        result_loop, sim_loop = _run(small_split, small_targets, "loop", **kwargs)
        result_vec, sim_vec = _run(small_split, small_targets, "vectorized", **kwargs)
        _assert_equivalent(result_loop, result_vec)
        np.testing.assert_allclose(
            sim_loop.server.scorer.get_parameters(),
            sim_vec.server.scorer.get_parameters(),
            atol=FACTOR_ATOL,
        )

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_l2_regularised_path(self, small_split, small_targets, sampler):
        result_loop, _ = _run(small_split, small_targets, "loop", l2_reg=0.01, sampler=sampler)
        result_vec, _ = _run(
            small_split, small_targets, "vectorized", l2_reg=0.01, sampler=sampler
        )
        _assert_equivalent(result_loop, result_vec)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_privacy_noise_path(self, small_split, small_targets, sampler):
        # Noise is drawn per client in upload order by both engines, so even
        # the noisy trajectories must coincide.
        kwargs = dict(noise_scale=0.1, clip_benign_gradients=True, sampler=sampler)
        result_loop, _ = _run(small_split, small_targets, "loop", **kwargs)
        result_vec, _ = _run(small_split, small_targets, "vectorized", **kwargs)
        _assert_equivalent(result_loop, result_vec)

    def test_sampler_realizations_differ(self, small_split, small_targets):
        # The two samplers are both exact uniform draws but consume different
        # RNG streams: the trained parameters must not coincide (they would if
        # the batched engine quietly fell back to per-client permutation
        # draws, which would defeat its documented contract).
        result_perm, _ = _run(small_split, small_targets, "vectorized")
        result_batched, _ = _run(
            small_split, small_targets, "vectorized", sampler="batched"
        )
        assert not np.allclose(
            result_perm.item_factors, result_batched.item_factors, atol=1e-9
        )

    def test_under_attack(self, small_split, small_targets):
        result_loop, _ = _run(
            small_split, small_targets, "loop", attack=RandomAttack(kappa=10), num_malicious=4
        )
        result_vec, _ = _run(
            small_split,
            small_targets,
            "vectorized",
            attack=RandomAttack(kappa=10),
            num_malicious=4,
        )
        _assert_equivalent(result_loop, result_vec)
        assert result_loop.final_er_at_5 == pytest.approx(result_vec.final_er_at_5, abs=0.02)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_under_fedrecattack(self, small_split, small_public, small_targets, sampler):
        # The full attacker pipeline switches with the engine: the loop run
        # uses the per-user approximation and attack-loss reference, the
        # vectorized run the stacked implementations.  Both consume identical
        # random streams per sampler — including the approximation's negative
        # draws — so the histories must still coincide.
        def make_attack():
            return FedRecAttack(
                small_public,
                FedRecAttackConfig(
                    kappa=12, approx_epochs_initial=3, approx_epochs_per_round=1
                ),
            )

        result_loop, sim_loop = _run(
            small_split,
            small_targets,
            "loop",
            attack=make_attack(),
            num_malicious=4,
            sampler=sampler,
        )
        result_vec, sim_vec = _run(
            small_split,
            small_targets,
            "vectorized",
            attack=make_attack(),
            num_malicious=4,
            sampler=sampler,
        )
        _assert_equivalent(result_loop, result_vec)
        assert result_loop.final_er_at_5 == pytest.approx(result_vec.final_er_at_5, abs=0.02)
        assert sim_loop.attack.last_attack_loss == pytest.approx(
            sim_vec.attack.last_attack_loss, rel=1e-6, abs=1e-9
        )

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_under_pipattack(self, small_split, small_targets, sampler):
        result_loop, _ = _run(
            small_split,
            small_targets,
            "loop",
            attack=PipAttack(),
            num_malicious=4,
            sampler=sampler,
        )
        result_vec, _ = _run(
            small_split,
            small_targets,
            "vectorized",
            attack=PipAttack(),
            num_malicious=4,
            sampler=sampler,
        )
        _assert_equivalent(result_loop, result_vec)

    def test_round_counters_agree(self, small_split, small_targets):
        _, sim_loop = _run(small_split, small_targets, "loop")
        _, sim_vec = _run(small_split, small_targets, "vectorized")
        assert sim_loop.server.rounds_applied == sim_vec.server.rounds_applied
        assert sim_loop.round_index == sim_vec.round_index

    def test_participation_counts_agree(self, small_split, small_targets):
        _, sim_loop = _run(small_split, small_targets, "loop")
        _, sim_vec = _run(small_split, small_targets, "vectorized")
        for user in range(small_split.train.num_users):
            assert (
                sim_loop.benign_clients[user].participation_count
                == sim_vec.benign_clients[user].participation_count
            )

    def test_observer_sees_equivalent_updates(self, small_split, small_targets):
        def collect(engine):
            rows = []
            simulation = FederatedSimulation(
                train=small_split.train,
                config=FederatedConfig(
                    num_factors=8, clients_per_round=32, num_epochs=2, engine=engine
                ),
                test_items=small_split.test_items,
                target_items=small_targets,
                seed=SeedSequenceFactory(5),
                update_observer=lambda round_index, updates: rows.append(
                    (round_index, sorted((u.client_id, u.item_ids.shape[0]) for u in updates))
                ),
            )
            simulation.run()
            return rows

        assert collect("loop") == collect("vectorized")


#: Round sizes cutting the epoch into one-client rounds (a stacked batch of
#: one), ragged rounds and one round larger than the whole federation.
CLIENTS_PER_ROUND = (1, 9, 128)


class TestBatchGeometry:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("clients_per_round", CLIENTS_PER_ROUND)
    @pytest.mark.parametrize("scenario", ("benign", "fedrecattack"))
    def test_engines_agree(
        self, small_split, small_public, small_targets, scenario, clients_per_round, sampler
    ):
        def run(engine):
            attack = None
            if scenario == "fedrecattack":
                attack = FedRecAttack(
                    small_public,
                    FedRecAttackConfig(
                        kappa=12, approx_epochs_initial=3, approx_epochs_per_round=1
                    ),
                )
            return _run(
                small_split,
                small_targets,
                engine,
                attack=attack,
                num_malicious=4 if attack is not None else 0,
                sampler=sampler,
                clients_per_round=clients_per_round,
                num_epochs=2,
            )

        (result_loop, sim_loop), (result_vec, sim_vec) = run("loop"), run("vectorized")
        _assert_equivalent(result_loop, result_vec)
        assert sim_loop.server.rounds_applied == sim_vec.server.rounds_applied
        for user in range(small_split.train.num_users):
            assert (
                sim_loop.benign_clients[user].participation_count
                == sim_vec.benign_clients[user].participation_count
            )
