"""The in-process round protocol across every realization and batch geometry.

Every federated round runs through one in-process path, realised by the
``engine`` (``"loop"`` | ``"vectorized"``) and negative ``sampler``
(``"permutation"`` | ``"batched"``) switches.  Whatever the realization, and
however an epoch's shuffled client order is cut into rounds — one-client
rounds, ragged rounds, one round larger than the whole federation — the
protocol must:

* replay **bit for bit** from one master seed (losses, both factor matrices,
  metrics, round counter),
* keep its bookkeeping: ``ceil(clients / clients_per_round)`` rounds per
  epoch, every benign user uploading exactly once per epoch, the observer
  seeing every round in order,
* keep every upload inside its budget: a benign upload carries rows only
  for its own (positive, negative) pairs, with negatives drawn outside the
  user's training positives; a FedRecAttack upload respects ``kappa`` and
  the clip bound.

The second half pins the privacy mechanism and the stateful trainer on the
same path: clip-only DP bounds every benign row, additive noise lands on the
clipped rows with standard deviation ``mu * C`` (Eq. 5), a client trained
in two consecutive rounds starts the second from its stepped vector, and an
empty round consumes no sampler stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation, SimulationResult
from repro.federated.updates import ClientUpdate
from repro.rng import SeedSequenceFactory

SCENARIOS = ("benign", "fedrecattack")
ENGINES = ("loop", "vectorized")
SAMPLERS = ("permutation", "batched")
#: Round sizes cutting the 84-client epoch (80 benign users plus 4 malicious
#: clients) into one-client rounds, ragged rounds and one over-sized round.
CLIENTS_PER_ROUND = (1, 9, 128)
NUM_EPOCHS = 2
NUM_MALICIOUS = 4
KAPPA = 12


@dataclass
class _Run:
    result: SimulationResult
    simulation: FederatedSimulation
    #: ``(round_index, uploads)`` per observed round, in observation order.
    observed: list[tuple[int, list[ClientUpdate]]]


def _run(
    small_split,
    small_public,
    small_targets,
    scenario="benign",
    engine="vectorized",
    sampler="permutation",
    **config_kwargs,
) -> _Run:
    attack = None
    num_malicious = 0
    if scenario == "fedrecattack":
        attack = FedRecAttack(
            small_public,
            FedRecAttackConfig(
                kappa=KAPPA, approx_epochs_initial=3, approx_epochs_per_round=1
            ),
        )
        num_malicious = NUM_MALICIOUS
    defaults = dict(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=NUM_EPOCHS,
        engine=engine,
        sampler=sampler,
    )
    defaults.update(config_kwargs)
    observed: list[tuple[int, list[ClientUpdate]]] = []
    simulation = FederatedSimulation(
        train=small_split.train,
        config=FederatedConfig(**defaults),
        test_items=small_split.test_items,
        target_items=small_targets,
        attack=attack,
        num_malicious=num_malicious,
        seed=SeedSequenceFactory(41),
        eval_num_negatives=20,
        update_observer=lambda round_index, updates: observed.append(
            (round_index, list(updates))
        ),
    )
    return _Run(simulation.run(), simulation, observed)


#: (scenario, clients_per_round, sampler, engine) -> the grid point's first
#: run, shared by the grid's tests so each point trains once for them all.
_GRID_RUNS: dict[tuple[str, int, str, str], _Run] = {}


def _grid_run(small_split, small_public, small_targets, scenario, cpr, sampler, engine):
    key = (scenario, cpr, sampler, engine)
    if key not in _GRID_RUNS:
        _GRID_RUNS[key] = _run(
            small_split,
            small_public,
            small_targets,
            scenario,
            engine,
            sampler,
            clients_per_round=cpr,
        )
    return _GRID_RUNS[key]


def _assert_bit_identical(run_a: _Run, run_b: _Run) -> None:
    a, b = run_a.result, run_b.result
    np.testing.assert_array_equal(
        np.asarray(a.history.training_loss()), np.asarray(b.history.training_loss())
    )
    np.testing.assert_array_equal(a.item_factors, b.item_factors)
    np.testing.assert_array_equal(a.user_factors, b.user_factors)
    assert a.rounds_applied == b.rounds_applied
    assert a.accuracy == b.accuracy
    assert a.exposure == b.exposure


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("cpr", CLIENTS_PER_ROUND)
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestRoundProtocolGrid:
    def test_replay_is_bit_identical(
        self, small_split, small_public, small_targets, scenario, cpr, sampler, engine
    ):
        first = _grid_run(
            small_split, small_public, small_targets, scenario, cpr, sampler, engine
        )
        second = _run(
            small_split,
            small_public,
            small_targets,
            scenario,
            engine,
            sampler,
            clients_per_round=cpr,
        )
        _assert_bit_identical(first, second)
        assert first.result.rounds_applied > 0

    def test_round_bookkeeping(
        self, small_split, small_public, small_targets, scenario, cpr, sampler, engine
    ):
        run = _grid_run(
            small_split, small_public, small_targets, scenario, cpr, sampler, engine
        )
        num_users = small_split.train.num_users
        num_clients = num_users + (NUM_MALICIOUS if scenario == "fedrecattack" else 0)
        rounds_per_epoch = math.ceil(num_clients / cpr)

        assert run.simulation.server.rounds_applied == NUM_EPOCHS * rounds_per_epoch
        assert run.result.rounds_applied == run.simulation.round_index
        assert len(run.result.history) == NUM_EPOCHS
        assert [round_index for round_index, _ in run.observed] == list(
            range(NUM_EPOCHS * rounds_per_epoch)
        )
        for user in range(num_users):
            assert run.simulation.benign_clients[user].participation_count == NUM_EPOCHS

        benign_by_epoch: list[list[int]] = [[] for _ in range(NUM_EPOCHS)]
        malicious_uploads = 0
        for round_index, updates in run.observed:
            assert len(updates) <= cpr
            for update in updates:
                if update.is_malicious:
                    assert update.client_id in run.simulation.malicious_clients
                    malicious_uploads += 1
                else:
                    assert update.client_id in run.simulation.benign_clients
                    benign_by_epoch[round_index // rounds_per_epoch].append(
                        update.client_id
                    )
        for epoch_uploads in benign_by_epoch:
            assert sorted(epoch_uploads) == list(range(num_users))
        if scenario == "fedrecattack":
            assert 0 < malicious_uploads <= NUM_EPOCHS * NUM_MALICIOUS
        else:
            assert malicious_uploads == 0

    def test_uploads_stay_within_budget(
        self, small_split, small_public, small_targets, scenario, cpr, sampler, engine
    ):
        run = _grid_run(
            small_split, small_public, small_targets, scenario, cpr, sampler, engine
        )
        num_items = small_split.train.num_items
        clip_norm = run.simulation.config.clip_norm
        for _, updates in run.observed:
            for update in updates:
                assert np.all((update.item_ids >= 0) & (update.item_ids < num_items))
                if update.is_malicious:
                    assert update.num_nonzero_rows <= KAPPA
                    assert update.max_row_norm <= clip_norm + 1e-9
                    continue
                positives = set(small_split.train.positive_items(update.client_id).tolist())
                touched = set(update.item_ids.tolist())
                # Every positive trains each round, paired with its own
                # distinct negative drawn outside the user's training
                # positives, so the upload touches exactly twice as many items.
                assert positives <= touched
                assert len(touched) == 2 * len(positives)


class TestPrivacyOnTheRoundPath:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_clip_only_bounds_every_benign_row(
        self, small_split, small_public, small_targets, sampler, engine
    ):
        clip_norm = 0.01
        run = _run(
            small_split,
            small_public,
            small_targets,
            engine=engine,
            sampler=sampler,
            clip_benign_gradients=True,
            clip_norm=clip_norm,
        )
        norms = [update.max_row_norm for _, updates in run.observed for update in updates]
        assert norms and max(norms) <= clip_norm + 1e-12
        # The bound binds: unclipped BPR rows at this scale exceed it.
        unclipped = _run(small_split, small_public, small_targets, engine=engine, sampler=sampler)
        assert max(
            update.max_row_norm for _, updates in unclipped.observed for update in updates
        ) > clip_norm

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_noise_lands_on_clipped_rows_with_eq5_stddev(
        self, small_split, small_public, small_targets, sampler, engine
    ):
        # The first round trains identically with and without noise (noise
        # comes from the dedicated privacy stream), so the difference of its
        # uploads is exactly the added noise.
        clip_norm, noise_scale = 0.05, 0.5
        kwargs = dict(engine=engine, sampler=sampler, clip_benign_gradients=True, clip_norm=clip_norm)
        clipped = _run(small_split, small_public, small_targets, num_epochs=1, **kwargs)
        noisy = _run(
            small_split,
            small_public,
            small_targets,
            num_epochs=1,
            noise_scale=noise_scale,
            **kwargs,
        )
        (round_a, uploads_a), (round_b, uploads_b) = clipped.observed[0], noisy.observed[0]
        assert round_a == round_b == 0
        assert [u.client_id for u in uploads_a] == [u.client_id for u in uploads_b]
        for update_a, update_b in zip(uploads_a, uploads_b):
            np.testing.assert_array_equal(update_a.item_ids, update_b.item_ids)
        noise = np.concatenate(
            [b.item_gradients - a.item_gradients for a, b in zip(uploads_a, uploads_b)]
        )
        assert noise.size > 1000
        assert abs(noise.mean()) < 0.1 * noise_scale * clip_norm
        assert noise.std() == pytest.approx(noise_scale * clip_norm, rel=0.1)


class TestConvergence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_training_loss_halves(
        self, small_split, small_public, small_targets, sampler, engine
    ):
        run = _run(
            small_split,
            small_public,
            small_targets,
            engine=engine,
            sampler=sampler,
            num_epochs=60,
            learning_rate=0.1,
        )
        losses = run.result.history.training_loss()
        assert np.all(np.isfinite(losses))
        assert losses[-1] < 0.5 * losses[0]


class TestTrainerState:
    @staticmethod
    def _simulation(small_split, small_targets, sampler):
        return FederatedSimulation(
            train=small_split.train,
            config=FederatedConfig(
                num_factors=8, learning_rate=0.05, clients_per_round=32, sampler=sampler
            ),
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(41),
        )

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_client_trained_twice_starts_from_stepped_vector(
        self, small_split, small_targets, sampler
    ):
        simulation = self._simulation(small_split, small_targets, sampler)
        batch = sorted(simulation.benign_clients)[:8]
        factors = simulation.server.item_factors
        first, _ = simulation._trainer.train_round(batch, factors, None)
        stepped = np.stack([simulation.benign_clients[cid].user_vector for cid in batch])
        second, _ = simulation._trainer.train_round(batch, factors, None)

        np.testing.assert_array_equal(second.user_vectors, stepped)
        assert not np.array_equal(second.user_vectors, first.user_vectors)
        for cid in batch:
            assert simulation.benign_clients[cid].participation_count == 2

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_empty_round_consumes_no_stream(self, small_split, small_targets, sampler):
        with_empty = self._simulation(small_split, small_targets, sampler)
        plain = self._simulation(small_split, small_targets, sampler)
        batch = sorted(plain.benign_clients)[:16]

        empty, empty_loss = with_empty._trainer.train_round(
            [], with_empty.server.item_factors, None
        )
        assert empty.num_clients == 0 and empty_loss == 0.0

        after_empty, loss_a = with_empty._trainer.train_round(
            batch, with_empty.server.item_factors, None
        )
        reference, loss_b = plain._trainer.train_round(batch, plain.server.item_factors, None)
        assert loss_a == loss_b
        np.testing.assert_array_equal(after_empty.item_ids, reference.item_ids)
        np.testing.assert_array_equal(after_empty.coefficients, reference.coefficients)
        np.testing.assert_array_equal(after_empty.user_vectors, reference.user_vectors)
