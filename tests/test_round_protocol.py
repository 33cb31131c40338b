"""The in-process round protocol across batch geometries.

Every federated round runs through one in-process path.  However an epoch's
shuffled client order is cut into rounds — one-client rounds, ragged rounds,
one round larger than the whole federation — whether each client's negatives
are redrawn every round or drawn once and kept
(``resample_negatives_each_epoch``), the protocol must:

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
in two consecutive rounds starts the second from its stepped vector, an
empty round consumes no sampler stream, and fixed negatives
(``resample_negatives_each_epoch=False``) stay fixed, also in a round that
mixes clients with cached negatives and clients drawing their first.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.federated import engine
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation, SimulationResult
from repro.federated.updates import ClientUpdate
from repro.rng import SeedSequenceFactory

SCENARIOS = ("benign", "fedrecattack")
#: Round sizes cutting the 84-client epoch (80 benign users plus 4 malicious
#: clients) into one-client rounds, ragged rounds and one over-sized round.
CLIENTS_PER_ROUND = (1, 9, 128)
#: Per-round redrawn negatives (the default) or one draw kept for the run.
NEGATIVES = ("resampled", "fixed")
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


def _variant(negatives: str = "resampled") -> dict[str, object]:
    """The ``FederatedConfig`` fields of one negatives variant."""
    return {"resample_negatives_each_epoch": negatives == "resampled"}


#: (scenario, clients_per_round, negatives) -> the grid point's first run,
#: shared by the grid's tests so each point trains once for them all.
_GRID_RUNS: dict[tuple[str, int, str], _Run] = {}


def _grid_run(small_split, small_public, small_targets, scenario, cpr, negatives):
    key = (scenario, cpr, negatives)
    if key not in _GRID_RUNS:
        _GRID_RUNS[key] = _run(
            small_split,
            small_public,
            small_targets,
            scenario,
            clients_per_round=cpr,
            **_variant(negatives),
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


@pytest.mark.parametrize("negatives", NEGATIVES)
@pytest.mark.parametrize("cpr", CLIENTS_PER_ROUND)
@pytest.mark.parametrize("scenario", SCENARIOS)
class TestRoundProtocolGrid:
    def test_replay_is_bit_identical(
        self, small_split, small_public, small_targets, scenario, cpr, negatives
    ):
        first = _grid_run(small_split, small_public, small_targets, scenario, cpr, negatives)
        second = _run(
            small_split,
            small_public,
            small_targets,
            scenario,
            clients_per_round=cpr,
            **_variant(negatives),
        )
        _assert_bit_identical(first, second)
        assert first.result.rounds_applied > 0

    def test_round_bookkeeping(
        self, small_split, small_public, small_targets, scenario, cpr, negatives
    ):
        run = _grid_run(small_split, small_public, small_targets, scenario, cpr, negatives)
        num_users = small_split.train.num_users
        num_clients = num_users + (NUM_MALICIOUS if scenario == "fedrecattack" else 0)
        rounds_per_epoch = math.ceil(num_clients / cpr)

        assert run.simulation.server.rounds_applied == NUM_EPOCHS * rounds_per_epoch
        assert run.result.rounds_applied == run.simulation.round_index
        assert len(run.result.history) == NUM_EPOCHS
        assert [round_index for round_index, _ in run.observed] == list(
            range(NUM_EPOCHS * rounds_per_epoch)
        )

        benign_by_epoch: list[list[int]] = [[] for _ in range(NUM_EPOCHS)]
        malicious_uploads = 0
        for round_index, updates in run.observed:
            assert len(updates) <= cpr
            for update in updates:
                if update.is_malicious:
                    assert update.client_id in run.simulation.malicious_clients
                    malicious_uploads += 1
                else:
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
        self, small_split, small_public, small_targets, scenario, cpr, negatives
    ):
        run = _grid_run(small_split, small_public, small_targets, scenario, cpr, negatives)
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


@pytest.mark.parametrize("negatives", NEGATIVES)
class TestPrivacyOnTheRoundPath:
    def test_clip_only_bounds_every_benign_row(
        self, small_split, small_public, small_targets, negatives
    ):
        clip_norm = 0.01
        run = _run(
            small_split,
            small_public,
            small_targets,
            clip_benign_gradients=True,
            clip_norm=clip_norm,
            **_variant(negatives),
        )
        norms = [update.max_row_norm for _, updates in run.observed for update in updates]
        assert norms and max(norms) <= clip_norm + 1e-12
        # The bound binds: unclipped BPR rows at this scale exceed it.
        unclipped = _run(small_split, small_public, small_targets, **_variant(negatives))
        assert max(
            update.max_row_norm for _, updates in unclipped.observed for update in updates
        ) > clip_norm

    def test_noise_lands_on_clipped_rows_with_eq5_stddev(
        self, small_split, small_public, small_targets, negatives
    ):
        # The first round trains identically with and without noise (noise
        # comes from the dedicated privacy stream), so the difference of its
        # uploads is exactly the added noise.
        clip_norm, noise_scale = 0.05, 0.5
        kwargs = dict(clip_benign_gradients=True, clip_norm=clip_norm, **_variant(negatives))
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
    @pytest.mark.parametrize("negatives", NEGATIVES)
    def test_training_loss_halves(self, small_split, small_public, small_targets, negatives):
        run = _run(
            small_split,
            small_public,
            small_targets,
            num_epochs=60,
            learning_rate=0.1,
            **_variant(negatives),
        )
        losses = run.result.history.training_loss()
        assert np.all(np.isfinite(losses))
        assert losses[-1] < 0.5 * losses[0]


@pytest.mark.parametrize("negatives", NEGATIVES)
class TestTrainerState:
    @staticmethod
    def _simulation(small_split, small_targets, negatives):
        return FederatedSimulation(
            train=small_split.train,
            config=FederatedConfig(
                num_factors=8,
                learning_rate=0.05,
                clients_per_round=32,
                resample_negatives_each_epoch=negatives == "resampled",
            ),
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(41),
        )

    def test_client_trained_twice_starts_from_stepped_vector(
        self, small_split, small_targets, negatives
    ):
        simulation = self._simulation(small_split, small_targets, negatives)
        batch = np.arange(8)
        factors = simulation.server.item_factors
        first, _ = simulation._trainer.train_round(batch, factors)
        stepped = simulation.gather_user_factors()[batch]
        second, _ = simulation._trainer.train_round(batch, factors)

        np.testing.assert_array_equal(second.user_vectors, stepped)
        assert not np.array_equal(second.user_vectors, first.user_vectors)

    def test_empty_round_consumes_no_stream(self, small_split, small_targets, negatives):
        with_empty = self._simulation(small_split, small_targets, negatives)
        plain = self._simulation(small_split, small_targets, negatives)
        batch = np.arange(16)

        empty, empty_loss = with_empty._trainer.train_round([], with_empty.server.item_factors)
        assert empty.num_clients == 0 and empty_loss == 0.0

        after_empty, loss_a = with_empty._trainer.train_round(
            batch, with_empty.server.item_factors
        )
        reference, loss_b = plain._trainer.train_round(batch, plain.server.item_factors)
        assert loss_a == loss_b
        np.testing.assert_array_equal(after_empty.item_ids, reference.item_ids)
        np.testing.assert_array_equal(after_empty.coefficients, reference.coefficients)
        np.testing.assert_array_equal(after_empty.user_vectors, reference.user_vectors)

    def test_sampler_gets_the_store_degrees(
        self, small_split, small_targets, negatives, monkeypatch
    ):
        # The draw is the same with or without ``num_positives``; passing the
        # store's cached degrees spares a popcount of the stacked masks.
        simulation = self._simulation(small_split, small_targets, negatives)
        batch = np.arange(8)
        calls = []
        sample = engine.sample_uniform_negatives_batched

        def spy(rng, num_items, counts, masks, *, num_positives=None):
            calls.append((counts, masks.sum(axis=1), num_positives))
            return sample(rng, num_items, counts, masks, num_positives=num_positives)

        monkeypatch.setattr(engine, "sample_uniform_negatives_batched", spy)
        simulation._trainer.draw_round_pairs(batch)
        [(counts, popcounts, num_positives)] = calls
        store = small_split.train.interaction_store()
        np.testing.assert_array_equal(num_positives, store.degrees[batch])
        np.testing.assert_array_equal(num_positives, popcounts)
        # Each client asks for one negative per positive.
        np.testing.assert_array_equal(counts, store.degrees[batch])


class TestFixedNegatives:
    """``resample_negatives_each_epoch`` keeps or redraws each client's pairs."""

    #: User 0 is heavy (15 of 20 items: a quota of 5 negatives, shorter than
    #: its positive set), user 1 light (5 items), user 2 in between.
    NUM_ITEMS = 20
    POSITIVES = {0: range(15), 1: range(5, 10), 2: range(10, 18)}

    def _simulation(self, resample: bool) -> FederatedSimulation:
        interactions = [
            (user, item) for user, items in self.POSITIVES.items() for item in items
        ]
        dataset = InteractionDataset(len(self.POSITIVES), self.NUM_ITEMS, interactions)
        return FederatedSimulation(
            train=dataset,
            config=FederatedConfig(
                num_factors=4,
                clients_per_round=2,
                num_epochs=4,
                resample_negatives_each_epoch=resample,
            ),
            seed=SeedSequenceFactory(3),
        )

    def _pairs_per_round(self, resample: bool) -> dict[int, list[tuple[list[int], list[int]]]]:
        simulation = self._simulation(resample)
        seen: dict[int, list[tuple[list[int], list[int]]]] = {
            user: [] for user in self.POSITIVES
        }
        draw = simulation._trainer.draw_round_pairs

        def recording(benign_ids):
            offsets, positives, negatives = draw(benign_ids)
            for row, cid in enumerate(benign_ids):
                pairs = slice(offsets[row], offsets[row + 1])
                seen[int(cid)].append((positives[pairs].tolist(), negatives[pairs].tolist()))
            return offsets, positives, negatives

        simulation._trainer.draw_round_pairs = recording  # type: ignore[method-assign]
        simulation.run()
        return seen

    def test_fixed_pairs_stay_fixed(self):
        seen = self._pairs_per_round(resample=False)
        for user, rounds in seen.items():
            assert len(rounds) == 4
            assert all(pairs == rounds[0] for pairs in rounds), user
        heavy_positives, heavy_negatives = seen[0][0]
        assert len(heavy_negatives) == self.NUM_ITEMS - 15
        assert len(heavy_positives) == len(heavy_negatives)

    def test_resampled_pairs_are_redrawn(self):
        seen = self._pairs_per_round(resample=True)
        for user, rounds in seen.items():
            assert len(rounds) == 4
            assert any(pairs != rounds[0] for pairs in rounds[1:]), user

    def test_mixed_round_keeps_cached_rows_and_draws_the_rest(self):
        # Under fixed negatives a round can mix a client that drew in an
        # earlier round with clients that never drew: only the latter
        # consume the stream, and rows come back in selection order.
        simulation = self._simulation(resample=False)
        store = simulation.train.interaction_store()
        draw = simulation._trainer.draw_round_pairs
        _, first_positives, first_negatives = draw(np.array([0]))
        stream = copy.deepcopy(simulation._round_sampler_rng)

        offsets, positives, negatives = draw(np.array([2, 0, 1]))

        fresh = np.array([2, 1])
        expected, expected_offsets = sample_uniform_negatives_batched(
            stream,
            self.NUM_ITEMS,
            store.degrees[fresh],
            store.mask_rows(fresh),
            num_positives=store.degrees[fresh],
        )
        assert stream.bit_generator.state == simulation._round_sampler_rng.bit_generator.state
        rows = {
            0: (first_positives, first_negatives),
            2: (store.positives(2), expected[expected_offsets[0] : expected_offsets[1]]),
            1: (store.positives(1), expected[expected_offsets[1] : expected_offsets[2]]),
        }
        for row, user in enumerate((2, 0, 1)):
            pairs = slice(offsets[row], offsets[row + 1])
            want_positives, want_negatives = rows[user]
            np.testing.assert_array_equal(negatives[pairs], want_negatives)
            np.testing.assert_array_equal(
                positives[pairs], want_positives[: want_negatives.shape[0]]
            )
