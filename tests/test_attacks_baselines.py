"""Tests for the baseline attacks: shilling, EB, PipAttack, P1-P4, and target
selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import AttackContext, NoAttack
from repro.attacks.data_poisoning import SurrogateDLDataPoisoning, SurrogateMFDataPoisoning
from repro.attacks.explicit_boost import ExplicitBoostAttack
from repro.attacks.model_poisoning import GradientBoostingAttack, LittleIsEnoughAttack
from repro.attacks.pipattack import PipAttack
from repro.attacks.shilling import BandwagonAttack, PopularAttack, RandomAttack
from repro.attacks.target_selection import select_target_items
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient

NUM_FACTORS = 8


def _context(small_split, small_targets, with_popularity=True, with_full=True):
    return AttackContext(
        num_items=small_split.train.num_items,
        num_factors=NUM_FACTORS,
        target_items=small_targets,
        malicious_client_ids=[200, 201, 202],
        learning_rate=0.05,
        clip_norm=1.0,
        item_popularity=small_split.train.item_popularity if with_popularity else None,
        full_train=small_split.train if with_full else None,
        rng=np.random.default_rng(0),
    )


def _clients(small_split, ids=(200, 201, 202)):
    return {
        cid: MaliciousClient(cid, small_split.train.num_items, NUM_FACTORS, 0.05, rng=cid)
        for cid in ids
    }


class TestAttackContext:
    def test_targets_validated(self, small_split):
        with pytest.raises(AttackError):
            AttackContext(
                num_items=small_split.train.num_items,
                num_factors=4,
                target_items=np.array([], dtype=np.int64),
                malicious_client_ids=[0],
                learning_rate=0.01,
                clip_norm=1.0,
            )

    def test_out_of_range_target_rejected(self, small_split):
        with pytest.raises(AttackError):
            AttackContext(
                num_items=10,
                num_factors=4,
                target_items=np.array([11]),
                malicious_client_ids=[0],
                learning_rate=0.01,
                clip_norm=1.0,
            )

    def test_targets_deduplicated_and_sorted(self):
        context = AttackContext(
            num_items=10,
            num_factors=4,
            target_items=np.array([5, 2, 5]),
            malicious_client_ids=[0],
            learning_rate=0.01,
            clip_norm=1.0,
        )
        np.testing.assert_array_equal(context.target_items, [2, 5])


class TestNoAttack:
    def test_uploads_nothing(self, small_split, small_targets, rng):
        attack = NoAttack()
        attack.setup(_context(small_split, small_targets), _clients(small_split))
        client = MaliciousClient(0, small_split.train.num_items, NUM_FACTORS, 0.05, rng=0)
        assert attack.craft_update(client, rng.normal(size=(small_split.train.num_items, NUM_FACTORS)), 0) is None


class TestShillingAttacks:
    @pytest.mark.parametrize("attack_cls", [RandomAttack, BandwagonAttack, PopularAttack])
    def test_profiles_contain_targets(self, attack_cls, small_split, small_targets):
        attack = attack_cls(kappa=20)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        for client in clients.values():
            assert set(small_targets.tolist()).issubset(set(client.profile.tolist()))

    @pytest.mark.parametrize("attack_cls", [RandomAttack, BandwagonAttack, PopularAttack])
    def test_profile_size_is_half_kappa(self, attack_cls, small_split, small_targets):
        attack = attack_cls(kappa=20)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        for client in clients.values():
            assert client.profile.shape[0] <= 10

    def test_random_profiles_differ_between_clients(self, small_split, small_targets):
        attack = RandomAttack(kappa=40)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        profiles = [tuple(c.profile.tolist()) for c in clients.values()]
        assert len(set(profiles)) > 1

    def test_popular_fillers_are_most_popular(self, small_split, small_targets):
        attack = PopularAttack(kappa=20)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        popularity = small_split.train.item_popularity
        client = next(iter(clients.values()))
        fillers = np.setdiff1d(client.profile, small_targets)
        # Every filler must be at least as popular as the median item.
        assert np.all(popularity[fillers] >= np.median(popularity))

    def test_bandwagon_requires_popularity(self, small_split, small_targets):
        attack = BandwagonAttack(kappa=20)
        with pytest.raises(AttackError):
            attack.setup(
                _context(small_split, small_targets, with_popularity=False),
                _clients(small_split),
            )

    def test_popular_requires_popularity(self, small_split, small_targets):
        attack = PopularAttack(kappa=20)
        with pytest.raises(AttackError):
            attack.setup(
                _context(small_split, small_targets, with_popularity=False),
                _clients(small_split),
            )

    def test_craft_update_is_honest_training(self, small_split, small_targets, rng):
        attack = RandomAttack(kappa=20)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        client = clients[200]
        item_factors = rng.normal(size=(small_split.train.num_items, NUM_FACTORS))
        update = attack.craft_update(client, item_factors, 0)
        assert update.is_malicious
        assert update.loss > 0.0
        assert set(client.profile.tolist()).issubset(set(update.item_ids.tolist()))

    def test_invalid_kappa(self):
        with pytest.raises(AttackError):
            RandomAttack(kappa=0)

    def test_bandwagon_invalid_fraction(self):
        with pytest.raises(AttackError):
            BandwagonAttack(kappa=10, popular_fraction=1.5)


class TestExplicitBoostAttack:
    def test_upload_rows_point_against_user_vector(self, small_split, small_targets, rng):
        attack = ExplicitBoostAttack(boost_factor=5.0)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        client = clients[200]
        item_factors = rng.normal(size=(small_split.train.num_items, NUM_FACTORS))
        update = attack.craft_update(client, item_factors, 0)
        np.testing.assert_array_equal(update.item_ids, small_targets)
        for row in update.item_gradients:
            assert row @ client.user_vector < 0.0

    def test_rows_clipped(self, small_split, small_targets, rng):
        attack = ExplicitBoostAttack(boost_factor=100.0)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        update = attack.craft_update(
            clients[200], rng.normal(size=(small_split.train.num_items, NUM_FACTORS)), 0
        )
        assert update.max_row_norm <= 1.0 + 1e-9

    def test_invalid_boost(self):
        with pytest.raises(AttackError):
            ExplicitBoostAttack(boost_factor=0.0)


class TestPipAttack:
    def test_requires_popularity(self, small_split, small_targets):
        attack = PipAttack()
        with pytest.raises(AttackError):
            attack.setup(
                _context(small_split, small_targets, with_popularity=False),
                _clients(small_split),
            )

    def test_upload_targets_only(self, small_split, small_targets, rng):
        attack = PipAttack()
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        update = attack.craft_update(
            clients[200], rng.normal(size=(small_split.train.num_items, NUM_FACTORS)), 0
        )
        np.testing.assert_array_equal(update.item_ids, small_targets)
        assert update.max_row_norm <= 1.0 + 1e-9

    def test_alignment_moves_target_towards_popular_centroid(
        self, small_split, small_targets, rng
    ):
        attack = PipAttack(alignment_weight=1.0, boost_weight=0.0)
        clients = _clients(small_split)
        context = _context(small_split, small_targets)
        attack.setup(context, clients)
        item_factors = rng.normal(size=(small_split.train.num_items, NUM_FACTORS))
        update = attack.craft_update(clients[200], item_factors, 0)
        centroid = item_factors[attack._popular_items].mean(axis=0)
        target = small_targets[0]
        row = update.item_gradients[update.item_ids.tolist().index(target)]
        before = np.linalg.norm(item_factors[target] - centroid)
        after = np.linalg.norm((item_factors[target] - 0.05 * row) - centroid)
        assert after < before

    def test_invalid_weights(self):
        with pytest.raises(AttackError):
            PipAttack(alignment_weight=0.0, boost_weight=0.0)
        with pytest.raises(AttackError):
            PipAttack(popular_fraction=0.0)


class TestGenericModelPoisoning:
    def test_p3_uploads_boosted_target_rows(self, small_split, small_targets, rng):
        attack = GradientBoostingAttack(boost_factor=50.0)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        update = attack.craft_update(
            clients[200], rng.normal(size=(small_split.train.num_items, NUM_FACTORS)), 0
        )
        np.testing.assert_array_equal(update.item_ids, small_targets)
        assert update.max_row_norm <= 1.0 + 1e-9

    def test_p3_invalid_boost(self):
        with pytest.raises(AttackError):
            GradientBoostingAttack(boost_factor=-1.0)

    def test_p4_uploads_rows_within_envelope(self, small_split, small_targets, rng):
        attack = LittleIsEnoughAttack(z_max=1.0, num_reference_profiles=4, profile_size=10)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        update = attack.craft_update(
            clients[200], rng.normal(size=(small_split.train.num_items, NUM_FACTORS)), 0
        )
        np.testing.assert_array_equal(update.item_ids, small_targets)
        assert np.isfinite(update.item_gradients).all()

    def test_p4_invalid_parameters(self):
        with pytest.raises(AttackError):
            LittleIsEnoughAttack(z_max=0.0)
        with pytest.raises(AttackError):
            LittleIsEnoughAttack(num_reference_profiles=1)
        with pytest.raises(AttackError):
            LittleIsEnoughAttack(profile_size=0)


class TestDataPoisoningBaselines:
    @pytest.mark.parametrize("attack_cls", [SurrogateMFDataPoisoning, SurrogateDLDataPoisoning])
    def test_requires_full_knowledge(self, attack_cls, small_split, small_targets):
        attack = attack_cls(kappa=20, surrogate_epochs=1)
        with pytest.raises(AttackError):
            attack.setup(
                _context(small_split, small_targets, with_full=False), _clients(small_split)
            )

    @pytest.mark.parametrize("attack_cls", [SurrogateMFDataPoisoning, SurrogateDLDataPoisoning])
    def test_profiles_contain_targets_and_respect_kappa(
        self, attack_cls, small_split, small_targets
    ):
        attack = attack_cls(kappa=20, surrogate_epochs=1)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        for client in clients.values():
            assert set(small_targets.tolist()).issubset(set(client.profile.tolist()))
            assert client.profile.shape[0] <= 10

    def test_p1_craft_update_trains_on_profile(self, small_split, small_targets, rng):
        attack = SurrogateMFDataPoisoning(kappa=20, surrogate_epochs=1)
        clients = _clients(small_split)
        attack.setup(_context(small_split, small_targets), clients)
        update = attack.craft_update(
            clients[200], rng.normal(size=(small_split.train.num_items, NUM_FACTORS)), 0
        )
        assert update.is_malicious
        assert update.num_nonzero_rows > 0

    def test_invalid_kappa(self):
        with pytest.raises(AttackError):
            SurrogateMFDataPoisoning(kappa=0)


class TestTargetSelection:
    def test_unpopular_targets_have_low_popularity(self, small_split, rng):
        targets = select_target_items(small_split.train, 3, "unpopular", rng)
        popularity = small_split.train.item_popularity
        assert np.all(popularity[targets] <= np.median(popularity))

    def test_popular_targets_are_top_items(self, small_split):
        targets = select_target_items(small_split.train, 2, "popular")
        popularity = small_split.train.item_popularity
        top_two = np.sort(popularity)[::-1][:2]
        assert set(popularity[targets].tolist()) == set(top_two.tolist())

    def test_random_targets_in_range(self, small_split, rng):
        targets = select_target_items(small_split.train, 4, "random", rng)
        assert targets.shape == (4,)
        assert targets.max() < small_split.train.num_items

    def test_deterministic_given_seed(self, small_split):
        a = select_target_items(small_split.train, 3, "unpopular", rng=5)
        b = select_target_items(small_split.train, 3, "unpopular", rng=5)
        np.testing.assert_array_equal(a, b)

    def test_invalid_arguments(self, small_split):
        with pytest.raises(AttackError):
            select_target_items(small_split.train, 0)
        with pytest.raises(AttackError):
            select_target_items(small_split.train, 10**6)
        with pytest.raises(AttackError):
            select_target_items(small_split.train, 1, "bogus")
