"""The blocked evaluation pass against its per-user reference.

The contract under test (see ``docs/architecture.md``):

* :func:`repro.metrics.evaluation.evaluate_snapshot` makes exactly one
  ``score_block`` call per canonical user block, whichever metrics are
  requested, and reads every metric from that block;
* full-rank HR@10 / NDCG@10 / ER@5 / ER@10 / target-NDCG@10 are
  **bit-identical** between :func:`repro.metrics.evaluation.evaluate_snapshot`
  and the per-user reference :func:`oracles.evaluate_loop` — both read the
  same score blocks and reduce per-user contributions identically;
* under the sampled protocol both consume the evaluation stream through the
  same stacked per-block draws, so from equal seeds the metrics are equal;
* the equivalence holds at realistic dataset shapes (the calibrated ml-100k
  and steam-200k miniatures) and on a mixed edge block (saturated and
  skipped users mid-block) through every scoring surface — a bare block
  callback, the MF model, a non-MF structural scorer and a snapshot's model — on
  handcrafted edge users (empty positives, all-items positives) at every
  block geometry, under score ties, through a custom scorer that implements
  only ``score_items``, and end-to-end through
  :class:`~repro.federated.simulation.FederatedSimulation`, attacked or
  not, under both protocols;
* the regression fixes ride along: the stream survives mixed empty/full
  draw segments and invalid users mid-block (and rejects short segments
  loudly), ``_top_k_thresholds`` enforces its cutoff precondition, and each
  score block's shape is validated as it is produced.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.federated.simulation as simulation_module
from repro.attacks.shilling import RandomAttack
from repro.data.dataset import InteractionDataset
from repro.data.presets import get_preset
from repro.data.splits import leave_one_out_split
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.exceptions import ModelError
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.metrics.evaluation import (
    DEFAULT_BLOCK_SIZE,
    _top_k_thresholds,
    evaluate_snapshot,
    user_blocks,
)
from repro.models.mf import MatrixFactorizationModel
from repro.rng import SeedSequenceFactory
from repro.serving.snapshot import FactorSnapshot

from oracles import DistanceScorer, evaluate_loop


#: The scoring surfaces a source can reach evaluation through.
SURFACES = ("callback", "mf", "structural", "snapshot")


def _source(kind: str, dataset: InteractionDataset, seed: int, *, constant: bool = False):
    """A float-valued scoring source of ``dataset``'s shape.

    ``"callback"`` is a bare ``score_block`` function; ``"mf"`` and
    ``"structural"`` (:class:`oracles.DistanceScorer` over the same factors,
    not a dot product and not a ``Recommender``) are models dispatched
    through their own ``score_block``;
    ``"snapshot"`` is the serving model rebuilt over frozen copies of the MF
    factors.  ``constant`` sets every factor to one, so every score of a
    row ties.
    """
    model = MatrixFactorizationModel(
        dataset.num_users, dataset.num_items, num_factors=16, init_scale=1.0, rng=seed
    )
    if constant:
        model.user_factors[:] = 1.0
        model.item_factors[:] = 1.0
    if kind == "callback":
        return model.score_block
    if kind == "mf":
        return model
    if kind == "snapshot":
        return FactorSnapshot(model.user_factors, model.item_factors).model()
    return DistanceScorer(model.user_factors, model.item_factors)


def _test_items(dataset: InteractionDataset, rng: np.random.Generator) -> np.ndarray:
    """One held-out candidate per user; every third user skipped (-1)."""
    items = rng.integers(0, dataset.num_items, size=dataset.num_users)
    items[::3] = -1
    return items


def _targets(dataset: InteractionDataset, count: int = 5) -> np.ndarray:
    return np.arange(min(count, dataset.num_items), dtype=np.int64)


def _both_engines(dataset, score_block, *, block_size=7, seed=123, **kwargs):
    """``(reference, library)`` results from equal seeds."""
    return [
        evaluate(
            score_block,
            dataset,
            block_size=block_size,
            rng=np.random.default_rng(seed),
            **kwargs,
        )
        for evaluate in (evaluate_loop, evaluate_snapshot)
    ]


#: The protocols the suites sweep: full ranking (no stream) and sampled.
PROTOCOLS = [None, 99]

#: Block sizes cutting the users into one-user blocks, ragged blocks and one
#: block larger than the whole dataset.
BLOCK_SIZES = [1, 3, 64]


def _assert_identical(loop_result, vectorized_result):
    if loop_result.accuracy is None:
        assert vectorized_result.accuracy is None
    else:
        assert loop_result.accuracy == vectorized_result.accuracy
    if loop_result.exposure is None:
        assert vectorized_result.exposure is None
    else:
        assert loop_result.exposure == vectorized_result.exposure


class TestEdgeUsers:
    """Handcrafted users: no positives, all-items positives, normal."""

    @pytest.fixture()
    def dataset(self):
        num_items = 12
        interactions = [(1, item) for item in range(num_items)]  # user 1: everything
        interactions += [(2, 0), (2, 4), (3, 7)]
        return InteractionDataset(4, num_items, interactions, name="edges")

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("num_negatives", PROTOCOLS)
    def test_engines_agree(self, dataset, num_negatives, block_size):
        rng = np.random.default_rng(5)
        score_block = _source("callback", dataset, seed=0)
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            block_size=block_size,
            test_items=_test_items(dataset, rng),
            target_items=_targets(dataset, 3),
            num_negatives=num_negatives,
        )
        _assert_identical(loop_result, vectorized_result)
        # user 1 interacted with every target -> never in the ER denominator;
        # its test item (if any) still ranks, matching the loop semantics.
        assert loop_result.exposure is not None

    def test_all_positive_user_alone_yields_empty_exposure(self, dataset):
        only_full_user = InteractionDataset(
            1, 4, [(0, 0), (0, 1), (0, 2), (0, 3)], name="full"
        )
        loop_result, vectorized_result = _both_engines(
            only_full_user,
            _source("callback", only_full_user, seed=0),
            test_items=np.array([2]),
            target_items=np.array([1, 3]),
            num_negatives=None,
        )
        _assert_identical(loop_result, vectorized_result)
        assert loop_result.exposure.er_at_10 == 0.0
        # full-catalog positives: the masked ranking is all -inf, the test
        # item still wins by its raw score (rank 1).
        assert loop_result.accuracy.hr_at_10 == 1.0

    def test_sampled_protocol_with_saturated_user(self, dataset):
        """A user whose positives cover the catalog draws nothing usable.

        The stream requests zero negatives for the saturated row, so the
        test item ranks first against an empty candidate set in both.
        """
        only_full_user = InteractionDataset(
            1, 4, [(0, 0), (0, 1), (0, 2), (0, 3)], name="full"
        )
        loop_result, vectorized_result = _both_engines(
            only_full_user,
            _source("callback", only_full_user, seed=0),
            test_items=np.array([2]),
            num_negatives=10,
        )
        _assert_identical(loop_result, vectorized_result)
        assert loop_result.accuracy.hr_at_10 == 1.0
        assert loop_result.accuracy.ndcg_at_10 == 1.0


class TestScoreTies:
    """Exact score ties must not split the engines."""

    def test_constant_scores(self):
        dataset = InteractionDataset(3, 8, [(0, 1), (1, 2), (1, 3)], name="ties")
        constant = np.zeros((3, 8))
        score_block = lambda users: constant[users]  # noqa: E731
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            test_items=np.array([4, 5, 6]),
            target_items=np.array([0, 7]),
            num_negatives=None,
        )
        _assert_identical(loop_result, vectorized_result)
        # Optimistic ranks: every target ties for rank 1, so all are exposed.
        assert loop_result.exposure.er_at_5 == 1.0
        assert loop_result.accuracy.hr_at_10 == 1.0

    def test_partial_ties_at_the_boundary(self):
        dataset = InteractionDataset(2, 20, [(0, 0)], name="boundary")
        scores = np.zeros((2, 20))
        scores[:, :12] = 1.0  # 12 items tie above the rest
        score_block = lambda users: scores[users]  # noqa: E731
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            test_items=np.array([11, 19]),
            target_items=np.array([5, 19]),
            num_negatives=None,
        )
        _assert_identical(loop_result, vectorized_result)

    def test_sampled_protocol_under_ties(self):
        """All-ties scores through the sampled protocol."""
        dataset = InteractionDataset(3, 8, [(0, 1), (1, 2), (1, 3)], name="ties")
        constant = np.zeros((3, 8))
        score_block = lambda users: constant[users]  # noqa: E731
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            test_items=np.array([4, 5, 6]),
            num_negatives=5,
        )
        _assert_identical(loop_result, vectorized_result)
        # Optimistic ranks: the test item ties every sampled negative -> rank 1.
        assert loop_result.accuracy.hr_at_10 == 1.0
        assert loop_result.accuracy.ndcg_at_10 == 1.0


@pytest.mark.parametrize("source", SURFACES)
@pytest.mark.parametrize("shape", ["ml-100k-mini", "steam-200k-mini"])
@pytest.mark.parametrize("num_negatives", PROTOCOLS)
class TestRealisticShapes:
    def test_engines_agree(self, shape, num_negatives, source):
        preset = get_preset(shape)
        dataset = generate_synthetic_dataset(
            SyntheticConfig.from_preset(preset),
            SeedSequenceFactory(11).generator(f"eval-eq-{shape}"),
        )
        rng = np.random.default_rng(17)
        loop_result, vectorized_result = _both_engines(
            dataset,
            _source(source, dataset, seed=3),
            block_size=64,
            test_items=_test_items(dataset, rng),
            target_items=_targets(dataset, 5),
            num_negatives=num_negatives,
        )
        _assert_identical(loop_result, vectorized_result)
        assert loop_result.accuracy.num_evaluated_users > 0


class TestBatchedStreamContract:
    """Direct contract tests of the evaluation stream."""

    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(31)
        num_users, num_items = 40, 60
        pairs = [
            (user, item)
            for user in range(num_users)
            for item in rng.choice(num_items, size=int(rng.integers(0, 9)), replace=False)
        ]
        dataset = InteractionDataset(num_users, num_items, pairs, name="stream")
        test_items = rng.integers(0, num_items, size=num_users)
        test_items[::5] = -1
        return dataset, test_items

    def test_first_round_draws_are_partition_independent(self, setup):
        """``rng.integers`` consumes the bit stream sequentially, so when
        every row finishes in its first oversampled rejection round (the
        common regime) the concatenated candidate stream — and therefore the
        realization — does not depend on where the block boundaries fall.
        Same seed + same block size is always bit-identical."""
        dataset, test_items = setup
        score_block = _source("callback", dataset, seed=9)

        def run(block_size):
            return evaluate_snapshot(
                score_block,
                dataset,
                test_items=test_items,
                num_negatives=25,
                rng=np.random.default_rng(3),
                block_size=block_size,
            )

        reference = run(16)
        assert run(16).accuracy == reference.accuracy
        for block_size in (1, 7, 13, dataset.num_users):
            assert run(block_size).accuracy == reference.accuracy

    def test_draw_reproducible_and_engine_free(self, setup):
        """The stacked draw itself: same seed -> same CSR, contiguous and
        gathered user blocks give the same realization."""
        from repro.metrics.accuracy import draw_ranking_negatives_batched

        dataset, test_items = setup
        store = dataset.interaction_store()
        for users in (
            np.arange(8, 24, dtype=np.int64),  # contiguous: mask_block view path
            np.arange(3, 33, 2, dtype=np.int64),  # strided: mask_rows gather path
        ):
            first = draw_ranking_negatives_batched(
                np.random.default_rng(7), store, users, test_items[users], 30
            )
            second = draw_ranking_negatives_batched(
                np.random.default_rng(7), store, users.tolist(), test_items[users], 30
            )
            np.testing.assert_array_equal(first[0], second[0])
            np.testing.assert_array_equal(first[1], second[1])
            counts = np.diff(first[1])
            valid = test_items[users] >= 0
            assert np.all(counts[valid] == 30)
            assert np.all(counts[~valid] == 0)
            for local, user in enumerate(users):
                segment = first[0][first[1][local] : first[1][local + 1]]
                assert not store.masks[user][segment].any()
                assert not np.any(segment == test_items[user])


class TestValidation:
    @pytest.mark.parametrize("keyword", ["engine", "eval_sampler", "eval_path"])
    def test_removed_realization_keywords_rejected(self, keyword):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        with pytest.raises(TypeError):
            evaluate_snapshot(
                lambda users: np.zeros((users.shape[0], 3)),
                dataset,
                test_items=np.array([1, 1]),
                **{keyword: "loop"},
            )

    def test_bad_block_size_rejected(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        with pytest.raises(ModelError):
            evaluate_snapshot(
                lambda users: np.zeros((users.shape[0], 3)),
                dataset,
                test_items=np.array([1, 1]),
                block_size=0,
            )

    def test_wrong_score_shape_rejected(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        for evaluate in (evaluate_loop, evaluate_snapshot):
            with pytest.raises(ModelError):
                evaluate(
                    lambda users: np.zeros((users.shape[0], 5)),
                    dataset,
                    test_items=np.array([1, 1]),
                    num_negatives=None,
                )

    def test_nothing_requested_is_a_no_op(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        calls = []

        def score_block(users):  # pragma: no cover - must not run
            calls.append(users)
            return np.zeros((users.shape[0], 3))

        result = evaluate_snapshot(score_block, dataset)
        assert result.accuracy is None and result.exposure is None
        assert not calls


class TestGenericScorerFallback:
    """``evaluate_snapshot`` through a custom ``score_items``-only scorer.

    A custom scorer that only implements ``score_items`` works through a
    row-by-row block callback, and — when its per-row arithmetic matches MF
    exactly — must reproduce the id-based MF protocol path's metrics.
    Integer-valued factors keep every dot product exact, so the row-by-row
    callback (vector-matrix products) and the MF block path (one
    matrix-matrix product) cannot drift apart in floating point.
    """

    @pytest.fixture()
    def setup(self):
        from repro.models.base import Recommender

        rng = np.random.default_rng(41)
        num_users, num_items, num_factors = 18, 26, 6
        user_factors = rng.integers(-3, 4, size=(num_users, num_factors)).astype(np.float64)
        item_factors = rng.integers(-3, 4, size=(num_items, num_factors)).astype(np.float64)

        class DotScorer(Recommender):
            """Minimal custom scorer: ``score_items`` only, no overrides."""

            @property
            def num_users(self):
                return num_users

            @property
            def num_items(self):
                return num_items

            @property
            def num_factors(self):
                return num_factors

            def score_items(self, user_vector, items=None):
                scores = item_factors @ np.asarray(user_vector, dtype=np.float64)
                if items is None:
                    return scores
                return scores[np.asarray(items, dtype=np.int64)]

        pairs = [
            (user, item)
            for user in range(num_users)
            for item in rng.choice(num_items, size=3, replace=False)
        ]
        dataset = InteractionDataset(num_users, num_items, pairs, name="fallback")
        test_items = rng.integers(0, num_items, size=num_users)
        test_items[::4] = -1
        return DotScorer(), user_factors, item_factors, dataset, test_items

    @staticmethod
    def _rows(scorer, user_factors):
        return lambda users: np.stack(
            [scorer.score_items(vector) for vector in user_factors[users]]
        )

    @pytest.mark.parametrize("block_size", [1, 5, 32])
    @pytest.mark.parametrize("num_negatives", PROTOCOLS)
    def test_fallback_matches_mf_path(self, setup, num_negatives, block_size):
        scorer, user_factors, item_factors, dataset, test_items = setup
        model = MatrixFactorizationModel(
            dataset.num_users, dataset.num_items, user_factors.shape[1], rng=0
        )
        model.user_factors = user_factors.copy()
        model.item_factors = item_factors.copy()
        kwargs = dict(
            test_items=test_items,
            target_items=_targets(dataset, 4),
            num_negatives=num_negatives,
            block_size=block_size,
        )
        results = {}
        for name, score_block in (
            ("fallback", self._rows(scorer, user_factors)),
            ("mf", model.score_block),
        ):
            for engine, evaluate in (("oracle", evaluate_loop), ("library", evaluate_snapshot)):
                results[(name, engine)] = evaluate(
                    score_block,
                    dataset,
                    rng=np.random.default_rng(19),
                    **kwargs,
                )
        reference = results[("mf", "oracle")]
        for key, result in results.items():
            assert result.accuracy == reference.accuracy, key
            assert result.exposure == reference.exposure, key

    def test_fallback_accepts_single_row_blocks(self, setup):
        scorer, user_factors, _, dataset, test_items = setup
        result = evaluate_snapshot(
            self._rows(scorer, user_factors),
            dataset,
            test_items=test_items,
            num_negatives=None,
            block_size=1,
        )
        assert result.accuracy.num_evaluated_users > 0


class TestSimulationIntegration:
    """Every evaluation of a training run against the reference, with and
    without malicious clients poisoning the item factors.

    The simulation's one evaluation entry point (``evaluate_snapshot`` as
    :mod:`repro.federated.simulation` names it) is wrapped so each call also
    runs :func:`oracles.evaluate_loop` on the same scores — from a copy of
    the evaluation stream's state — and the two reports must be equal.
    """

    @pytest.fixture()
    def small_setup(self):
        rng = np.random.default_rng(29)
        num_users, num_items = 24, 30
        pairs = [
            (user, item)
            for user in range(num_users)
            for item in rng.choice(num_items, size=4, replace=False)
        ]
        dataset = InteractionDataset(num_users, num_items, pairs, name="sim-eq")
        test_items = rng.integers(0, num_items, size=num_users)
        targets = np.array([0, 1], dtype=np.int64)
        return dataset, test_items, targets

    @staticmethod
    def _checked_run(
        monkeypatch, dataset, test_items, targets, eval_num_negatives, attack=None, **config
    ):
        checked = []
        evaluate = simulation_module.evaluate_snapshot

        def checked_evaluate(source, train, *, rng, **kwargs):
            expected = evaluate_loop(source, train, rng=copy.deepcopy(rng), **kwargs)
            result = evaluate(source, train, rng=rng, **kwargs)
            assert result == expected
            checked.append(result)
            return result

        monkeypatch.setattr(simulation_module, "evaluate_snapshot", checked_evaluate)
        simulation = FederatedSimulation(
            train=dataset,
            config=FederatedConfig(num_factors=8, clients_per_round=8, num_epochs=4, **config),
            test_items=test_items,
            target_items=targets,
            attack=attack,
            num_malicious=0 if attack is None else 3,
            seed=7,
            evaluate_every=1,
            eval_num_negatives=eval_num_negatives,
        )
        result = simulation.run()
        assert len(checked) == 4
        return result

    @pytest.mark.parametrize("attacked", [False, True])
    @pytest.mark.parametrize("eval_num_negatives", [9, None])
    def test_every_evaluation_matches_the_reference(
        self, small_setup, monkeypatch, eval_num_negatives, attacked
    ):
        dataset, test_items, targets = small_setup
        result = self._checked_run(
            monkeypatch, dataset, test_items, targets, eval_num_negatives,
            attack=RandomAttack(kappa=6) if attacked else None,
        )
        assert all(record.accuracy is not None for record in result.history.records)
        assert all(record.exposure is not None for record in result.history.records)

    def test_bit_identical_across_attacked_history(
        self, small_split, small_targets, monkeypatch
    ):
        """Full-rank simulation evaluations == the cold reference, per epoch."""
        cold: list[tuple] = []
        evaluate = simulation_module.evaluate_snapshot

        def recording(source, train, **kwargs):
            reference = evaluate_loop(
                source,
                small_split.train,
                test_items=small_split.test_items,
                target_items=small_targets,
                num_negatives=None,
            )
            cold.append((reference.accuracy, reference.exposure))
            return evaluate(source, train, **kwargs)

        monkeypatch.setattr(simulation_module, "evaluate_snapshot", recording)
        simulation = FederatedSimulation(
            small_split.train,
            FederatedConfig(num_factors=4, num_epochs=3, clients_per_round=24),
            test_items=small_split.test_items,
            target_items=small_targets,
            attack=RandomAttack(kappa=10),
            num_malicious=4,
            seed=77,
            evaluate_every=1,
            eval_num_negatives=None,
        )
        result = simulation.run()
        series = [(record.accuracy, record.exposure) for record in result.history.records]
        assert len(cold) == 3
        assert series == cold

    @pytest.mark.parametrize("eval_num_negatives", [9, None])
    def test_one_score_block_call_per_block_per_evaluation(
        self, monkeypatch, eval_num_negatives
    ):
        """A simulation evaluation scores each canonical block exactly once."""
        dataset = generate_synthetic_dataset(
            SyntheticConfig(num_users=300, num_items=90, num_interactions=2400),
            np.random.default_rng(13),
        )
        split = leave_one_out_split(dataset, rng=np.random.default_rng(14))
        calls: list[tuple[int, int]] = []
        score_block_function = FederatedSimulation.score_block_function

        def counting_function(self):
            score_block = score_block_function(self)

            def counting(users):
                calls.append((int(users[0]), int(users[-1]) + 1))
                return score_block(users)

            return counting

        monkeypatch.setattr(FederatedSimulation, "score_block_function", counting_function)
        FederatedSimulation(
            split.train,
            FederatedConfig(num_factors=4, num_epochs=2, clients_per_round=64),
            test_items=split.test_items,
            target_items=_targets(split.train, 3),
            seed=5,
            evaluate_every=1,
            eval_num_negatives=eval_num_negatives,
        ).run()
        blocks = user_blocks(split.train.num_users, DEFAULT_BLOCK_SIZE)
        assert len(blocks) == 3
        assert calls == blocks * 2

    def test_evaluation_stream_leaves_training_untouched(self, small_setup):
        """Training draws no evaluation randomness: losses match exactly
        between the sampled and the full-rank protocol."""
        dataset, test_items, targets = small_setup
        losses = []
        for eval_num_negatives in (9, None):
            simulation = FederatedSimulation(
                train=dataset,
                config=FederatedConfig(num_factors=8, clients_per_round=8, num_epochs=4),
                test_items=test_items,
                target_items=targets,
                seed=7,
                evaluate_every=1,
                eval_num_negatives=eval_num_negatives,
            )
            losses.append(simulation.run().history.training_loss())
        np.testing.assert_array_equal(losses[0], losses[1])


# --------------------------------------------------------------------- #
# One scoring pass per block, through every scoring surface
# --------------------------------------------------------------------- #
def _edge_dataset() -> InteractionDataset:
    """Mixed block content: a saturated user, invalid users, normal users.

    User 1 interacted with *every* item, so its sampled draw has zero
    negatives (an empty segment mid-block); every third user is skipped by
    ``test_items`` (-1).  This is exactly the shape that broke the batched
    stream's reshape-based gather.
    """
    num_users, num_items = 11, 9
    interactions = [(1, item) for item in range(num_items)]
    rng = np.random.default_rng(23)
    for user in range(num_users):
        if user == 1:
            continue
        for item in rng.choice(num_items, size=3, replace=False):
            interactions.append((user, int(item)))
    return InteractionDataset(num_users, num_items, interactions, name="edge")


def _edge_test_items(dataset: InteractionDataset) -> np.ndarray:
    rng = np.random.default_rng(29)
    items = rng.integers(0, dataset.num_items, size=dataset.num_users)
    items[::3] = -1
    items[1] = 0  # the saturated user still carries a test item
    return items.astype(np.int64)


class TestOneScoringPassPerBlock:
    """``evaluate_snapshot`` scores each canonical block exactly once."""

    MODES = pytest.mark.parametrize(
        "num_negatives, tests, targets",
        [(5, True, True), (5, True, False), (None, True, True), (None, False, True)],
        ids=["sampled-with-targets", "sampled-only", "full-rank-with-targets", "targets-only"],
    )

    @staticmethod
    def _kwargs(dataset, num_negatives, tests, targets):
        return dict(
            test_items=_edge_test_items(dataset) if tests else None,
            target_items=np.array([0, 4], dtype=np.int64) if targets else None,
            num_negatives=num_negatives,
            block_size=4,
        )

    @MODES
    def test_one_score_block_call_per_canonical_block(self, num_negatives, tests, targets):
        dataset = _edge_dataset()
        model = _source("mf", dataset, seed=0)
        calls: list[tuple[int, int]] = []

        def counting(users):
            calls.append((int(users[0]), int(users[-1]) + 1))
            return model.score_block(users)

        kwargs = self._kwargs(dataset, num_negatives, tests, targets)
        result = evaluate_snapshot(
            counting, dataset, rng=np.random.default_rng(3), **kwargs
        )
        assert calls == user_blocks(dataset.num_users, 4)
        reference = evaluate_loop(
            model, dataset, rng=np.random.default_rng(3), **kwargs
        )
        assert result == reference

    @pytest.mark.parametrize("surface", SURFACES)
    @MODES
    def test_every_surface_is_scored_once_per_block(
        self, monkeypatch, num_negatives, tests, targets, surface
    ):
        """Model objects reach evaluation through their own ``score_block``,
        and it too runs once per canonical block."""
        dataset = _edge_dataset()
        source = _source(surface, dataset, seed=0)
        kwargs = self._kwargs(dataset, num_negatives, tests, targets)
        reference = evaluate_loop(source, dataset, rng=np.random.default_rng(3), **kwargs)
        score_block = source if surface == "callback" else source.score_block
        calls: list[tuple[int, int]] = []

        def counting(users):
            calls.append((int(users[0]), int(users[-1]) + 1))
            return score_block(users)

        if surface == "callback":
            source = counting
        else:
            monkeypatch.setattr(source, "score_block", counting)
        result = evaluate_snapshot(source, dataset, rng=np.random.default_rng(3), **kwargs)
        assert calls == user_blocks(dataset.num_users, 4)
        assert result == reference


class TestScoringSurfaces:
    """Library vs reference on a mixed edge block, per scoring surface."""

    @pytest.mark.parametrize("surface", SURFACES)
    @pytest.mark.parametrize("num_negatives", [3, 19])
    def test_routes_agree(self, num_negatives, surface):
        dataset = _edge_dataset()
        _assert_identical(
            *_both_engines(
                dataset,
                _source(surface, dataset, seed=0),
                block_size=4,
                seed=31,
                test_items=_edge_test_items(dataset),
                target_items=np.array([0, 4], dtype=np.int64),
                num_negatives=num_negatives,
            )
        )

    @pytest.mark.parametrize("surface", SURFACES)
    def test_routes_agree_under_ties(self, surface):
        """Constant scores: every comparison ties, both routes rank alike."""
        dataset = _edge_dataset()
        loop_result, vectorized_result = _both_engines(
            dataset,
            _source(surface, dataset, seed=0, constant=True),
            block_size=4,
            seed=37,
            test_items=_edge_test_items(dataset),
            num_negatives=4,
        )
        _assert_identical(loop_result, vectorized_result)
        # All-ties ranks are 1: every evaluated user is a hit.
        assert vectorized_result.accuracy.hr_at_10 == 1.0

    @pytest.mark.parametrize("surface", SURFACES)
    def test_routes_agree_under_full_ranking(self, surface):
        dataset = _edge_dataset()
        _assert_identical(
            *_both_engines(
                dataset,
                _source(surface, dataset, seed=0),
                block_size=4,
                test_items=_edge_test_items(dataset),
                num_negatives=None,
            )
        )


class TestBatchedStreamRegression:
    """The mixed empty/full segment gather of the sampled stream."""

    @pytest.mark.parametrize("surface", SURFACES)
    def test_mixed_segments_mid_block(self, surface):
        """Saturated + invalid users mid-block: both routes agree, nothing raises."""
        dataset = _edge_dataset()
        test_items = _edge_test_items(dataset)
        loop_result, vectorized_result = _both_engines(
            dataset,
            _source(surface, dataset, seed=0),
            block_size=4,
            seed=41,
            test_items=test_items,
            num_negatives=5,
        )
        _assert_identical(loop_result, vectorized_result)
        # The saturated user ranks 1 by convention and still counts.
        assert vectorized_result.accuracy.num_evaluated_users == int(np.sum(test_items >= 0))

    def test_short_segment_raises(self, monkeypatch):
        """A drawer returning neither 0 nor num_negatives per user is a bug."""
        import repro.metrics.evaluation as evaluation_module

        dataset = _edge_dataset()
        model = _source("mf", dataset, seed=0)
        real = evaluation_module.draw_ranking_negatives_batched

        def truncating(generator, store, users, tests, num_negatives):
            values, offsets = real(generator, store, users, tests, num_negatives)
            if values.shape[0] > 0:
                values = values[:-1]
                offsets = np.minimum(offsets, values.shape[0])
            return values, offsets

        monkeypatch.setattr(
            evaluation_module, "draw_ranking_negatives_batched", truncating
        )
        with pytest.raises(ModelError):
            evaluate_snapshot(
                model,
                dataset,
                test_items=_edge_test_items(dataset),
                num_negatives=5,
                rng=np.random.default_rng(43),
                block_size=4,
            )


class TestTopKThresholdGuards:
    """_top_k_thresholds validates its cutoff precondition."""

    def test_k_equals_num_items(self):
        scores = np.arange(12, dtype=np.float64).reshape(3, 4)
        thresholds = _top_k_thresholds(scores.copy(), [4])
        np.testing.assert_array_equal(thresholds[4], scores.min(axis=1))

    def test_single_cutoff_of_one(self):
        scores = np.arange(12, dtype=np.float64).reshape(3, 4)
        thresholds = _top_k_thresholds(scores.copy(), [1])
        np.testing.assert_array_equal(thresholds[1], scores.max(axis=1))

    def test_descending_cutoffs(self):
        scores = np.random.default_rng(47).normal(size=(5, 8))
        thresholds = _top_k_thresholds(scores.copy(), [6, 3, 1])
        for kk in (6, 3, 1):
            expected = np.sort(scores, axis=1)[:, -kk]
            np.testing.assert_array_equal(thresholds[kk], expected)

    @pytest.mark.parametrize("cutoffs", [[0], [9], [-1], [3, 3], [2, 5], [5, 2, 2]])
    def test_invalid_cutoffs_raise(self, cutoffs):
        scores = np.zeros((2, 8))
        with pytest.raises(ModelError):
            _top_k_thresholds(scores, cutoffs)

    def test_empty_cutoffs_allowed(self):
        assert _top_k_thresholds(np.zeros((2, 4)), []) == {}


class TestLoopBlockValidation:
    """Each score block's shape is validated as it is produced."""

    @pytest.mark.parametrize(
        "evaluate", [evaluate_loop, evaluate_snapshot], ids=["oracle", "library"]
    )
    def test_wrong_width_block_names_offender(self, evaluate):
        dataset = _edge_dataset()
        model = _source("mf", dataset, seed=0)

        def bad_block(users):
            scores = model.score_block(users)
            if int(users[0]) >= 4:
                return scores[:, :-1]  # second block loses a column
            return scores

        with pytest.raises(ModelError, match=r"\[4, 8\)"):
            evaluate(
                bad_block,
                dataset,
                test_items=_edge_test_items(dataset),
                num_negatives=None,
                block_size=4,
            )
