"""The formal id-based scoring protocol (``ScorerProtocol``).

The serving redesign's contract: every scoring consumer (the evaluation
engine, the serving layer) dispatches *structurally* on
:class:`repro.models.base.ScorerProtocol`, never nominally on concrete model
classes.  This suite pins the three legs:

* **conformance** — plain MF implements the protocol by inheritance, a
  structural stand-in (:class:`oracles.DistanceScorer`, which subclasses
  nothing) by shape alone, and arbitrary objects/callables do *not* conform;
* **dispatch** — :func:`~repro.metrics.evaluation.resolve_score_block`
  normalises protocol objects to their bound ``score_block`` and passes bare
  callables through, and ``evaluate_snapshot`` produces bit-identical
  reports either way;
* **no vector fallback** — a :class:`~repro.models.base.Recommender`
  subclass that only scores user *vectors* gets no block surface and does
  not conform; block scoring is the id-based protocol or a plain callback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.metrics.evaluation import evaluate_snapshot, resolve_score_block
from repro.models.base import Recommender, ScorerProtocol
from repro.models.mf import MatrixFactorizationModel

from oracles import DistanceScorer


def _dataset(num_users: int = 20, num_items: int = 30, seed: int = 11) -> InteractionDataset:
    rng = np.random.default_rng(seed)
    interactions = []
    for user in range(num_users):
        count = int(rng.integers(2, 6))
        for item in rng.choice(num_items, size=count, replace=False):
            interactions.append((user, int(item)))
    return InteractionDataset(num_users, num_items, interactions, name="protocol")


def _mf(num_users: int = 20, num_items: int = 30, seed: int = 3) -> MatrixFactorizationModel:
    return MatrixFactorizationModel(num_users, num_items, num_factors=8, init_scale=1.0, rng=seed)


def _structural(num_users: int = 20, num_items: int = 30, seed: int = 5) -> DistanceScorer:
    rng = np.random.default_rng(seed)
    return DistanceScorer(rng.normal(size=(num_users, 8)), rng.normal(size=(num_items, 8)))


class _VectorOnlyScorer(Recommender):
    """A subclass that implements only vector scoring, no ``score_block``."""

    def __init__(self, item_factors: np.ndarray) -> None:
        self._item_factors = np.asarray(item_factors, dtype=np.float64)

    @property
    def num_users(self) -> int:
        return 0

    @property
    def num_items(self) -> int:
        return int(self._item_factors.shape[0])

    @property
    def num_factors(self) -> int:
        return int(self._item_factors.shape[1])

    def score_items(self, user_vector, items=None):
        vectors = self._item_factors if items is None else self._item_factors[items]
        return vectors @ np.asarray(user_vector, dtype=np.float64)


class TestConformance:
    def test_mf_is_a_scorer(self):
        assert isinstance(_mf(), ScorerProtocol)

    def test_structural_stand_in_is_a_scorer(self):
        assert isinstance(_structural(), ScorerProtocol)

    def test_structural_stand_in_is_not_a_recommender_subclass(self):
        # Structural conformance is the point: the stand-in serves through
        # the protocol without inheriting the ABC.
        assert not isinstance(_structural(), Recommender)

    def test_bare_callable_does_not_conform(self):
        assert not isinstance(lambda users: users, ScorerProtocol)

    def test_plain_object_does_not_conform(self):
        assert not isinstance(object(), ScorerProtocol)


class TestResolveScoreBlock:
    @pytest.mark.parametrize("build", [_mf, _structural], ids=["mf", "structural"])
    def test_protocol_object_resolves_to_bound_method(self, build):
        model = build()
        resolved = resolve_score_block(model)
        assert resolved.__self__ is model
        users = np.arange(5, dtype=np.int64)
        np.testing.assert_array_equal(resolved(users), model.score_block(users))

    def test_callable_passes_through_unchanged(self):
        def score_block(users: np.ndarray) -> np.ndarray:
            return np.zeros((users.shape[0], 4))

        assert resolve_score_block(score_block) is score_block

    @pytest.mark.parametrize("build", [_mf, _structural], ids=["mf", "structural"])
    def test_evaluate_snapshot_accepts_protocol_objects(self, build):
        """Passing the model and passing its callback are bit-identical."""
        dataset = _dataset()
        model = build()
        kwargs = dict(
            test_items=np.arange(dataset.num_users) % dataset.num_items,
            target_items=np.arange(4, dtype=np.int64),
            num_negatives=None,
        )
        via_protocol = evaluate_snapshot(model, dataset, **kwargs)
        via_callback = evaluate_snapshot(model.score_block, dataset, **kwargs)
        assert via_protocol.accuracy == via_callback.accuracy
        assert via_protocol.exposure == via_callback.exposure


class TestNoVectorFallback:
    def test_vector_only_subclass_is_not_a_scorer(self):
        scorer = _VectorOnlyScorer(np.eye(4))
        assert not hasattr(scorer, "score_block")
        assert not isinstance(scorer, ScorerProtocol)


class TestMatrixFactorizationProtocolSurface:
    def test_from_factors_adopts_arrays_without_copying(self):
        rng = np.random.default_rng(0)
        user_factors = rng.normal(size=(6, 4))
        item_factors = rng.normal(size=(9, 4))
        model = MatrixFactorizationModel.from_factors(user_factors, item_factors)
        assert model.user_factors is user_factors
        assert model.item_factors is item_factors
        assert (model.n_users, model.n_items, model.num_factors) == (6, 9, 4)

    def test_from_factors_rejects_bad_shapes(self):
        with pytest.raises(ModelError, match="2-D"):
            MatrixFactorizationModel.from_factors(np.zeros(4), np.zeros((3, 4)))
        with pytest.raises(ModelError, match="feature dimension"):
            MatrixFactorizationModel.from_factors(np.zeros((2, 4)), np.zeros((3, 5)))
        with pytest.raises(ModelError, match="non-empty"):
            MatrixFactorizationModel.from_factors(np.zeros((0, 4)), np.zeros((3, 4)))

    def test_score_block_matches_vector_idiom_bitwise(self):
        model = _mf()
        users = np.array([3, 0, 19, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            model.score_block(users), model.user_factors[users] @ model.item_factors.T
        )

    def test_score_block_validates_ids(self):
        model = _mf(num_users=5)
        with pytest.raises(ModelError, match="out of range"):
            model.score_block(np.array([0, 5], dtype=np.int64))
        with pytest.raises(ModelError, match="out of range"):
            model.score_block(np.array([-1], dtype=np.int64))
        with pytest.raises(ModelError, match="1-D"):
            model.score_block(np.zeros((2, 2), dtype=np.int64))

    def test_score_matches_score_block_row(self):
        model = _mf()
        np.testing.assert_array_equal(
            model.score(4), model.score_block(np.array([4], dtype=np.int64))[0]
        )


class TestStructuralStandInSurface:
    """The non-MF surface the evaluation suites sweep is itself consistent."""

    def test_scores_are_negative_squared_distances(self):
        scorer = _structural(num_users=4, num_items=6)
        block = scorer.score_block(np.arange(4, dtype=np.int64))
        for user in range(4):
            for item in range(6):
                diff = scorer.user_factors[user] - scorer.item_factors[item]
                assert block[user, item] == pytest.approx(-float(diff @ diff), abs=1e-12)
        # Not the dot product of the same factors.
        assert not np.allclose(block, scorer.user_factors @ scorer.item_factors.T)

    def test_score_matches_score_block_row(self):
        scorer = _structural()
        row = scorer.score_block(np.array([4], dtype=np.int64))[0]
        np.testing.assert_array_equal(scorer.score(4), row)
        items = np.array([7, 0, 7], dtype=np.int64)
        np.testing.assert_array_equal(scorer.score(4, items), row[items])

    def test_score_block_validates_ids(self):
        scorer = _structural(num_users=5)
        with pytest.raises(ModelError, match="out of range"):
            scorer.score_block(np.array([0, 5], dtype=np.int64))
        with pytest.raises(ModelError, match="out of range"):
            scorer.score_block(np.array([-1], dtype=np.int64))
        with pytest.raises(ModelError, match="1-D"):
            scorer.score_block(np.zeros((2, 2), dtype=np.int64))
