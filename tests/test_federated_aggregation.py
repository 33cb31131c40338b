"""Tests for the server-side aggregation rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.federated.aggregation import (
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    NormBoundingAggregator,
    SumAggregator,
    TrimmedMeanAggregator,
    make_aggregator,
)
from repro.federated.updates import ClientUpdate, SparseRoundUpdates

NUM_ITEMS = 6
NUM_FACTORS = 2


def _update(client_id, ids, rows, malicious=False):
    return ClientUpdate(
        client_id=client_id,
        item_ids=np.asarray(ids, dtype=np.int64),
        item_gradients=np.asarray(rows, dtype=np.float64),
        is_malicious=malicious,
    )


@pytest.fixture()
def benign_updates():
    return [
        _update(0, [0, 1], [[1.0, 0.0], [0.0, 1.0]]),
        _update(1, [1, 2], [[0.0, 2.0], [1.0, 1.0]]),
        _update(2, [0], [[0.5, 0.5]]),
    ]


class TestSumAggregator:
    def test_matches_manual_sum(self, benign_updates):
        result = SumAggregator().aggregate(benign_updates, NUM_ITEMS, NUM_FACTORS)
        expected = np.zeros((NUM_ITEMS, NUM_FACTORS))
        for update in benign_updates:
            expected += update.to_dense(NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(result, expected)

    def test_empty_round(self):
        result = SumAggregator().aggregate([], NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(result, 0.0)


class TestMeanAggregator:
    def test_mean_is_sum_divided_by_count(self, benign_updates):
        total = SumAggregator().aggregate(benign_updates, NUM_ITEMS, NUM_FACTORS)
        mean = MeanAggregator().aggregate(benign_updates, NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(mean, total / 3)


class TestRobustAggregators:
    def test_median_suppresses_single_outlier(self):
        updates = [
            _update(0, [0], [[1.0, 1.0]]),
            _update(1, [0], [[1.1, 0.9]]),
            _update(2, [0], [[100.0, -100.0]], malicious=True),
        ]
        result = MedianAggregator().aggregate(updates, NUM_ITEMS, NUM_FACTORS)
        # Median per coordinate is ~1, rescaled by 3 clients.
        assert abs(result[0, 0]) < 5.0

    def test_trimmed_mean_suppresses_outlier(self):
        updates = [_update(i, [0], [[1.0, 1.0]]) for i in range(5)]
        updates.append(_update(9, [0], [[1000.0, 1000.0]], malicious=True))
        result = TrimmedMeanAggregator(trim_ratio=0.2).aggregate(updates, NUM_ITEMS, NUM_FACTORS)
        assert result[0, 0] < 50.0

    def test_trimmed_mean_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            TrimmedMeanAggregator(trim_ratio=0.6)

    def test_krum_selects_consistent_update(self):
        updates = [
            _update(0, [0], [[1.0, 1.0]]),
            _update(1, [0], [[1.05, 0.95]]),
            _update(2, [0], [[0.95, 1.05]]),
            _update(3, [0], [[500.0, -500.0]], malicious=True),
        ]
        result = KrumAggregator(num_malicious=1).aggregate(updates, NUM_ITEMS, NUM_FACTORS)
        # The selected gradient (rescaled by 4) must be near the benign cluster.
        assert abs(result[0, 0] - 4.0) < 1.0

    def test_krum_invalid_options(self):
        with pytest.raises(ConfigurationError):
            KrumAggregator(num_malicious=-1)
        with pytest.raises(ConfigurationError):
            KrumAggregator(multi_krum=0)

    def test_krum_empty_round(self):
        result = KrumAggregator().aggregate([], NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(result, 0.0)

    def test_norm_bounding_limits_each_row(self):
        updates = [
            _update(0, [0], [[30.0, 40.0]]),
            _update(1, [0], [[0.3, 0.4]]),
        ]
        result = NormBoundingAggregator(max_row_norm=1.0).aggregate(
            updates, NUM_ITEMS, NUM_FACTORS
        )
        # First row clipped to norm 1, second untouched: total norm <= 1.5.
        assert np.linalg.norm(result[0]) <= 1.5 + 1e-9

    def test_norm_bounding_invalid(self):
        with pytest.raises(ConfigurationError):
            NormBoundingAggregator(max_row_norm=0.0)

    def test_median_empty_round(self):
        result = MedianAggregator().aggregate([], NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(result, 0.0)


class TestSparseInputParity:
    """Every rule must give identical results for list and sparse inputs."""

    @pytest.mark.parametrize(
        "name, options",
        [
            ("sum", {}),
            ("mean", {}),
            ("trimmed_mean", {"trim_ratio": 0.2}),
            ("median", {}),
            ("krum", {"num_malicious": 1}),
            ("norm_bounding", {"max_row_norm": 1.0}),
        ],
    )
    def test_list_and_sparse_agree(self, name, options):
        rng = np.random.default_rng(11)
        updates = [
            ClientUpdate(
                client_id=i,
                item_ids=rng.choice(NUM_ITEMS, size=3, replace=False),
                item_gradients=rng.normal(size=(3, NUM_FACTORS)),
            )
            for i in range(6)
        ]
        packed = SparseRoundUpdates.from_client_updates(updates)
        aggregator = make_aggregator(name, **options)
        from_list = aggregator.aggregate(updates, NUM_ITEMS, NUM_FACTORS)
        from_sparse = aggregator.aggregate(packed, NUM_ITEMS, NUM_FACTORS)
        np.testing.assert_allclose(from_list, from_sparse)

    def test_robust_rules_densify_only_union(self):
        updates = [
            _update(0, [0, 2], [[1.0, 0.0], [0.0, 1.0]]),
            _update(1, [2], [[1.0, 1.0]]),
        ]
        packed = SparseRoundUpdates.from_client_updates(updates)
        tensor, union = packed.dense_over_union()
        assert tensor.shape == (2, 2, NUM_FACTORS)
        np.testing.assert_array_equal(union, [0, 2])


class TestReturnContract:
    """``aggregate`` hands the server the dense ``(num_items, k)`` gradient.

    ``Server.apply_round`` subtracts the result from ``V`` directly, so a
    wrongly shaped result (a scalar zero for an empty round, one selected
    row) would broadcast silently instead of failing.
    """

    @pytest.mark.parametrize(
        "name, options",
        [
            ("sum", {}),
            ("mean", {}),
            ("trimmed_mean", {"trim_ratio": 0.2}),
            ("median", {}),
            ("krum", {"num_malicious": 1}),
            ("norm_bounding", {"max_row_norm": 1.0}),
        ],
    )
    def test_every_input_form_gives_a_dense_item_gradient(
        self, benign_updates, name, options
    ):
        aggregator = make_aggregator(name, **options)
        packed = SparseRoundUpdates.from_client_updates(benign_updates)
        for updates in (benign_updates, packed, []):
            result = aggregator.aggregate(updates, NUM_ITEMS, NUM_FACTORS)
            assert isinstance(result, np.ndarray)
            assert result.shape == (NUM_ITEMS, NUM_FACTORS)
            assert result.dtype == np.float64


class TestFactory:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("sum", SumAggregator),
            ("mean", MeanAggregator),
            ("trimmed_mean", TrimmedMeanAggregator),
            ("median", MedianAggregator),
            ("krum", KrumAggregator),
            ("norm_bounding", NormBoundingAggregator),
        ],
    )
    def test_factory_builds_each_rule(self, name, cls):
        assert isinstance(make_aggregator(name), cls)

    def test_factory_passes_options(self):
        aggregator = make_aggregator("trimmed_mean", trim_ratio=0.3)
        assert aggregator.trim_ratio == pytest.approx(0.3)

    def test_factory_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_aggregator("does-not-exist")

    def test_factory_invalid_option(self):
        with pytest.raises(ConfigurationError):
            make_aggregator("sum", bogus=1)
