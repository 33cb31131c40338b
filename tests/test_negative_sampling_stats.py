"""Statistical and contract tests for the stacked negative samplers.

The *training* draw claims an exact uniform draw without replacement from
the complement of the user's positives.  These tests check the
distributional claim (chi-square uniformity over the item catalog), the hard
constraints (positives never sampled, no duplicates, counts capped at the
complement size), and fixed-seed reproducibility, over empty / sparse /
dense user histories, for a user drawn alone and for the same user drawn as
one row of a stack next to other users (the round trainer's layout: one
shared stream, per-row constraints).

The sampler keeps each (user, item) pair's first draw through one stable
argsort of the item ids; a draw-identity test checks it against the
``np.unique`` deduplication it replaced (``tests/oracles/sampling.py``):
the same negatives, offsets and generator state on randomized inputs.

The *evaluation* side's ranking stream
(:func:`sample_ranking_negatives_batched`, drawn **with** replacement and
excluding each row's test item) gets the same treatment: uniformity over the
free items, positives/test-item never sampled, and per-seed reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.data.negative_sampling import (
    sample_ranking_negatives_batched,
    sample_uniform_negatives_batched,
)
from repro.exceptions import DataError

from oracles import sample_uniform_negatives_unique

NUM_ITEMS = 60

#: Named user histories the constraint tests sweep over.
HISTORIES: dict[str, np.ndarray] = {
    "empty": np.empty(0, dtype=np.int64),
    "sparse": np.array([3, 17, 41], dtype=np.int64),
    "dense": np.arange(NUM_ITEMS - 2, dtype=np.int64),  # only 2 free items
}


def _mask(positives: np.ndarray, num_items: int = NUM_ITEMS) -> np.ndarray:
    mask = np.zeros(num_items, dtype=bool)
    mask[positives] = True
    return mask


#: A user drawn alone, or as the middle row of a three-user stack.
LAYOUTS = ("alone", "stacked")

#: The stacked layout's neighbours: a sparse user and one holding every
#: other item, so the stack mixes acceptance rates around the user under test.
NEIGHBOURS = (
    np.array([1, 2, 50], dtype=np.int64),
    np.arange(0, NUM_ITEMS, 2, dtype=np.int64),
)


def _draw(
    rng: np.random.Generator, count: int, positives: np.ndarray, layout: str = "alone"
) -> np.ndarray:
    """One draw of ``count`` negatives for a single user in ``layout``."""
    if layout == "alone":
        rows, row = [positives], 0
    else:
        rows, row = [NEIGHBOURS[0], positives, NEIGHBOURS[1]], 1
    values, offsets = sample_uniform_negatives_batched(
        rng,
        NUM_ITEMS,
        np.full(len(rows), count, dtype=np.int64),
        np.stack([_mask(history) for history in rows]),
    )
    assert offsets.shape == (len(rows) + 1,)
    return values[offsets[row] : offsets[row + 1]]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("history", sorted(HISTORIES))
class TestSamplerConstraints:
    def test_positives_never_sampled(self, history, layout):
        positives = HISTORIES[history]
        rng = np.random.default_rng(3)
        for _ in range(50):
            negatives = _draw(rng, 5, positives, layout)
            assert not np.isin(negatives, positives).any()

    def test_no_duplicates_and_capped_counts(self, history, layout):
        positives = HISTORIES[history]
        free = NUM_ITEMS - positives.shape[0]
        negatives = _draw(np.random.default_rng(4), NUM_ITEMS, positives, layout)
        assert np.unique(negatives).shape[0] == negatives.shape[0]
        assert negatives.shape[0] == free

    def test_fixed_seed_reproducibility(self, history, layout):
        positives = HISTORIES[history]
        first = _draw(np.random.default_rng(5), 7, positives, layout)
        second = _draw(np.random.default_rng(5), 7, positives, layout)
        np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_chi_square_uniform_over_catalog(layout):
    """Sampled negatives are uniform over the non-positive catalog.

    2000 draws of 4 negatives each over 50 free items gives an expected count
    of 160 per item; the chi-square test must not reject uniformity at a
    significance level far below any plausible implementation bug.
    """
    positives = np.array([0, 7, 13, 21, 30, 44, 50, 55, 58, 59], dtype=np.int64)
    rng = np.random.default_rng(6)
    counts = np.zeros(NUM_ITEMS, dtype=np.int64)
    for _ in range(2000):
        counts[_draw(rng, 4, positives, layout)] += 1
    assert counts[positives].sum() == 0
    free = np.setdiff1d(np.arange(NUM_ITEMS), positives)
    _, p_value = stats.chisquare(counts[free])
    assert p_value > 1e-3, f"uniformity rejected (p={p_value:.2e})"


@pytest.mark.parametrize("layout", LAYOUTS)
def test_draw_means_match_the_complement(layout):
    """Per-user means of the sampled item ids match the complement's mean."""
    positives = HISTORIES["sparse"]
    free = np.setdiff1d(np.arange(NUM_ITEMS), positives)
    rng = np.random.default_rng(8)
    means = [float(_draw(rng, 10, positives, layout).mean()) for _ in range(500)]
    assert abs(np.mean(means) - free.mean()) < 1.0


class TestBatchedSpecifics:
    def test_batched_draws_whole_batch(self):
        rng = np.random.default_rng(9)
        masks = np.stack([_mask(h) for h in HISTORIES.values()])
        counts = np.array([4, NUM_ITEMS, 10], dtype=np.int64)
        values, offsets = sample_uniform_negatives_batched(rng, NUM_ITEMS, counts, masks)
        assert offsets.shape == (4,)
        for row, positives in enumerate(HISTORIES.values()):
            segment = values[offsets[row] : offsets[row + 1]]
            expected = min(int(counts[row]), NUM_ITEMS - positives.shape[0])
            assert segment.shape[0] == expected
            assert not np.isin(segment, positives).any()
            assert np.unique(segment).shape[0] == segment.shape[0]

    def test_batched_rejects_bad_shapes(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DataError):
            sample_uniform_negatives_batched(
                rng, NUM_ITEMS, np.array([1, 2]), np.zeros((1, NUM_ITEMS), dtype=bool)
            )
        with pytest.raises(DataError):
            sample_uniform_negatives_batched(
                rng, NUM_ITEMS, np.array([-1]), np.zeros((1, NUM_ITEMS), dtype=bool)
            )

    def test_batched_masks_not_mutated(self):
        rng = np.random.default_rng(11)
        masks = np.stack([_mask(HISTORIES["sparse"])])
        snapshot = masks.copy()
        sample_uniform_negatives_batched(rng, NUM_ITEMS, np.array([20]), masks)
        np.testing.assert_array_equal(masks, snapshot)

    @staticmethod
    def _dense_rows() -> np.ndarray:
        """Three rows with at least 90% of a 50-item catalog positive."""
        masks = np.ones((3, 50), dtype=bool)
        for row, free in enumerate([(2, 9, 23, 31, 47), (5, 17, 40, 44), (0, 28, 49)]):
            masks[row, list(free)] = False
        return masks

    def test_multi_round_draw_is_pinned(self):
        """A three-round draw, pinned to the exact arrays it has always given."""

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.rounds = rng, 0

            def integers(self, *args, **kwargs):
                self.rounds += 1
                return self.rng.integers(*args, **kwargs)

        rng = CountingRng(np.random.default_rng(3))
        values, offsets = sample_uniform_negatives_batched(
            rng, 50, np.array([3, 2, 3]), self._dense_rows()
        )
        assert rng.rounds == 3
        np.testing.assert_array_equal(values, [9, 31, 23, 44, 17, 0, 28, 49])
        np.testing.assert_array_equal(offsets, [0, 3, 5, 8])

    def test_read_only_masks_accepted(self):
        masks = self._dense_rows()
        read_only = masks.copy()
        read_only.setflags(write=False)
        for seed in range(8):
            drawn = sample_uniform_negatives_batched(
                np.random.default_rng(seed), 50, np.array([3, 2, 3]), read_only
            )
            expected = sample_uniform_negatives_batched(
                np.random.default_rng(seed), 50, np.array([3, 2, 3]), masks.copy()
            )
            np.testing.assert_array_equal(drawn[0], expected[0])
            np.testing.assert_array_equal(drawn[1], expected[1])
        np.testing.assert_array_equal(read_only, masks)

    def test_row_slice_accepted_column_strided_view_rejected(self):
        # Candidates are tested through one flat view of the masks: a row
        # slice gives it for free, a column-strided view only by copying the
        # masks whole, so it is refused.
        padded = np.vstack([np.zeros((1, 50), dtype=bool), self._dense_rows()])
        expected = sample_uniform_negatives_batched(
            np.random.default_rng(4), 50, np.array([3, 2, 3]), self._dense_rows()
        )
        drawn = sample_uniform_negatives_batched(
            np.random.default_rng(4), 50, np.array([3, 2, 3]), padded[1:]
        )
        np.testing.assert_array_equal(drawn[0], expected[0])
        strided = np.repeat(self._dense_rows(), 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous
        with pytest.raises(DataError, match="C-contiguous"):
            sample_uniform_negatives_batched(
                np.random.default_rng(4), 50, np.array([3, 2, 3]), strided
            )


class _CountingRng:
    """A generator that counts its ``integers`` calls (one per rejection round)."""

    def __init__(self, seed: int) -> None:
        self.generator = np.random.default_rng(seed)
        self.rounds = 0

    def integers(self, *args, **kwargs):
        self.rounds += 1
        return self.generator.integers(*args, **kwargs)


def _random_case(rng: np.random.Generator, num_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked masks and counts mixing empty, sparse and near-full rows.

    Counts include zeros and requests above a row's complement, so some
    quotas are capped; near-full rows need several rejection rounds.
    """
    num_rows = int(rng.integers(1, 9))
    masks = np.zeros((num_rows, num_items), dtype=bool)
    counts = np.zeros(num_rows, dtype=np.int64)
    for row in range(num_rows):
        kind = rng.integers(3)
        if kind == 1:
            degree = int(rng.integers(1, min(num_items, 60) + 1))
        elif kind == 2:
            degree = num_items - int(rng.integers(0, min(num_items, 12) + 1))
        else:
            degree = 0
        masks[row, rng.choice(num_items, size=degree, replace=False)] = True
        counts[row] = rng.choice([0, int(rng.integers(1, 60)), num_items])
    return masks, counts


@pytest.mark.parametrize("num_items", [7, 300, 1682, 70_000])
def test_first_occurrence_dedup_matches_unique_oracle(num_items):
    """Same negatives, offsets and generator state as the np.unique sampler.

    ``num_items`` covers the 8- and 16-bit radix sort keys and, at 70,000,
    the 32-bit ids numpy sorts without radix sort.
    """
    cases = np.random.default_rng(num_items)
    multi_round = 0
    for seed in range(12):
        masks, counts = _random_case(cases, num_items)
        library, oracle = _CountingRng(seed), _CountingRng(seed)
        drawn = sample_uniform_negatives_batched(library, num_items, counts, masks)
        expected = sample_uniform_negatives_unique(oracle, num_items, counts, masks)
        np.testing.assert_array_equal(drawn[0], expected[0])
        np.testing.assert_array_equal(drawn[1], expected[1])
        assert library.rounds == oracle.rounds
        assert library.generator.bit_generator.state == oracle.generator.bit_generator.state
        multi_round += library.rounds > 1
    assert multi_round > 0


class TestBatchedRankingStream:
    """The evaluation side's stacked with-replacement draw."""

    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        masks = np.stack([_mask(h) for h in HISTORIES.values()])
        excluded = np.array([5, 9, -1], dtype=np.int64)  # dense row: no exclusion
        return masks, excluded

    def test_positives_and_test_item_never_sampled(self):
        masks, excluded = self._masks()
        rng = np.random.default_rng(21)
        for _ in range(50):
            values, offsets = sample_ranking_negatives_batched(
                rng, NUM_ITEMS, np.full(3, 7, dtype=np.int64), masks, excluded
            )
            for row, positives in enumerate(HISTORIES.values()):
                segment = values[offsets[row] : offsets[row + 1]]
                assert not np.isin(segment, positives).any()
                assert not np.any(segment == excluded[row])

    def test_counts_with_replacement_and_saturated_rows(self):
        """Non-saturated rows get their full request (duplicates allowed);
        rows whose positives + test item cover the catalog get zero."""
        positives = np.arange(NUM_ITEMS - 1, dtype=np.int64)  # one free item
        masks = np.stack([_mask(positives), _mask(positives), _mask(HISTORIES["sparse"])])
        # Row 0's single free item is also its test item -> saturated.
        excluded = np.array([NUM_ITEMS - 1, -1, 17], dtype=np.int64)
        values, offsets = sample_ranking_negatives_batched(
            np.random.default_rng(22), NUM_ITEMS, np.full(3, 9, dtype=np.int64), masks, excluded
        )
        counts = np.diff(offsets)
        assert counts.tolist() == [0, 9, 9]
        # Row 1 has one free item: all nine draws are that item (replacement).
        np.testing.assert_array_equal(
            values[offsets[1] : offsets[2]], np.full(9, NUM_ITEMS - 1)
        )

    def test_fixed_seed_reproducibility(self):
        masks, excluded = self._masks()
        counts = np.array([7, 4, 11], dtype=np.int64)
        first = sample_ranking_negatives_batched(
            np.random.default_rng(23), NUM_ITEMS, counts, masks, excluded
        )
        second = sample_ranking_negatives_batched(
            np.random.default_rng(23), NUM_ITEMS, counts, masks, excluded
        )
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_chi_square_uniform_over_free_items(self):
        """Every accepted draw is uniform over the row's free items (the
        catalog minus positives minus the test item)."""
        positives = np.array([0, 7, 13, 21, 30, 44, 50, 55, 58, 59], dtype=np.int64)
        test_item = 33
        masks = _mask(positives)[None, :]
        rng = np.random.default_rng(24)
        counts = np.zeros(NUM_ITEMS, dtype=np.int64)
        for _ in range(2000):
            values, _ = sample_ranking_negatives_batched(
                rng, NUM_ITEMS, np.array([4]), masks, np.array([test_item])
            )
            counts[values] += 1
        assert counts[positives].sum() == 0
        assert counts[test_item] == 0
        free = np.setdiff1d(np.arange(NUM_ITEMS), np.append(positives, test_item))
        _, p_value = stats.chisquare(counts[free])
        assert p_value > 1e-3, f"uniformity rejected (p={p_value:.2e})"

    def test_zero_count_rows_consume_no_randomness(self):
        """Rows requesting nothing (skipped users) draw nothing: the stream
        realization of the remaining rows is unchanged."""
        masks, excluded = self._masks()
        with_skip = sample_ranking_negatives_batched(
            np.random.default_rng(25), NUM_ITEMS,
            np.array([6, 0, 6]), masks, excluded,
        )
        # Note: identical masks layout, the middle row simply requests 0.
        without = sample_ranking_negatives_batched(
            np.random.default_rng(25), NUM_ITEMS,
            np.array([6, 6], dtype=np.int64),
            masks[[0, 2]], excluded[[0, 2]],
        )
        np.testing.assert_array_equal(with_skip[0], without[0])

    def test_column_strided_masks_rejected(self):
        masks, excluded = self._masks()
        strided = np.repeat(masks, 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous
        with pytest.raises(DataError, match="C-contiguous"):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 1, 1]), strided, excluded
            )

    def test_rejects_bad_shapes(self):
        masks, excluded = self._masks()
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 2]), masks, excluded
            )
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([-1, 1, 1]), masks, excluded
            )
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 1, 1]), masks,
                np.array([0, NUM_ITEMS, 0]),
            )
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 1]), masks, excluded[:2]
            )
