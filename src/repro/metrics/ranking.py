"""Ranking utilities shared by the evaluation metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["cumulative_discounts"]


def cumulative_discounts(count: int) -> np.ndarray:
    """``cumulative_discounts(n)[i]`` = ideal DCG of ``i`` relevant items.

    Shared by the loop and the vectorized evaluation engines so both compute
    IDCG through the identical running sum (bitwise, not just numerically).
    """
    discounts = 1.0 / np.log2(np.arange(1, count + 1, dtype=np.float64) + 1.0)
    return np.concatenate([[0.0], np.cumsum(discounts)])
