"""Sort-based reference for the batched BPR coefficient fold.

:func:`fold_by_key` sorts per-pair values by their (user, item) key with a
stable argsort and sums the values sharing a key.  It is the fold
:func:`repro.models.losses.bpr_coefficients_batched` ran before it listed the
keys from a bitmap and summed in the score buffer; both must give the same
keys and bit-identical folded values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fold_by_key"]


def fold_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` by ``keys`` and sum entries sharing a key.

    ``values`` may be 1-D (scalars per entry) or 2-D (one row per entry).
    Returns ``(unique_keys, folded_values)`` with the keys sorted ascending.
    When every key is distinct the fold is a pure permutation and no
    reduction runs.
    """
    if keys.shape[0] == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.empty(sorted_keys.shape[0], dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
    if bool(boundaries.all()):
        return sorted_keys, values[order]
    starts = np.flatnonzero(boundaries)
    folded = np.add.reduceat(values[order], starts, axis=0)
    return sorted_keys[starts], folded
