"""Bayesian Personalized Ranking loss and its analytic gradients.

The base recommender is trained by minimising, per user,

    L_rec_i = - sum_{(j, k) in V_i}  ln sigma(x_ij - x_ik)        (Eq. 4)

where ``x_ij = u_i . v_j`` for matrix factorization.  The gradients used by
both benign clients and the attacker's user-matrix approximation are

    dL/du_i = - sum  sigma(-x_ijk) (v_j - v_k)
    dL/dv_j = - sigma(-x_ijk) u_i          (positive item)
    dL/dv_k = + sigma(-x_ijk) u_i          (negative item)

These closed forms are what a PyTorch autograd implementation would compute;
tests cross-check them against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sparse

from repro.exceptions import ModelError

__all__ = [
    "sigmoid",
    "bpr_loss",
    "bpr_loss_and_gradients",
    "bpr_coefficients_batched",
    "BPRGradients",
    "BatchedBPRCoefficients",
    "segment_sum",
]


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic sigmoid."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(sigmoid(x))``."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, bit for bit, so
    # one log1p(exp) serves both branches.
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -tail, x - tail)


@dataclass(frozen=True)
class BPRGradients:
    """Gradients of the per-user BPR loss.

    Attributes
    ----------
    loss:
        Value of the loss ``L_rec_i``.
    grad_user:
        Gradient with respect to the user feature vector, shape ``(k,)``.
    item_ids:
        Ids of the items whose rows of ``V`` receive non-zero gradient
        (the union of the positive and negative items, deduplicated).
    grad_items:
        Gradient rows aligned with ``item_ids``, shape ``(len(item_ids), k)``.
    """

    loss: float
    grad_user: np.ndarray
    item_ids: np.ndarray
    grad_items: np.ndarray


def bpr_loss(
    user_vector: np.ndarray,
    item_factors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
) -> float:
    """Value of the per-user BPR loss for paired positives/negatives."""
    positives, negatives = _validate_pairs(positives, negatives)
    if positives.shape[0] == 0:
        return 0.0
    pos_scores = item_factors[positives] @ user_vector
    neg_scores = item_factors[negatives] @ user_vector
    return float(-np.sum(_log_sigmoid(pos_scores - neg_scores)))


def bpr_loss_and_gradients(
    user_vector: np.ndarray,
    item_factors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    l2_reg: float = 0.0,
) -> BPRGradients:
    """Loss and gradients of the per-user BPR objective.

    Parameters
    ----------
    user_vector:
        The user's private feature vector ``u_i``, shape ``(k,)``.
    item_factors:
        The shared item matrix ``V``, shape ``(num_items, k)``.
    positives, negatives:
        Aligned arrays of positive / negative item ids (the pairs of Eq. 4).
    l2_reg:
        Optional L2 regularisation applied to the user vector and the touched
        item rows.
    """
    positives, negatives = _validate_pairs(positives, negatives)
    k = user_vector.shape[0]
    if positives.shape[0] == 0:
        return BPRGradients(
            loss=0.0,
            grad_user=np.zeros(k, dtype=np.float64),
            item_ids=np.empty(0, dtype=np.int64),
            grad_items=np.empty((0, k), dtype=np.float64),
        )

    pos_vectors = item_factors[positives]
    neg_vectors = item_factors[negatives]
    margins = (pos_vectors - neg_vectors) @ user_vector
    loss = float(-np.sum(_log_sigmoid(margins)))
    # d/dx of -ln sigma(x) is -(1 - sigma(x)) = -sigma(-x)
    coefficients = -sigmoid(-margins)

    grad_user = (coefficients[:, None] * (pos_vectors - neg_vectors)).sum(axis=0)
    grad_pos = coefficients[:, None] * user_vector[None, :]
    grad_neg = -coefficients[:, None] * user_vector[None, :]

    item_ids = np.concatenate([positives, negatives])
    grad_rows = np.concatenate([grad_pos, grad_neg], axis=0)
    item_ids, grad_rows = _accumulate_rows(item_ids, grad_rows)

    if l2_reg > 0.0:
        loss += l2_reg * (float(user_vector @ user_vector) + float(np.sum(item_factors[item_ids] ** 2)))
        grad_user = grad_user + 2.0 * l2_reg * user_vector
        grad_rows = grad_rows + 2.0 * l2_reg * item_factors[item_ids]

    return BPRGradients(loss=loss, grad_user=grad_user, item_ids=item_ids, grad_items=grad_rows)


def segment_sum(
    rows: np.ndarray,
    segments: np.ndarray,
    num_segments: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Sum ``rows`` (shape ``(n, k)``) into per-segment totals ``(num_segments, k)``.

    When ``weights`` is given, row ``i`` contributes ``weights[i] * rows[i]``
    (folded into the reduction, no scaled temporary).  Backed by a sparse
    indicator-matrix product — by a wide margin the fastest scatter-add
    numpy/scipy offer for the row counts a training round produces.
    """
    num_rows, num_columns = rows.shape
    if num_rows == 0:
        return np.zeros((num_segments, num_columns), dtype=np.float64)
    data = (
        np.ones(num_rows, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    # Built column-major directly: column i of the (num_segments, n) indicator
    # holds row i's one entry, so no transpose copy is made.
    indicator = _sparse.csc_matrix(
        (
            data,
            np.asarray(segments, dtype=np.int64),
            np.arange(num_rows + 1, dtype=np.int64),
        ),
        shape=(num_segments, num_rows),
    )
    return np.asarray(indicator @ np.ascontiguousarray(rows, dtype=np.float64))


@dataclass(frozen=True)
class BatchedBPRCoefficients:
    """The *factored* form of a batch's BPR item gradients.

    The dense gradient row of user ``b`` for item ``j`` is the rank-1 product
    ``c_bj * u_b`` (plus ``2 * l2_reg * v_j`` when regularised), so the whole
    batch's item gradient is fully described by the folded per-(user, item)
    coefficients ``c_bj`` in CSR layout plus the small stacked user matrix —
    the ``(nnz, k)`` row array never has to exist.  This is what
    :class:`repro.federated.updates.FactoredRoundUpdates` stores and what the
    ``sum`` / ``mean`` aggregators consume as a single sparse-matrix product.

    Attributes
    ----------
    losses:
        Per-user loss values, shape ``(num_segments,)``.
    grad_users:
        Per-user gradients of the private vectors, shape ``(num_segments, k)``.
    item_ids:
        Concatenated per-user touched item ids, shape ``(nnz,)`` (sorted
        within each user's segment).
    coefficients:
        Folded per-(user, item) coefficients ``c_bj`` aligned with
        ``item_ids``, shape ``(nnz,)``.
    segment_offsets:
        Offsets delimiting each user's segment, shape ``(num_segments + 1,)``.
    """

    losses: np.ndarray
    grad_users: np.ndarray
    item_ids: np.ndarray
    coefficients: np.ndarray
    segment_offsets: np.ndarray


def bpr_coefficients_batched(
    user_vectors: np.ndarray,
    item_factors: np.ndarray,
    segment_ids: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    l2_reg: float = 0.0,
) -> BatchedBPRCoefficients:
    """Losses, user gradients and *factored* item gradients for many users.

    Semantically equivalent to calling :func:`bpr_loss_and_gradients` once
    per user (up to floating-point summation order), but computed with
    stacked numpy operations: one GEMM for all pairwise scores, one
    margin/coefficient computation over every ``(j, k)`` pair, one bitmap
    pass that folds the coefficients per (user, item) in key order, and one
    sparse-matrix product for the user-vector gradients.  The ``(nnz, k)`` gradient-row array is
    never materialised: the item gradient comes back as folded
    per-(user, item) coefficients (see :class:`BatchedBPRCoefficients`).
    With ``l2_reg > 0`` the implied row is ``c_bj * u_b + 2 * l2_reg * v_j``;
    the regularisation contributions to the losses and user gradients are
    included here.
    """
    user_vectors = np.asarray(user_vectors, dtype=np.float64)
    positives, negatives = _validate_pairs(positives, negatives)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.shape != positives.shape:
        raise ModelError(
            f"segment_ids must align with the pairs, got shapes {segment_ids.shape} "
            f"and {positives.shape}"
        )
    num_segments, k = user_vectors.shape
    num_items = item_factors.shape[0]
    if positives.shape[0] == 0:
        return BatchedBPRCoefficients(
            losses=np.zeros(num_segments, dtype=np.float64),
            grad_users=np.zeros((num_segments, k), dtype=np.float64),
            item_ids=np.empty(0, dtype=np.int64),
            coefficients=np.empty(0, dtype=np.float64),
            segment_offsets=np.zeros(num_segments + 1, dtype=np.int64),
        )

    # All pairwise scores in one small GEMM: S[b, j] = u_b . v_j.  Gathering
    # margins out of S touches far less memory than gathering the positive and
    # negative item vectors per pair.
    scores = user_vectors @ item_factors.T
    flat_scores = scores.ravel()
    score_base = segment_ids * num_items
    positive_keys = score_base + positives
    negative_keys = score_base + negatives
    margins = flat_scores[positive_keys] - flat_scores[negative_keys]
    losses = np.bincount(segment_ids, weights=-_log_sigmoid(margins), minlength=num_segments)
    coefficients = -sigmoid(-margins)

    # Fold the per-pair coefficients into per-(user, item) coefficients, keys
    # ascending: within each user the ids come out sorted, matching the
    # per-user np.unique of the reference implementation.  A (B, N) bitmap
    # lists the keys in order, and the coefficients are summed in the score
    # buffer, dead once the margins are read.  When every key is distinct
    # (always, for BPR pairs: positives are distinct and negatives are drawn
    # outside them) the fold is a pure permutation and plain assignment does
    # it; np.add.at, which also sums repeated keys, is about 8x slower than
    # the assignment on a benign round, so only repeats pay for it.  The sums
    # start from -0.0, the additive identity, so a key seen once keeps its
    # coefficient's bits.
    marked = np.zeros(flat_scores.shape[0], dtype=bool)
    marked[positive_keys] = True
    marked[negative_keys] = True
    unique_keys = np.flatnonzero(marked)
    if unique_keys.shape[0] == 2 * positives.shape[0]:
        flat_scores[positive_keys] = coefficients
        flat_scores[negative_keys] = -coefficients
    else:
        flat_scores[unique_keys] = -0.0
        np.add.at(flat_scores, positive_keys, coefficients)
        np.add.at(flat_scores, negative_keys, -coefficients)
    folded = flat_scores[unique_keys]
    item_ids = unique_keys % num_items
    owners = unique_keys // num_items
    segment_offsets = np.searchsorted(owners, np.arange(num_segments + 1))

    # grad_user_b = sum_j c_bj * v_j — one sparse-matrix product against V
    # using the CSR layout just built.
    coefficient_matrix = _sparse.csr_matrix(
        (folded, item_ids, segment_offsets), shape=(num_segments, num_items)
    )
    grad_users = np.asarray(coefficient_matrix @ item_factors)

    if l2_reg > 0.0:
        touched = item_factors[item_ids]
        active = np.bincount(segment_ids, minlength=num_segments) > 0
        grad_users[active] += 2.0 * l2_reg * user_vectors[active]
        user_sq = np.einsum("ij,ij->i", user_vectors, user_vectors)
        item_sq = np.bincount(
            owners, weights=np.einsum("ij,ij->i", touched, touched), minlength=num_segments
        )
        losses = losses + np.where(active, l2_reg * user_sq, 0.0) + l2_reg * item_sq

    return BatchedBPRCoefficients(
        losses=losses,
        grad_users=grad_users,
        item_ids=item_ids,
        coefficients=folded,
        segment_offsets=segment_offsets,
    )


def _validate_pairs(positives: np.ndarray, negatives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    positives = np.asarray(positives, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    if positives.shape != negatives.shape:
        raise ModelError(
            f"positives and negatives must be aligned, got shapes {positives.shape} and {negatives.shape}"
        )
    return positives, negatives


def _accumulate_rows(item_ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum gradient rows belonging to the same item id."""
    unique_ids, inverse = np.unique(item_ids, return_inverse=True)
    accumulated = np.zeros((unique_ids.shape[0], rows.shape[1]), dtype=np.float64)
    np.add.at(accumulated, inverse, rows)
    return unique_ids, accumulated
