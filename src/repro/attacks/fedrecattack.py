"""FedRecAttack — the paper's model poisoning attack (Section IV).

Per round in which malicious clients participate, the attacker:

1. refreshes its approximation of the user matrix ``U`` from the public
   interactions and the current shared item matrix ``V`` (Eq. 19),
2. computes the gradient of the continuous exposure surrogate ``L_atk``
   (Eq. 13-16) with respect to ``V`` and scales it by the step size ``zeta``
   to obtain the round's poisoned gradient ``grad~V^t`` (Eq. 20),
3. lets every selected malicious client upload a constrained slice of that
   gradient: at most ``kappa`` non-zero rows (the target items plus rows
   sampled proportionally to their norms, Eq. 21-22), each row clipped to L2
   norm ``C`` (Eq. 23), and subtracts what was uploaded from the remaining
   poisoned gradient (Eq. 24) so the malicious cohort jointly covers it.

Neither step holds an (active users x catalog) array.  Step 1 updates every
active user at once from its public pairs alone (the per-pair approximation
epoch); step 2 (:func:`attack_loss_and_gradient_vectorized`) scores the
active users in blocks of :data:`ATTACK_LOSS_BLOCK_ROWS` through one reused
workspace.  Their per-user references live in ``tests/oracles`` and consume
identical attack-RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.attacks.approximation import UserMatrixApproximator
from repro.data.public import PublicInteractions
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.federated.privacy import clip_rows
from repro.federated.updates import ClientUpdate
from repro.models.losses import segment_sum

__all__ = [
    "ATTACK_LOSS_BLOCK_ROWS",
    "FedRecAttackConfig",
    "FedRecAttack",
    "attack_loss_and_gradient_vectorized",
    "g_function",
]


def g_function(x: np.ndarray) -> np.ndarray:
    """The margin transform ``g`` of Eq. (14): identity for x >= 0, exp(x)-1 below.

    Its derivative converges to 0 as the margin becomes very negative, which
    is what keeps the attack from pushing target scores far beyond the
    recommendation boundary — the paper credits this for the attack's
    negligible side effects (Section V-D).
    """
    x = np.asarray(x, dtype=np.float64)
    # The negative branch is only used where x < 0; clamping its input avoids
    # spurious overflow warnings from np.where evaluating both branches.
    return np.where(x >= 0.0, x, np.expm1(np.minimum(x, 0.0)))


def g_derivative(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`g_function`."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


@dataclass(frozen=True)
class FedRecAttackConfig:
    """Hyper-parameters of FedRecAttack (paper defaults in parentheses).

    Attributes
    ----------
    kappa:
        Maximum number of non-zero rows per malicious upload (60).
    step_size:
        The gradient step size ``zeta`` of Eq. 20 (1.0).
    clip_norm:
        Per-row L2 bound ``C``; ``None`` uses the system-wide bound from the
        attack context (1.0).
    top_k:
        Length of the recommendation list used inside the attack loss
        (``V^rec'_i`` is the top-``top_k`` of the approximated scores).
    margin_mode:
        ``"saturating"`` uses the paper's ``g`` of Eq. 14 (the gradient
        vanishes once a target clears the recommendation boundary, which is
        what keeps side effects negligible); ``"linear"`` is the ablation
        that keeps pushing targets indefinitely.
    approx_learning_rate, approx_l2:
        SGD hyper-parameters of the user-matrix approximation.
    approx_epochs_initial:
        Approximation epochs run the first time the attacker participates.
    approx_epochs_per_round:
        Warm-start approximation epochs run every subsequent round.
    """

    kappa: int = 60
    step_size: float = 1.0
    clip_norm: float | None = None
    top_k: int = 10
    margin_mode: str = "saturating"
    approx_learning_rate: float = 0.05
    approx_l2: float = 1e-4
    approx_epochs_initial: int = 20
    approx_epochs_per_round: int = 2

    def validate(self) -> None:
        """Raise :class:`AttackError` on invalid settings."""
        if self.kappa <= 0:
            raise AttackError("kappa must be positive")
        if self.step_size <= 0:
            raise AttackError("step_size must be positive")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise AttackError("clip_norm must be positive")
        if self.top_k <= 0:
            raise AttackError("top_k must be positive")
        if self.margin_mode not in ("saturating", "linear"):
            raise AttackError("margin_mode must be 'saturating' or 'linear'")
        if self.approx_epochs_initial < 0 or self.approx_epochs_per_round < 0:
            raise AttackError("approximation epoch counts must be non-negative")


#: Active users scored per block by :func:`attack_loss_and_gradient_vectorized`.
#: One (block, num_items) score workspace is reused across the blocks, so the
#: attack loss never holds an (active users x catalog) array.
ATTACK_LOSS_BLOCK_ROWS = 128
#: Items per candidate group in :func:`_candidate_items` (16 stripes of the
#: catalog, one item from each).
_GROUP_SIZE = 16


def attack_loss_and_gradient_vectorized(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    active_users: np.ndarray,
    public: PublicInteractions,
    target_items: np.ndarray,
    top_k: int,
    margin_mode: str = "saturating",
    public_items: Sequence[np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Value and item-matrix gradient of the attack loss ``L_atk`` (Eq. 15-16).

    For every user the attacker can model (``active_users``), the loss adds
    ``g(boundary - score_target)`` per target item the user has not publicly
    interacted with.  The user's recommendation list ``V^rec'_i`` holds the
    ``top_k`` highest-scored items outside the user's public interactions
    (``V-''_i``; all of them when fewer remain), and ``boundary`` is the score
    of the list's lowest-scored non-target item.  Equal scores resolve to the
    lowest item id, both for a place in the list and for the boundary.  A user
    whose list holds only target items has no boundary and adds nothing.

    ``margin_mode`` selects the margin transform: ``"saturating"`` is the
    paper's ``g`` (Eq. 14), ``"linear"`` is the ablation that keeps the raw
    margin (so targets are pushed far past the boundary).

    Users are scored in blocks of :data:`ATTACK_LOSS_BLOCK_ROWS` rows into one
    reused workspace.  Per block: one GEMM, the target scores read, and the
    public items masked to ``-inf`` in place.  One pass of group maxima over
    the block then narrows each row to the ``top_k`` groups that must hold
    its list (:func:`_candidate_items`), and the boundary is placed among
    those candidates' non-target scores by counting the targets listed above
    each (:func:`_list_boundaries`); the candidates carry their item ids, so
    the boundary item is the lowest id holding the boundary score.  Only the
    boundary items and scores and the (A, T) target scores outlive a block;
    the gradient then takes two scatter reductions (one GEMM onto the target
    rows, one segment sum onto the boundary rows).  Matches the per-user
    reference in ``tests/oracles`` up to floating-point summation order.
    Returns the scalar loss and a dense ``(num_items, k)`` gradient of the
    loss with respect to ``V``.

    ``public_items``, when given, is the list of each active user's public
    positives aligned with ``active_users`` (e.g.
    :attr:`UserMatrixApproximator.active_public_items`), saving the per-round
    re-fetch from ``public``.
    """
    num_items, num_factors = item_factors.shape
    active_users = np.asarray(active_users, dtype=np.int64)
    # Deduplicate like AttackContext does: the target-row scatter below writes
    # one row per distinct target, so duplicated ids would otherwise drop
    # contributions the per-user reference accumulates.
    target_items = np.unique(np.asarray(target_items, dtype=np.int64))
    num_active = active_users.shape[0]
    gradient = np.zeros((num_items, num_factors), dtype=np.float64)
    if num_active == 0:
        return 0.0, gradient

    stacked = user_factors[active_users]  # (A, k)

    # Public interactions of the active users in CSR layout.
    publics = (
        public_items
        if public_items is not None
        else [public.positive_items(int(user)) for user in active_users]
    )
    counts = np.array([items.shape[0] for items in publics], dtype=np.int64)
    public_offsets = np.zeros(num_active + 1, dtype=np.int64)
    np.cumsum(counts, out=public_offsets[1:])
    public_rows = np.repeat(np.arange(num_active, dtype=np.int64), counts)
    public_cols = (
        np.concatenate(publics) if counts.sum() > 0 else np.empty(0, dtype=np.int64)
    )

    # Targets each user has publicly interacted with: never listed, never pushed.
    num_targets = target_items.shape[0]
    target_column = np.full(num_items, -1, dtype=np.int64)
    target_column[target_items] = np.arange(num_targets)
    publicly_seen = np.zeros((num_active, num_targets), dtype=bool)
    is_target_public = target_column[public_cols] >= 0
    publicly_seen[
        public_rows[is_target_public], target_column[public_cols[is_target_public]]
    ] = True

    target_scores = np.empty((num_active, num_targets), dtype=np.float64)
    boundary_items = np.zeros(num_active, dtype=np.int64)
    boundary_scores = np.zeros(num_active, dtype=np.float64)
    has_boundary = np.zeros(num_active, dtype=bool)
    is_target = target_column >= 0
    workspace = np.empty((min(ATTACK_LOSS_BLOCK_ROWS, num_active), num_items))
    for start in range(0, num_active, workspace.shape[0]):
        stop = min(start + workspace.shape[0], num_active)
        rows = slice(start, stop)
        block = workspace[: stop - start]
        public_span = slice(public_offsets[start], public_offsets[stop])

        np.matmul(stacked[rows], item_factors.T, out=block)
        target_scores[rows] = block[:, target_items]
        block[public_rows[public_span] - start, public_cols[public_span]] = -np.inf
        listed_targets = np.where(publicly_seen[rows], -np.inf, target_scores[rows])
        ids, unsure = _candidate_items(block, top_k)
        padding = ids >= num_items
        ids[padding] = 0
        # A flat gather out of the contiguous block (np.take_along_axis
        # builds a two-array fancy index and costs several times more).
        row_starts = np.arange(0, block.size, num_items)[:, None]
        candidates = np.take(block, ids + row_starts)
        candidates[padding | is_target[ids]] = -np.inf
        found, values, tied = _list_boundaries(candidates, listed_targets, top_k)
        items = ids[np.arange(ids.shape[0]), np.argmax(candidates == values[:, None], axis=1)]
        # Ties the values cannot order by item id: settle those rows one at a
        # time from the full row.
        for row in np.flatnonzero(unsure | tied):
            found[row], items[row] = _row_boundary(block[row], is_target, top_k)
            values[row] = block[row, items[row]]
        boundary_items[rows] = items
        boundary_scores[rows] = values
        has_boundary[rows] = found

    # Targets each user has not publicly interacted with (and only for users
    # that have a boundary to push them over).
    valid = ~publicly_seen & has_boundary[:, None]  # (A, T)

    margins = boundary_scores[:, None] - target_scores
    if margin_mode == "linear":
        total_loss = float(np.sum(margins, where=valid))
        derivatives = valid.astype(np.float64)
    else:
        total_loss = float(np.sum(g_function(margins), where=valid))
        derivatives = np.where(valid, g_derivative(margins), 0.0)

    # d L / d score_target = -g'(margin): one GEMM onto the target rows.
    gradient[target_items] = -(derivatives.T @ stacked)
    # d L / d score_boundary = +sum_t g'(margin): per-user row sums scattered
    # onto the boundary items (repeats accumulate; w = 0 rows contribute 0).
    weights = derivatives.sum(axis=1)
    gradient += segment_sum(stacked, boundary_items, num_items, weights=weights)

    return total_loss, gradient


def _candidate_items(block: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Item ids that hold each row's ``top_k`` highest scores, in ascending order.

    The catalog is cut into stripes of ``width`` consecutive items; group
    ``j`` holds item ``j`` of every stripe, ``_GROUP_SIZE`` items in all.  A
    row's ``top_k`` highest-scored items all lie in its ``top_k`` groups with
    the highest maxima: at least ``top_k`` items score at least the lowest of
    those maxima, and any item above it sits in a group whose maximum is
    above it too.  Ids past the catalog pad the last stripe and are returned
    as they are, for the caller to mask.

    Returns ``(ids, unsure)``: ``unsure`` marks rows where another group ties
    the lowest kept maximum, so which tied item is listed depends on ids the
    groups did not keep.
    """
    num_rows, num_items = block.shape
    width = -(-num_items // _GROUP_SIZE)
    maxima = block[:, :width].copy()
    for low in range(width, num_items, width):
        span = min(width, num_items - low)
        np.maximum(maxima[:, :span], block[:, low : low + span], out=maxima[:, :span])
    if top_k >= width:
        groups = np.broadcast_to(np.arange(width), (num_rows, width))
        unsure = np.zeros(num_rows, dtype=bool)
    else:
        groups = np.argpartition(maxima, width - top_k, axis=1)[:, width - top_k :]
        # The partition's pivot is the lowest kept maximum.
        floor = maxima[np.arange(num_rows), groups[:, 0]]
        ties = np.count_nonzero(maxima >= floor[:, None], axis=1) > top_k
        unsure = ties & (floor > -np.inf)
        groups.sort(axis=1)
    stripes = np.arange(0, num_items, width)
    ids = (stripes[None, :, None] + groups[:, None, :]).reshape(num_rows, -1)
    return ids, unsure


def _list_boundaries(
    candidates: np.ndarray, listed_targets: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary score of each row's recommendation list, from values alone.

    ``candidates`` holds each row's non-target candidate scores (public
    items, targets and padding at ``-inf``); ``listed_targets`` holds the
    rows' target scores, ``-inf`` where the user saw the target publicly.
    With the ``top_k`` highest candidate scores ``w_1 >= w_2 >= ...`` of a row,
    the ``j``-th candidate sits at list position ``j + #{targets scored above
    w_j}``, so the listed candidates are a prefix and the boundary is its last
    finite ``w_j``.

    Returns ``(found, values, tied)``: whether a row has a boundary, its score
    (NaN without one), and whether a target scores exactly like one of the
    row's finite ``w_j`` — there the list position depends on item ids, which
    the values do not carry.
    """
    num_rows, num_candidates = candidates.shape
    k = min(top_k, num_candidates)
    best = np.partition(candidates, num_candidates - k, axis=1)[:, num_candidates - k :]
    best = np.sort(best, axis=1)[:, ::-1]  # (B, k) descending
    finite = best > -np.inf
    above = (listed_targets[:, None, :] > best[:, :, None]).sum(axis=2)
    listed = (np.arange(1, k + 1) + above <= top_k) & finite
    count = listed.sum(axis=1)
    found = count > 0
    values = np.where(found, best[np.arange(num_rows), np.maximum(count - 1, 0)], np.nan)
    ties = (listed_targets[:, None, :] == best[:, :, None]) & finite[:, :, None]
    tied = np.any(ties, axis=(1, 2))
    return found, values, tied


def _row_boundary(scores: np.ndarray, is_target: np.ndarray, top_k: int) -> tuple[bool, int]:
    """One row's boundary item by the definition: a stable sort of the scores.

    ``scores`` are the row's scores with public items at ``-inf``.
    """
    order = np.argsort(-scores, kind="stable")[:top_k]
    candidates = order[~is_target[order] & (scores[order] > -np.inf)]
    if candidates.shape[0] == 0:
        return False, 0
    lowest = scores[candidates].min()
    return True, int(candidates[scores[candidates] == lowest].min())


class FedRecAttack(Attack):
    """The FedRecAttack model poisoning attack."""

    name = "FedRecAttack"

    def __init__(
        self,
        public: PublicInteractions,
        config: FedRecAttackConfig | None = None,
    ) -> None:
        super().__init__()
        self.public = public
        self.config = config or FedRecAttackConfig()
        self.config.validate()
        self._approximator: UserMatrixApproximator | None = None
        self._poison_gradient: np.ndarray | None = None
        self._approximated_once = False
        self.last_attack_loss: float = 0.0

    # ------------------------------------------------------------------ #
    # Attack interface
    # ------------------------------------------------------------------ #
    def setup(self, context: AttackContext, clients: dict[int, MaliciousClient]) -> None:
        super().setup(context, clients)
        if self.public.dataset.num_items != context.num_items:
            raise AttackError("public interactions are defined over a different item universe")
        self._approximator = UserMatrixApproximator(
            self.public,
            num_factors=context.num_factors,
            learning_rate=self.config.approx_learning_rate,
            l2_reg=self.config.approx_l2,
            rng=context.rng,
        )

    def on_round_start(
        self,
        round_index: int,
        item_factors: np.ndarray,
        selected_malicious_ids: list[int],
    ) -> None:
        """Approximate ``U`` and compute this round's poisoned gradient."""
        context = self._require_context()
        approximator = self._require_approximator()

        epochs = (
            self.config.approx_epochs_initial
            if not self._approximated_once
            else self.config.approx_epochs_per_round
        )
        approximator.refresh(item_factors, epochs=epochs)
        self._approximated_once = True

        if approximator.active_users.shape[0] == 0:
            # xi = 0: no public interactions, no way to approximate U, no
            # meaningful poisoned gradient (the Table IX ablation).
            self.last_attack_loss = 0.0
            self._poison_gradient = np.zeros_like(item_factors)
            return

        loss, gradient = attack_loss_and_gradient_vectorized(
            approximator.user_factors,
            item_factors,
            approximator.active_users,
            self.public,
            context.target_items,
            self.config.top_k,
            margin_mode=self.config.margin_mode,
            public_items=approximator.active_public_items,
        )
        self.last_attack_loss = loss
        self._poison_gradient = self.config.step_size * gradient

    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        round_index: int,
    ) -> ClientUpdate | None:
        context = self._require_context()
        if self._poison_gradient is None:
            return None
        clip_norm = self.config.clip_norm or context.clip_norm

        if client.assigned_items is None:
            client.assigned_items = self._assign_items(client, context)
        assigned = client.assigned_items

        rows = self._poison_gradient[assigned]
        rows = clip_rows(rows, clip_norm)

        # Eq. 24: remove what this client uploads from the remaining poison.
        self._poison_gradient[assigned] -= rows

        return ClientUpdate(
            client_id=client.client_id,
            item_ids=assigned.copy(),
            item_gradients=rows,
            loss=0.0,
            is_malicious=True,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _assign_items(self, client: MaliciousClient, context: AttackContext) -> np.ndarray:
        """Pick the client's persistent item set ``V_i`` (Eq. 21-22)."""
        targets = context.target_items
        budget = max(0, self.config.kappa - targets.shape[0])
        if budget == 0 or self._poison_gradient is None:
            return targets.copy()

        norms = np.linalg.norm(self._poison_gradient, axis=1)
        norms = norms.copy()
        norms[targets] = 0.0
        total = norms.sum()
        candidates = np.flatnonzero(norms > 0.0)
        budget = min(budget, context.num_items - targets.shape[0])
        if total <= 0.0 or candidates.shape[0] == 0:
            pool = np.setdiff1d(np.arange(context.num_items), targets)
            extra = context.rng.choice(pool, size=min(budget, pool.shape[0]), replace=False)
        else:
            probabilities = norms / total
            take = min(budget, candidates.shape[0])
            extra = context.rng.choice(
                context.num_items, size=take, replace=False, p=probabilities
            )
        return np.unique(np.concatenate([targets, extra]))

    def _require_approximator(self) -> UserMatrixApproximator:
        if self._approximator is None:
            raise AttackError("FedRecAttack.setup() must be called before use")
        return self._approximator
