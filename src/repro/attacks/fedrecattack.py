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

Steps 1 and 2 run as stacked numpy computations over all active users
(the batched approximation epoch and
:func:`attack_loss_and_gradient_vectorized`); their per-user references live
in ``tests/oracles`` and consume identical attack-RNG streams.
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
from repro.models.neural import MLPScorer

__all__ = [
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
    interacted with, where ``boundary`` is the lowest predicted score among
    the user's current top-K non-target recommendations (computed over the
    items outside the user's public interactions, ``V-''_i``).

    ``margin_mode`` selects the margin transform: ``"saturating"`` is the
    paper's ``g`` (Eq. 14), ``"linear"`` is the ablation that keeps the raw
    margin (so targets are pushed far past the boundary).

    Computes every active user's scores in one GEMM, the per-user top-K and
    recommendation boundary with row-wise ``argpartition`` / ``argmin``, and
    the gradient with two scatter reductions (one GEMM onto the target rows,
    one segment sum onto the boundary rows).  Matches the per-user reference
    in ``tests/oracles`` exactly up to floating-point summation order:
    ``argpartition`` and the first-minimum tie-break run the same algorithm
    per row as the reference's 1-D calls, so both select identical top-K
    sets and boundary items.  Returns the scalar loss and a dense
    ``(num_items, k)`` gradient of the loss with respect to ``V``.

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
    scores = stacked @ item_factors.T  # (A, N)

    # Public interactions of the active users in COO layout.
    publics = (
        public_items
        if public_items is not None
        else [public.positive_items(int(user)) for user in active_users]
    )
    counts = np.array([items.shape[0] for items in publics], dtype=np.int64)
    public_rows = np.repeat(np.arange(num_active, dtype=np.int64), counts)
    public_cols = (
        np.concatenate(publics) if counts.sum() > 0 else np.empty(0, dtype=np.int64)
    )

    # V^rec'_i: top-K over the items each user has not publicly interacted with.
    masked = scores.copy()
    masked[public_rows, public_cols] = -np.inf
    k = min(top_k, num_items)
    top = np.argpartition(-masked, k - 1, axis=1)[:, :k]  # (A, k)
    top_scores = np.take_along_axis(masked, top, axis=1)

    # Boundary: lowest-scored non-target item in the top-K.  Targets are
    # lifted to +inf so the row argmin lands on the first minimum among the
    # non-target entries — the same element the reference's filter-then-argmin
    # picks, since filtering preserves order.
    target_mask = np.zeros(num_items, dtype=bool)
    target_mask[target_items] = True
    non_target_scores = np.where(target_mask[top], np.inf, top_scores)
    boundary_positions = np.argmin(non_target_scores, axis=1)
    arange_active = np.arange(num_active)
    # A row of all +inf means every recommended slot is already a target item
    # (the reference's "nothing to push" case).
    has_boundary = non_target_scores[arange_active, boundary_positions] < np.inf
    boundary_items = top[arange_active, boundary_positions]
    boundary_scores = scores[arange_active, boundary_items]

    # Targets each user has not publicly interacted with (and only for users
    # that have a boundary to push them over).
    num_targets = target_items.shape[0]
    target_column = np.full(num_items, -1, dtype=np.int64)
    target_column[target_items] = np.arange(num_targets)
    publicly_seen = np.zeros((num_active, num_targets), dtype=bool)
    is_target_public = target_column[public_cols] >= 0
    publicly_seen[
        public_rows[is_target_public], target_column[public_cols[is_target_public]]
    ] = True
    valid = ~publicly_seen & has_boundary[:, None]  # (A, T)

    margins = boundary_scores[:, None] - scores[:, target_items]
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
        scorer: MLPScorer | None,
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
        scorer: MLPScorer | None,
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

        client.participation_count += 1
        return ClientUpdate(
            client_id=client.client_id,
            item_ids=assigned.copy(),
            item_gradients=rows,
            loss=0.0,
            is_malicious=True,
            metadata={"attack": self.name},
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
