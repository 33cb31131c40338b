"""Per-user references for FedRecAttack's stacked computations.

* :func:`attack_loss_and_gradient` — the attack loss of Eq. 13-16, one user
  at a time, the reference of
  :func:`repro.attacks.fedrecattack.attack_loss_and_gradient_vectorized`;
* :func:`loop_refresh` — the user-matrix approximation of Eq. 19 updating one
  user at a time from the same epoch draws as
  :meth:`repro.attacks.approximation.UserMatrixApproximator.refresh`;
* :class:`LoopFedRecAttack` and :class:`LoopPipAttack` — the attacks running
  those references (PipAttack crafting each client on its own), for whole
  simulations against the library path.

Each reference consumes the attack RNG stream exactly like the library, so
results match up to floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.approximation import UserMatrixApproximator
from repro.attacks.fedrecattack import FedRecAttack, g_derivative, g_function
from repro.attacks.pipattack import PipAttack
from repro.data.public import PublicInteractions
from repro.models.losses import bpr_loss_and_gradients

__all__ = [
    "attack_loss_and_gradient",
    "loop_refresh",
    "LoopFedRecAttack",
    "LoopPipAttack",
]


def attack_loss_and_gradient(
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    active_users: np.ndarray,
    public: PublicInteractions,
    target_items: np.ndarray,
    top_k: int,
    margin_mode: str = "saturating",
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

    Returns the scalar loss and a dense ``(num_items, k)`` gradient of the
    loss with respect to ``V``.
    """
    num_items, num_factors = item_factors.shape
    gradient = np.zeros((num_items, num_factors), dtype=np.float64)
    target_items = np.asarray(target_items, dtype=np.int64)
    target_mask = np.zeros(num_items, dtype=bool)
    target_mask[target_items] = True
    total_loss = 0.0

    for user in active_users:
        user = int(user)
        user_vector = user_factors[user]
        scores = item_factors @ user_vector
        public_items = public.positive_items(user)

        # V^rec'_i: top-K over the items the user has not publicly interacted
        # with; the stable sort ranks equal scores by ascending item id.
        masked_scores = scores.copy()
        if public_items.shape[0] > 0:
            masked_scores[public_items] = -np.inf
        top = np.argsort(-masked_scores, kind="stable")[:top_k]
        # Public items fill the list only when fewer than top_k others remain;
        # they are never the boundary.
        top = top[np.isfinite(masked_scores[top])]

        non_target_top = top[~target_mask[top]]
        if non_target_top.shape[0] == 0:
            # Every recommended slot is already a target item: nothing to push.
            continue
        lowest = masked_scores[non_target_top].min()
        boundary_item = int(non_target_top[masked_scores[non_target_top] == lowest].min())
        boundary_score = float(scores[boundary_item])

        # Targets the user has not publicly interacted with.
        public_mask = np.zeros(num_items, dtype=bool)
        if public_items.shape[0] > 0:
            public_mask[public_items] = True
        user_targets = target_items[~public_mask[target_items]]
        if user_targets.shape[0] == 0:
            continue

        margins = boundary_score - scores[user_targets]
        if margin_mode == "linear":
            total_loss += float(np.sum(margins))
            derivatives = np.ones_like(margins)
        else:
            total_loss += float(np.sum(g_function(margins)))
            derivatives = g_derivative(margins)

        # d L / d score_target = -g'(margin); d L / d score_boundary = +sum g'.
        gradient[user_targets] += (-derivatives)[:, None] * user_vector[None, :]
        gradient[boundary_item] += float(np.sum(derivatives)) * user_vector

    return total_loss, gradient


def loop_refresh(
    approximator: UserMatrixApproximator, item_factors: np.ndarray, epochs: int = 1
) -> None:
    """``epochs`` SGD passes of Eq. (19), one active user at a time.

    Each epoch draws its negatives up front through the approximator's own
    stacked draw, so the attack stream is consumed exactly like
    :meth:`UserMatrixApproximator.refresh`.
    """
    if epochs <= 0 or approximator.active_users.shape[0] == 0:
        return
    for _ in range(epochs):
        negatives, offsets = approximator._draw_epoch_negatives()
        for row in range(approximator.active_users.shape[0]):
            _update_user(
                approximator, row, item_factors, negatives[offsets[row] : offsets[row + 1]]
            )


def _update_user(
    approximator: UserMatrixApproximator,
    row: int,
    item_factors: np.ndarray,
    negatives: np.ndarray,
) -> None:
    user = int(approximator.active_users[row])
    positives = approximator.active_public_items[row]
    if positives.shape[0] == 0:
        return
    if negatives.shape[0] < positives.shape[0]:
        positives = positives[: negatives.shape[0]]
    gradients = bpr_loss_and_gradients(
        approximator.user_factors[user],
        item_factors,
        positives,
        negatives,
        l2_reg=approximator.l2_reg,
    )
    approximator.user_factors[user] = (
        approximator.user_factors[user] - approximator.learning_rate * gradients.grad_user
    )


class LoopFedRecAttack(FedRecAttack):
    """FedRecAttack whose round computations run the per-user references."""

    def on_round_start(
        self,
        round_index: int,
        item_factors: np.ndarray,
        selected_malicious_ids: list[int],
    ) -> None:
        context = self._require_context()
        approximator = self._require_approximator()
        epochs = (
            self.config.approx_epochs_initial
            if not self._approximated_once
            else self.config.approx_epochs_per_round
        )
        loop_refresh(approximator, item_factors, epochs=epochs)
        self._approximated_once = True
        if approximator.active_users.shape[0] == 0:
            self.last_attack_loss = 0.0
            self._poison_gradient = np.zeros_like(item_factors)
            return
        loss, gradient = attack_loss_and_gradient(
            approximator.user_factors,
            item_factors,
            approximator.active_users,
            self.public,
            context.target_items,
            self.config.top_k,
            margin_mode=self.config.margin_mode,
        )
        self.last_attack_loss = loss
        self._poison_gradient = self.config.step_size * gradient


class LoopPipAttack(PipAttack):
    """PipAttack crafting every client on its own in :meth:`craft_update`."""

    def on_round_start(
        self,
        round_index: int,
        item_factors: np.ndarray,
        selected_malicious_ids: list[int],
    ) -> None:
        self._round_rows = {}
