"""Explicit Boosting (EB) baseline.

EB is the ablated variant of PipAttack used as a baseline in Table VIII of
the paper: each malicious client simply pushes the predicted scores between
itself and the target items as high as possible.  With MF the gradient of
``-sum_t x_mt = -sum_t u_m . v_t`` with respect to ``v_t`` is ``-u_m``, so
the uploaded poisoned rows move every target embedding towards the malicious
user's own (random) feature vector, scaled by a boost factor.

Because the direction depends on the malicious users' arbitrary private
vectors, the effect on the global model is erratic — the paper observes that
EB's ER@5 is "numerically unstable" across malicious-user proportions, and
that it noticeably degrades HR@10.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.federated.privacy import clip_rows
from repro.federated.updates import ClientUpdate

__all__ = ["ExplicitBoostAttack"]


class ExplicitBoostAttack(Attack):
    """Push target-item scores for the malicious users themselves."""

    name = "EB"

    def __init__(self, boost_factor: float = 10.0, clip_norm: float | None = None) -> None:
        super().__init__()
        if boost_factor <= 0:
            raise AttackError("boost_factor must be positive")
        self.boost_factor = float(boost_factor)
        self.clip_norm = clip_norm

    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        round_index: int,
    ) -> ClientUpdate | None:
        context = self._require_context()
        targets = context.target_items
        clip = self.clip_norm or context.clip_norm
        # Gradient of -sum_t (u_m . v_t) with respect to v_t is -u_m; the
        # server applies V <- V - eta * grad, so uploading -u_m increases the
        # malicious user's own scores on the targets.
        rows = np.tile(-client.user_vector * self.boost_factor, (targets.shape[0], 1))
        rows = clip_rows(rows, clip)
        return ClientUpdate(
            client_id=client.client_id,
            item_ids=targets.copy(),
            item_gradients=rows,
            is_malicious=True,
        )
