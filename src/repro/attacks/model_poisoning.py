"""Generic federated-learning model-poisoning baselines (P3 and P4).

The paper compares FedRecAttack against two attacks originally designed for
federated *classification*:

* **P3** — Bhagoji et al., "Analyzing federated learning through an
  adversarial lens" (ICML 2019): the malicious client optimises an
  adversarial objective and *boosts* the resulting gradient so it survives
  aggregation with the benign updates.  Transplanted to FR, the adversarial
  objective is raising the predicted scores of the target items; the upload
  is that gradient scaled by an explicit boosting factor.

* **P4** — Baruch et al., "A little is enough" (NeurIPS 2019): the attacker
  estimates the per-coordinate mean and standard deviation of benign-looking
  gradients and perturbs within ``z`` standard deviations of the mean, so the
  poisoned update stays inside the statistical envelope that robust
  aggregators tolerate.  Transplanted to FR, the attacker estimates the
  envelope from honest BPR gradients computed on random profiles and shifts
  the target-item rows towards score-raising directions by ``z`` stds.

Both attacks ignore the recommendation structure (they were designed for a
different task), which is why the paper finds their exposure ratios
numerically unstable and their accuracy damage large.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.federated.privacy import clip_rows
from repro.federated.updates import ClientUpdate
from repro.models.losses import bpr_loss_and_gradients

__all__ = ["GradientBoostingAttack", "LittleIsEnoughAttack"]


class GradientBoostingAttack(Attack):
    """P3: adversarial-objective gradient with explicit boosting."""

    name = "P3"

    def __init__(self, boost_factor: float | None = None, clip_norm: float | None = None) -> None:
        super().__init__()
        if boost_factor is not None and boost_factor <= 0:
            raise AttackError("boost_factor must be positive")
        self.boost_factor = boost_factor
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
        # Boost factor defaults to (#benign per malicious) as in the original
        # attack, approximated by the inverse of the malicious fraction the
        # attacker controls.
        boost = self.boost_factor or max(1.0, 1.0 / max(len(context.malicious_client_ids), 1) * 100.0)

        # Adversarial objective: maximise sum_t u_m . v_t.  Its gradient with
        # respect to v_t is u_m; uploading -boost * u_m makes the server's
        # SGD step increase those scores.
        rows = np.tile(-client.user_vector, (targets.shape[0], 1)) * boost
        rows = clip_rows(rows, clip)
        return ClientUpdate(
            client_id=client.client_id,
            item_ids=targets.copy(),
            item_gradients=rows,
            is_malicious=True,
        )


class LittleIsEnoughAttack(Attack):
    """P4: perturb within ``z`` standard deviations of benign-looking gradients."""

    name = "P4"

    def __init__(
        self,
        z_max: float = 1.5,
        num_reference_profiles: int = 8,
        profile_size: int = 30,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__()
        if z_max <= 0:
            raise AttackError("z_max must be positive")
        if num_reference_profiles <= 1:
            raise AttackError("num_reference_profiles must be at least 2")
        if profile_size <= 0:
            raise AttackError("profile_size must be positive")
        self.z_max = float(z_max)
        self.num_reference_profiles = int(num_reference_profiles)
        self.profile_size = int(profile_size)
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

        mean, std = self._estimate_benign_envelope(client, item_factors, context)
        # Direction that raises the targets' scores for the malicious user.
        direction = -np.sign(client.user_vector)
        rows = np.tile(mean + self.z_max * std * direction, (targets.shape[0], 1))
        rows = clip_rows(rows, clip)
        return ClientUpdate(
            client_id=client.client_id,
            item_ids=targets.copy(),
            item_gradients=rows,
            is_malicious=True,
        )

    def _estimate_benign_envelope(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        context: AttackContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean/std of item-gradient rows from honest training on random profiles."""
        rows: list[np.ndarray] = []
        for _ in range(self.num_reference_profiles):
            profile = context.rng.choice(
                context.num_items, size=min(self.profile_size, context.num_items), replace=False
            )
            half = profile.shape[0] // 2
            positives, negatives = profile[:half], profile[half : 2 * half]
            if positives.shape[0] == 0:
                continue
            gradients = bpr_loss_and_gradients(
                client.user_vector, item_factors, positives, negatives
            )
            if gradients.grad_items.shape[0] > 0:
                rows.append(gradients.grad_items)
        if not rows:
            zero = np.zeros(context.num_factors)
            return zero, zero
        stacked = np.concatenate(rows, axis=0)
        return stacked.mean(axis=0), stacked.std(axis=0)
