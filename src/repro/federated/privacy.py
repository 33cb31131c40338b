"""Differential-privacy mechanisms used by the clients.

Eq. (5) of the paper: before uploading, each selected client adds Gaussian
noise ``N(0, mu^2 C^2 I)`` to its gradients, where ``mu`` is the noise scale
and ``C`` the L2-norm bound of gradient rows.  The strict Gaussian-mechanism
variant also clips rows to norm ``C`` first; both behaviours are available.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FederationError
from repro.federated.updates import ClientUpdate, FactoredRoundUpdates, SparseRoundUpdates
from repro.rng import ensure_rng

__all__ = ["clip_rows", "GaussianNoiseMechanism"]


def clip_rows(rows: np.ndarray, max_norm: float) -> np.ndarray:
    """Clip every row of ``rows`` to L2 norm at most ``max_norm``.

    Rows already within the bound are returned unchanged (Eq. 23's clipping
    rule for the attacker uses the same operation).
    """
    if max_norm <= 0:
        raise FederationError(f"max_norm must be positive, got {max_norm}")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        return rows.copy()
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    scale = np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
    return rows * scale


class GaussianNoiseMechanism:
    """Adds the per-row Gaussian noise of Eq. (5) to client updates."""

    def __init__(
        self,
        noise_scale: float,
        clip_norm: float,
        clip_before_noise: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if noise_scale < 0:
            raise FederationError("noise_scale must be non-negative")
        if clip_norm <= 0:
            raise FederationError("clip_norm must be positive")
        self.noise_scale = float(noise_scale)
        self.clip_norm = float(clip_norm)
        self.clip_before_noise = bool(clip_before_noise)
        self._rng = ensure_rng(rng)

    @property
    def noise_stddev(self) -> float:
        """Standard deviation ``mu * C`` of the added noise."""
        return self.noise_scale * self.clip_norm

    def apply(self, update: ClientUpdate) -> ClientUpdate:
        """Return a privatised copy of ``update``.

        With ``noise_scale == 0`` and clipping disabled the update is
        returned unchanged (the paper's default configuration).
        """
        if self.noise_scale == 0.0 and not self.clip_before_noise:
            return update
        result = update.copy()
        gradients = result.item_gradients
        if self.clip_before_noise:
            gradients = clip_rows(gradients, self.clip_norm)
        if self.noise_scale > 0.0 and gradients.size > 0:
            gradients = gradients + self._rng.normal(0.0, self.noise_stddev, size=gradients.shape)
        result.item_gradients = gradients
        return result

    def apply_round(
        self, round_updates: "SparseRoundUpdates | FactoredRoundUpdates"
    ) -> "SparseRoundUpdates | FactoredRoundUpdates":
        """Privatise a whole round of sparse (or lazy factored) uploads.

        Clipping runs as one vectorised row operation over every client's
        gradient rows.  Noise, when enabled, is drawn per client in upload
        order so the random stream matches :meth:`apply` called on the same
        clients one by one — the batched round and its per-client reference
        in ``tests/oracles`` therefore add bit-identical noise.

        A :class:`FactoredRoundUpdates` stays factored through the clip-only
        configuration (a rank-1 row's norm bound is a coefficient rescale);
        additive noise destroys the rank-1 structure, so the noisy
        configurations materialise the rows first and then share the sparse
        path — including its per-client noise stream.
        """
        if self.noise_scale == 0.0 and not self.clip_before_noise:
            return round_updates
        if isinstance(round_updates, FactoredRoundUpdates):
            if self.noise_scale == 0.0 and round_updates.ridge == 0.0:
                return round_updates.clipped_rows(self.clip_norm)
            round_updates = round_updates.materialize()
        grad_rows = round_updates.grad_rows
        if self.clip_before_noise and grad_rows.size > 0:
            grad_rows = clip_rows(grad_rows, self.clip_norm)
        else:
            grad_rows = grad_rows.copy()
        if self.noise_scale > 0.0:
            offsets = round_updates.client_offsets
            for index in range(round_updates.num_clients):
                start, stop = int(offsets[index]), int(offsets[index + 1])
                if stop > start:
                    grad_rows[start:stop] += self._rng.normal(
                        0.0, self.noise_stddev, size=(stop - start, grad_rows.shape[1])
                    )
        return SparseRoundUpdates(
            client_ids=round_updates.client_ids,
            item_ids=round_updates.item_ids,
            grad_rows=grad_rows,
            client_offsets=round_updates.client_offsets,
            losses=round_updates.losses,
            malicious_mask=round_updates.malicious_mask,
        )
