"""Learnable interaction function (a small MLP scorer).

The paper notes (Section III-A/IV) that when the recommender is deep-learning
based the interaction function ``Upsilon`` is learnable and its parameters
``Theta`` are shared with the server alongside ``V``.  The main experiments
use plain MF, but to demonstrate the claimed generality the library ships a
compact two-layer MLP scorer with hand-derived gradients.  It consumes the
concatenation ``[u_i, v_j]`` and outputs a scalar score.

The scorer is deliberately small (one hidden layer, ReLU) — it exists to
exercise the "shared Theta" code path of the federated protocol and the
attacks, not to chase accuracy records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.models.losses import segment_sum
from repro.rng import ensure_rng

__all__ = ["MLPScorer", "MLPScorerGradients", "MLPRecommender"]


@dataclass
class MLPScorerGradients:
    """Gradients of the scorer output with respect to its inputs and weights.

    Attributes
    ----------
    grad_user:
        ``d score / d u_i`` rows, shape ``(batch, k)``.
    grad_item:
        ``d score / d v_j`` rows, shape ``(batch, k)``.
    grad_params:
        Flat gradient with respect to the scorer parameters (``Theta``),
        summed over the batch and scaled by the upstream gradient.
    """

    grad_user: np.ndarray
    grad_item: np.ndarray
    grad_params: np.ndarray


class MLPScorer:
    """Two-layer MLP interaction function ``score = w2 . relu(W1 [u; v] + b1) + b2``."""

    def __init__(
        self,
        num_factors: int,
        hidden_units: int = 32,
        init_scale: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_factors <= 0 or hidden_units <= 0:
            raise ModelError("num_factors and hidden_units must be positive")
        generator = ensure_rng(rng)
        self.num_factors = int(num_factors)
        self.hidden_units = int(hidden_units)
        input_dim = 2 * num_factors
        self.w1 = generator.normal(0.0, init_scale, size=(hidden_units, input_dim))
        self.b1 = np.zeros(hidden_units, dtype=np.float64)
        self.w2 = generator.normal(0.0, init_scale, size=hidden_units)
        self.b2 = 0.0

    # ------------------------------------------------------------------ #
    # Parameter (Theta) flattening — what gets shared with the server
    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters in ``Theta``."""
        return self.w1.size + self.b1.size + self.w2.size + 1

    def get_parameters(self) -> np.ndarray:
        """Flatten ``Theta`` into a single vector (server representation)."""
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def set_parameters(self, flat: np.ndarray) -> None:
        """Load ``Theta`` from a flat vector."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_parameters,):
            raise ModelError(
                f"expected {self.num_parameters} parameters, got shape {flat.shape}"
            )
        w1_size = self.w1.size
        b1_size = self.b1.size
        w2_size = self.w2.size
        self.w1 = flat[:w1_size].reshape(self.w1.shape).copy()
        self.b1 = flat[w1_size : w1_size + b1_size].copy()
        self.w2 = flat[w1_size + b1_size : w1_size + b1_size + w2_size].copy()
        self.b2 = float(flat[-1])

    def copy(self) -> "MLPScorer":
        """Deep copy of the scorer."""
        clone = MLPScorer(self.num_factors, self.hidden_units, rng=0)
        clone.set_parameters(self.get_parameters())
        return clone

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def score(self, user_vectors: np.ndarray, item_vectors: np.ndarray) -> np.ndarray:
        """Scores for aligned batches of user and item vectors."""
        user_vectors, item_vectors = self._validate_batch(user_vectors, item_vectors)
        hidden = self._hidden(user_vectors, item_vectors)
        return hidden @ self.w2 + self.b2

    def score_block(
        self,
        user_vectors: np.ndarray,
        item_vectors: np.ndarray,
        max_chunk_elements: int = 1 << 21,
    ) -> np.ndarray:
        """Scores of every (user, item) combination, shape ``(B, N)``.

        The cross product of a ``(B, k)`` user block with the ``(N, k)`` item
        matrix — the scorer-path counterpart of
        :meth:`MatrixFactorizationModel.score_block`.  The first layer is
        split into its user and item halves (``W1 [u; v] = W1u u + W1v v``),
        so the two small projections are computed once each and broadcast,
        instead of materialising ``B * N`` concatenated input rows.  The
        ``(B, N, hidden)`` intermediate is processed in user chunks bounded
        by ``max_chunk_elements`` float64 elements to keep memory flat.
        """
        user_vectors = np.atleast_2d(np.asarray(user_vectors, dtype=np.float64))
        item_vectors = np.atleast_2d(np.asarray(item_vectors, dtype=np.float64))
        if user_vectors.shape[1] != self.num_factors or item_vectors.shape[1] != self.num_factors:
            raise ModelError(
                f"expected feature dimension {self.num_factors}, got user "
                f"{user_vectors.shape} and item {item_vectors.shape}"
            )
        user_pre = user_vectors @ self.w1[:, : self.num_factors].T
        item_pre = item_vectors @ self.w1[:, self.num_factors :].T + self.b1
        num_users = user_vectors.shape[0]
        num_items = item_vectors.shape[0]
        chunk = max(1, int(max_chunk_elements // max(1, num_items * self.hidden_units)))
        scores = np.empty((num_users, num_items), dtype=np.float64)
        for start in range(0, num_users, chunk):
            stop = min(num_users, start + chunk)
            hidden = np.maximum(user_pre[start:stop, None, :] + item_pre[None, :, :], 0.0)
            scores[start:stop] = hidden @ self.w2 + self.b2
        return scores

    def score_and_gradients(
        self,
        user_vectors: np.ndarray,
        item_vectors: np.ndarray,
        upstream: np.ndarray | None = None,
    ) -> tuple[np.ndarray, MLPScorerGradients]:
        """Scores plus gradients with respect to inputs and parameters.

        ``upstream`` is ``d loss / d score`` per batch element (defaults to
        ones, i.e. the Jacobian of the raw scores).
        """
        user_vectors, item_vectors = self._validate_batch(user_vectors, item_vectors)
        inputs = np.concatenate([user_vectors, item_vectors], axis=1)
        pre_activation = inputs @ self.w1.T + self.b1
        hidden = np.maximum(pre_activation, 0.0)
        scores = hidden @ self.w2 + self.b2

        if upstream is None:
            upstream = np.ones(scores.shape[0], dtype=np.float64)
        upstream = np.asarray(upstream, dtype=np.float64)

        relu_mask = (pre_activation > 0.0).astype(np.float64)
        # d score / d hidden = w2 ; back through ReLU and W1.
        grad_hidden = upstream[:, None] * self.w2[None, :] * relu_mask
        grad_inputs = grad_hidden @ self.w1
        grad_user = grad_inputs[:, : self.num_factors]
        grad_item = grad_inputs[:, self.num_factors :]

        grad_w1 = grad_hidden.T @ inputs
        grad_b1 = grad_hidden.sum(axis=0)
        grad_w2 = hidden.T @ upstream
        grad_b2 = float(upstream.sum())
        grad_params = np.concatenate([grad_w1.ravel(), grad_b1, grad_w2, [grad_b2]])

        return scores, MLPScorerGradients(
            grad_user=grad_user, grad_item=grad_item, grad_params=grad_params
        )

    def score_and_segment_gradients(
        self,
        user_vectors: np.ndarray,
        item_vectors: np.ndarray,
        upstream: np.ndarray,
        segments: np.ndarray,
        num_segments: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched gradients with per-segment (per-client) ``Theta`` gradients.

        Like :meth:`score_and_gradients`, but instead of summing the parameter
        gradient over the whole batch it sums it per segment, so one call can
        serve a whole round of clients: ``segments[i]`` assigns batch row ``i``
        to a client and the returned parameter gradient has shape
        ``(num_segments, num_parameters)``.

        Returns ``(scores, grad_user, grad_item, grad_params_per_segment)``.
        """
        user_vectors, item_vectors = self._validate_batch(user_vectors, item_vectors)
        segments = np.asarray(segments, dtype=np.int64)
        upstream = np.asarray(upstream, dtype=np.float64)
        inputs = np.concatenate([user_vectors, item_vectors], axis=1)
        pre_activation = inputs @ self.w1.T + self.b1
        hidden = np.maximum(pre_activation, 0.0)
        scores = hidden @ self.w2 + self.b2

        relu_mask = (pre_activation > 0.0).astype(np.float64)
        grad_hidden = upstream[:, None] * self.w2[None, :] * relu_mask
        grad_inputs = grad_hidden @ self.w1
        grad_user = grad_inputs[:, : self.num_factors]
        grad_item = grad_inputs[:, self.num_factors :]

        if segments.shape[0] == 0:
            zero_params = np.zeros((num_segments, self.num_parameters), dtype=np.float64)
            return scores, grad_user, grad_item, zero_params

        # grad_w1 per segment is a small GEMM (grad_hidden.T @ inputs over the
        # segment's rows) — the same computation the per-client reference
        # performs, without ever materialising a (batch, hidden * input) outer
        # product for the whole round.
        order = np.argsort(segments, kind="stable")
        sorted_segments = segments[order]
        grad_hidden_sorted = grad_hidden[order]
        inputs_sorted = inputs[order]
        boundaries = np.empty(sorted_segments.shape[0], dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_segments[1:], sorted_segments[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        stops = np.append(starts[1:], sorted_segments.shape[0])
        grad_w1 = np.zeros((num_segments, self.w1.size), dtype=np.float64)
        for start, stop in zip(starts, stops):
            grad_w1[int(sorted_segments[start])] = (
                grad_hidden_sorted[start:stop].T @ inputs_sorted[start:stop]
            ).ravel()
        grad_b1 = segment_sum(grad_hidden, segments, num_segments)
        grad_w2 = segment_sum(hidden, segments, num_segments, weights=upstream)
        grad_b2 = np.bincount(segments, weights=upstream, minlength=num_segments)
        grad_params = np.concatenate([grad_w1, grad_b1, grad_w2, grad_b2[:, None]], axis=1)
        return scores, grad_user, grad_item, grad_params

    def _hidden(self, user_vectors: np.ndarray, item_vectors: np.ndarray) -> np.ndarray:
        inputs = np.concatenate([user_vectors, item_vectors], axis=1)
        return np.maximum(inputs @ self.w1.T + self.b1, 0.0)

    def _validate_batch(
        self, user_vectors: np.ndarray, item_vectors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        user_vectors = np.atleast_2d(np.asarray(user_vectors, dtype=np.float64))
        item_vectors = np.atleast_2d(np.asarray(item_vectors, dtype=np.float64))
        if user_vectors.shape != item_vectors.shape:
            raise ModelError(
                "user_vectors and item_vectors must have matching shapes, got "
                f"{user_vectors.shape} and {item_vectors.shape}"
            )
        if user_vectors.shape[1] != self.num_factors:
            raise ModelError(
                f"expected feature dimension {self.num_factors}, got {user_vectors.shape[1]}"
            )
        return user_vectors, item_vectors


class MLPRecommender:
    """Id-based scoring adapter binding factor matrices to an :class:`MLPScorer`.

    The scorer kernel itself is stateless with respect to users — it maps
    aligned (or crossed) batches of feature vectors to scores.  Serving and
    evaluation, however, consume the id-based
    :class:`~repro.models.base.ScorerProtocol`.  This adapter closes the gap:
    it holds the user/item factor matrices alongside the scorer and exposes
    ``score`` / ``score_block`` over user *ids*, so the MLP path serves
    through exactly the same protocol as plain MF.

    Deliberately **not** a :class:`~repro.models.base.Recommender` subclass:
    protocol conformance is structural, which is the point of the redesign —
    any object with the right surface serves, inheritance not required.

    The factor arrays are adopted as-is (no copy); every scoring path only
    reads them, so read-only snapshot views stay safe.
    """

    def __init__(
        self,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
        scorer: MLPScorer,
    ) -> None:
        user_factors = np.asarray(user_factors, dtype=np.float64)
        item_factors = np.asarray(item_factors, dtype=np.float64)
        if user_factors.ndim != 2 or item_factors.ndim != 2:
            raise ModelError(
                "factor matrices must be 2-D, got shapes "
                f"{user_factors.shape} and {item_factors.shape}"
            )
        if (
            user_factors.shape[1] != scorer.num_factors
            or item_factors.shape[1] != scorer.num_factors
        ):
            raise ModelError(
                f"factor matrices must have feature dimension {scorer.num_factors}, "
                f"got {user_factors.shape} and {item_factors.shape}"
            )
        self.user_factors = user_factors
        self.item_factors = item_factors
        self.scorer = scorer

    @property
    def n_users(self) -> int:
        """Number of users the adapter can score."""
        return int(self.user_factors.shape[0])

    @property
    def n_items(self) -> int:
        """Number of items every score row covers."""
        return int(self.item_factors.shape[0])

    def score(self, user: int, items: np.ndarray | None = None) -> np.ndarray:
        """Scores of ``items`` (all items if ``None``) for one stored user.

        Computed through the same split-first-layer block kernel as
        :meth:`score_block`, so ``score(u)`` is bit-identical to
        ``score_block([u])[0]`` — single lookups and blocked serving agree.
        """
        user = int(user)
        if user < 0 or user >= self.n_users:
            raise ModelError(f"user id {user} out of range [0, {self.n_users})")
        item_vectors = (
            self.item_factors
            if items is None
            else self.item_factors[np.asarray(items, dtype=np.int64)]
        )
        return self.scorer.score_block(self.user_factors[user][None, :], item_vectors)[0]

    def score_block(self, users: np.ndarray, /) -> np.ndarray:
        """Stacked ``(B, n_items)`` scores for a 1-D block of user ids."""
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ModelError(f"users must be a 1-D array of user ids, got shape {users.shape}")
        if users.size and (int(users.min()) < 0 or int(users.max()) >= self.n_users):
            raise ModelError(f"user ids out of range [0, {self.n_users})")
        return self.scorer.score_block(self.user_factors[users], self.item_factors)
