"""Immutable, versioned exports of trained factors.

A :class:`FactorSnapshot` freezes one training state — the user matrix ``U``
and the item matrix ``V`` — behind read-only float64 arrays, so a
:class:`~repro.serving.service.RecommenderService` can cache scores computed
from it without ever worrying about the simulation mutating the factors
underneath the cache.  The ``version`` field (the
server's authoritative ``rounds_applied`` counter when exported from a
simulation run) is what lets the service detect and invalidate on snapshot swaps.

The snapshot exposes its scoring surface only through the formal
:class:`~repro.models.base.ScorerProtocol`: :meth:`FactorSnapshot.model`
adopts the frozen matrices as a matrix-factorization model, and callers see
only the protocol surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ServingError
from repro.models.base import ScorerProtocol
from repro.models.mf import MatrixFactorizationModel

if TYPE_CHECKING:
    from repro.federated.simulation import SimulationResult

__all__ = ["FactorSnapshot"]


def _frozen_copy(array: np.ndarray, name: str) -> np.ndarray:
    """A read-only float64 C-contiguous copy of a 2-D factor matrix."""
    copied = np.array(array, dtype=np.float64, order="C", copy=True)
    if copied.ndim != 2:
        raise ServingError(f"{name} must be a 2-D matrix, got shape {copied.shape}")
    if copied.shape[0] == 0 or copied.shape[1] == 0:
        raise ServingError(f"{name} must be non-empty, got shape {copied.shape}")
    copied.setflags(write=False)
    return copied


@dataclass(frozen=True, eq=False)
class FactorSnapshot:
    """One immutable export of trained factors.

    Attributes
    ----------
    user_factors:
        ``(num_users, num_factors)`` user matrix ``U`` (read-only copy).
    item_factors:
        ``(num_items, num_factors)`` item matrix ``V`` (read-only copy).
    version:
        Monotone identity of the training state — the server's
        ``rounds_applied`` counter when exported from a simulation.  Two
        snapshots of the same run with equal versions hold equal factors.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    version: int = 0
    _model: list[ScorerProtocol] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        user_factors = _frozen_copy(self.user_factors, "user_factors")
        item_factors = _frozen_copy(self.item_factors, "item_factors")
        if user_factors.shape[1] != item_factors.shape[1]:
            raise ServingError(
                "user_factors and item_factors must share the feature "
                f"dimension, got {user_factors.shape} and {item_factors.shape}"
            )
        if int(self.version) < 0:
            raise ServingError(f"version must be non-negative, got {self.version}")
        object.__setattr__(self, "user_factors", user_factors)
        object.__setattr__(self, "item_factors", item_factors)
        object.__setattr__(self, "version", int(self.version))

    @property
    def n_users(self) -> int:
        """Number of users covered by the snapshot."""
        return int(self.user_factors.shape[0])

    @property
    def n_items(self) -> int:
        """Number of items covered by the snapshot."""
        return int(self.item_factors.shape[0])

    @property
    def num_factors(self) -> int:
        """Feature-vector dimensionality ``k``."""
        return int(self.user_factors.shape[1])

    def model(self) -> ScorerProtocol:
        """The scoring model over these factors (cached, protocol-typed).

        The model adopts the frozen matrices directly
        (:meth:`~repro.models.mf.MatrixFactorizationModel.from_factors`);
        callers only see the structural
        :class:`~repro.models.base.ScorerProtocol` surface.
        """
        if not self._model:
            self._model.append(
                MatrixFactorizationModel.from_factors(self.user_factors, self.item_factors)
            )
        return self._model[0]

    @classmethod
    def from_model(
        cls, model: MatrixFactorizationModel, *, version: int = 0
    ) -> "FactorSnapshot":
        """Snapshot a standalone MF model's current factors."""
        return cls(
            user_factors=model.user_factors,
            item_factors=model.item_factors,
            version=version,
        )

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "FactorSnapshot":
        """Snapshot the final state of a finished simulation run."""
        return cls(
            user_factors=result.user_factors,
            item_factors=result.item_factors,
            version=result.rounds_applied,
        )
