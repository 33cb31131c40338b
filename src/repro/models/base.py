"""Abstract recommender interface and the formal scoring protocol.

Every recommender in the library exposes the same small surface: its
dimensions and the scores of all items for a user feature vector.  The
federated simulator and the attacks only rely on this interface, which is
what makes the attack model-agnostic (the paper's Section III-A notes the
attack applies to any collaborative-filtering recommender).

:class:`ScorerProtocol` is the *structural* half of that contract: the
id-based scoring surface the evaluation engine and the serving layer consume.
It is a :class:`typing.Protocol`, not a base class — MF implements it by
inheritance from :class:`Recommender`, and any object with the same surface
qualifies by shape alone, subclass or not.  Consumers dispatch on the
protocol (one ``isinstance(source, ScorerProtocol)`` check is the sanctioned
idiom), never on concrete model classes — repro-lint R8 enforces exactly
that outside ``models/``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Recommender", "ScorerProtocol"]


@runtime_checkable
class ScorerProtocol(Protocol):
    """The id-based scoring surface served models must expose.

    Implementations score *stored* users by id — the caller never sees the
    feature vectors, which is what lets an immutable factor snapshot and a
    live MF model serve identically.  The contract:

    * ``n_users`` / ``n_items`` give the catalog dimensions,
    * ``score(user, items)`` returns one user's scores for the requested
      items (all items when ``None``),
    * ``score_block(users)`` returns the stacked ``(B, n_items)`` score
      matrix of a block of user ids — the primitive of the vectorized
      evaluation engine and of :class:`~repro.serving.RecommenderService`.
      For bit-reproducible rankings, implementations must compute a block's
      scores in one stacked pass (BLAS results are not row-stable across
      different GEMM shapes, so per-row recomputation would drift).

    The protocol is ``runtime_checkable``: ``isinstance(x, ScorerProtocol)``
    checks the attribute surface, which is all the structural dispatch in
    :func:`repro.metrics.evaluation.resolve_score_block` needs.
    ``score_block`` is the only block-scoring surface: the evaluation engine
    reads every metric, the sampled protocol's candidates included, from
    one ``score_block`` call per user block.
    """

    @property
    def n_users(self) -> int:
        """Number of users the scorer can score."""
        ...

    @property
    def n_items(self) -> int:
        """Number of items every score row covers."""
        ...

    def score(self, user: int, items: np.ndarray | None = None) -> np.ndarray:
        """Scores of ``items`` (all items if ``None``) for one stored user."""
        ...

    def score_block(self, users: np.ndarray, /) -> np.ndarray:
        """Stacked ``(B, n_items)`` scores for a 1-D block of user ids."""
        ...


class Recommender(ABC):
    """Interface shared by all recommender models."""

    @property
    @abstractmethod
    def num_users(self) -> int:
        """Number of users the model was built for."""

    @property
    @abstractmethod
    def num_items(self) -> int:
        """Number of items the model scores."""

    @property
    @abstractmethod
    def num_factors(self) -> int:
        """Dimensionality ``k`` of the feature vectors."""

    @abstractmethod
    def score_items(self, user_vector: np.ndarray, items: np.ndarray | None = None) -> np.ndarray:
        """Predicted rating scores of ``items`` (all items if ``None``)."""

