"""Server-side aggregation rules.

The paper's protocol simply sums the uploaded gradients and applies one SGD
step (Eq. 7).  The future-work section discusses byzantine-robust rules
(Krum, trimmed mean, median) as candidate defenses; those are implemented
here too so the defense extension experiments can evaluate FedRecAttack
against them.

Every aggregator accepts a plain ``list[ClientUpdate]``, the CSR-style
:class:`~repro.federated.updates.SparseRoundUpdates`, or the lazy
:class:`~repro.federated.updates.FactoredRoundUpdates` the batched round
trainer produces (a list is packed into the sparse form first,
so there is a single code path).  ``sum`` / ``mean`` / ``norm_bounding``
consume the round structure through its reduction methods — one scatter-add
(sparse) or one sparse-matrix product (factored), never a dense per-client
tensor and, for factored rounds, never a materialised gradient-row array.
The coordinate-wise robust rules (``trimmed_mean`` / ``median`` / ``krum``)
transparently convert a factored round to the CSR form and densify only over
the *union* of touched item rows: rows no client touched are zero for every
client, so the statistics computed on the union tensor equal the full dense
computation at a fraction of the memory.  All rules return a dense
``(num_items, k)`` item-gradient for the server's SGD step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.updates import (
    ClientUpdate,
    FactoredRoundUpdates,
    SparseRoundUpdates,
)

__all__ = [
    "Aggregator",
    "SumAggregator",
    "MeanAggregator",
    "TrimmedMeanAggregator",
    "MedianAggregator",
    "KrumAggregator",
    "NormBoundingAggregator",
    "make_aggregator",
]

RoundUpdates = list[ClientUpdate] | SparseRoundUpdates | FactoredRoundUpdates


def _as_round(
    updates: SparseRoundUpdates | FactoredRoundUpdates | Sequence[ClientUpdate],
    num_factors: int,
) -> SparseRoundUpdates | FactoredRoundUpdates:
    """Normalise an update list to a round structure (lazy forms pass through)."""
    if isinstance(updates, (SparseRoundUpdates, FactoredRoundUpdates)):
        return updates
    return SparseRoundUpdates.from_client_updates(updates, num_factors=num_factors)


def _as_csr(
    round_updates: SparseRoundUpdates | FactoredRoundUpdates,
) -> SparseRoundUpdates:
    """Materialise a (possibly factored) round into the CSR row form."""
    if isinstance(round_updates, FactoredRoundUpdates):
        return round_updates.materialize()
    return round_updates


class Aggregator(ABC):
    """Interface of a server-side aggregation rule."""

    name: str = "aggregator"

    @abstractmethod
    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        """Combine the round's updates into one dense ``(num_items, k)`` gradient."""


class SumAggregator(Aggregator):
    """Plain gradient sum — the rule of Eq. (7)."""

    name = "sum"

    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        return _as_round(updates, num_factors).sum_item_gradient(num_items, num_factors)


class MeanAggregator(Aggregator):
    """Average of the client gradients (FedAvg-style).

    The sum is divided by the number of participating clients.
    """

    name = "mean"

    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        round_updates = _as_round(updates, num_factors)
        count = max(round_updates.num_clients, 1)
        return round_updates.sum_item_gradient(num_items, num_factors) / count


class TrimmedMeanAggregator(Aggregator):
    """Coordinate-wise trimmed mean over the participating clients.

    For each coordinate the ``trim_ratio`` largest and smallest client values
    are dropped before averaging; the result is rescaled by the number of
    clients so its magnitude is comparable to the sum rule.
    """

    name = "trimmed_mean"

    def __init__(self, trim_ratio: float = 0.1) -> None:
        if not 0.0 <= trim_ratio < 0.5:
            raise ConfigurationError("trim_ratio must be in [0, 0.5)")
        self.trim_ratio = float(trim_ratio)

    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        round_updates = _as_csr(_as_round(updates, num_factors))
        num_clients = round_updates.num_clients
        if num_clients == 0:
            return np.zeros((num_items, num_factors))
        tensor, union = round_updates.dense_over_union()
        trim = int(np.floor(self.trim_ratio * num_clients))
        if trim > 0 and num_clients - 2 * trim > 0:
            ordered = np.sort(tensor, axis=0)
            mean = ordered[trim : num_clients - trim].mean(axis=0)
        else:
            mean = tensor.mean(axis=0)
        item_gradient = np.zeros((num_items, num_factors), dtype=np.float64)
        item_gradient[union] = mean * num_clients
        return item_gradient


class MedianAggregator(Aggregator):
    """Coordinate-wise median, rescaled by the number of clients."""

    name = "median"

    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        round_updates = _as_csr(_as_round(updates, num_factors))
        num_clients = round_updates.num_clients
        if num_clients == 0:
            return np.zeros((num_items, num_factors))
        tensor, union = round_updates.dense_over_union()
        item_gradient = np.zeros((num_items, num_factors), dtype=np.float64)
        item_gradient[union] = np.median(tensor, axis=0) * num_clients
        return item_gradient


class KrumAggregator(Aggregator):
    """Krum: select the update closest to its neighbours and scale it.

    ``num_malicious`` is the server's assumption about how many uploads per
    round may be malicious (the classical ``f`` of Krum).  The selected item
    gradient (mean of the ``multi_krum`` chosen updates) is rescaled by the
    number of participating clients so its magnitude stays comparable to the
    sum rule.
    """

    name = "krum"

    def __init__(self, num_malicious: int = 1, multi_krum: int = 1) -> None:
        if num_malicious < 0:
            raise ConfigurationError("num_malicious must be non-negative")
        if multi_krum < 1:
            raise ConfigurationError("multi_krum must be at least 1")
        self.num_malicious = int(num_malicious)
        self.multi_krum = int(multi_krum)

    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        round_updates = _as_csr(_as_round(updates, num_factors))
        num_clients = round_updates.num_clients
        if num_clients == 0:
            return np.zeros((num_items, num_factors))
        tensor, union = round_updates.dense_over_union()
        flattened = tensor.reshape(num_clients, -1)
        scores = self._krum_scores(flattened)
        selected = np.argsort(scores, kind="stable")[: self.multi_krum]
        item_gradient = np.zeros((num_items, num_factors), dtype=np.float64)
        item_gradient[union] = tensor[selected].mean(axis=0) * num_clients
        return item_gradient

    def _krum_scores(self, flattened: np.ndarray) -> np.ndarray:
        num_clients = flattened.shape[0]
        distances = np.zeros((num_clients, num_clients), dtype=np.float64)
        for i in range(num_clients):
            diffs = flattened - flattened[i]
            distances[i] = np.einsum("ij,ij->i", diffs, diffs)
        neighbours = max(1, num_clients - self.num_malicious - 2)
        neighbours = min(neighbours, num_clients - 1) if num_clients > 1 else 1
        scores = np.empty(num_clients, dtype=np.float64)
        for i in range(num_clients):
            others = np.delete(distances[i], i)
            others.sort()
            scores[i] = float(np.sum(others[:neighbours]))
        return scores


class NormBoundingAggregator(Aggregator):
    """Sum rule with per-row norm bounding applied to every upload first.

    Consumes the lazy factored form directly: a rank-1 row's norm is
    ``|c| * ||u||``, so the clip is a coefficient rescale and the sum stays a
    single sparse-matrix product.
    """

    name = "norm_bounding"

    def __init__(self, max_row_norm: float = 1.0) -> None:
        if max_row_norm <= 0:
            raise ConfigurationError("max_row_norm must be positive")
        self.max_row_norm = float(max_row_norm)

    def aggregate(
        self, updates: RoundUpdates, num_items: int, num_factors: int
    ) -> np.ndarray:
        return _as_round(updates, num_factors).clipped_sum_item_gradient(
            num_items, num_factors, self.max_row_norm
        )


_AGGREGATORS = {
    "sum": SumAggregator,
    "mean": MeanAggregator,
    "trimmed_mean": TrimmedMeanAggregator,
    "median": MedianAggregator,
    "krum": KrumAggregator,
    "norm_bounding": NormBoundingAggregator,
}


def make_aggregator(name: str, **options: Any) -> Aggregator:
    """Instantiate an aggregation rule by name."""
    key = name.lower()
    if key not in _AGGREGATORS:
        known = ", ".join(sorted(_AGGREGATORS))
        raise ConfigurationError(f"unknown aggregator {name!r}; known aggregators: {known}")
    try:
        return _AGGREGATORS[key](**options)
    except TypeError as error:
        raise ConfigurationError(f"invalid options for aggregator {name!r}: {error}") from error
