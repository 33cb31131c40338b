"""Central server.

The server owns the shared parameter, the item feature matrix ``V``.  Each
round it collects the selected clients' gradients, aggregates them and
applies one SGD step (Eq. 7).  The server never sees any user's feature
vector or raw interactions.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FederationError
from repro.federated.aggregation import Aggregator, make_aggregator
from repro.federated.config import FederatedConfig
from repro.federated.updates import ClientUpdate, FactoredRoundUpdates, SparseRoundUpdates
from repro.rng import ensure_rng

__all__ = ["Server"]


class Server:
    """Central server of the federated recommender."""

    def __init__(
        self,
        num_items: int,
        config: FederatedConfig,
        rng: np.random.Generator | int | None = None,
        aggregator: Aggregator | None = None,
    ) -> None:
        config.validate()
        if num_items <= 0:
            raise FederationError("num_items must be positive")
        generator = ensure_rng(rng)
        self.config = config
        self.num_items = int(num_items)
        self.num_factors = int(config.num_factors)
        #: Shared item feature matrix ``V``.
        self.item_factors = generator.normal(
            0.0, config.init_scale, size=(num_items, config.num_factors)
        )
        self.aggregator = aggregator or make_aggregator(
            config.aggregator, **config.aggregator_options
        )
        #: Number of aggregation rounds applied so far (empty rounds included,
        #: so this is the single authoritative round counter of a simulation).
        self.rounds_applied = 0

    def apply_round(
        self,
        updates: "list[ClientUpdate] | SparseRoundUpdates | FactoredRoundUpdates",
    ) -> None:
        """Aggregate the round's updates and apply one SGD step (Eq. 7).

        Accepts a list of per-client updates (what rounds with faults and the
        per-client reference round produce), one CSR-style
        :class:`SparseRoundUpdates`, or one lazy :class:`FactoredRoundUpdates`
        (what the batched trainer produces).  A round with no uploads still
        counts towards :attr:`rounds_applied` — every selection of clients is
        a protocol round, whether or not anyone uploaded — but leaves the
        parameters untouched.
        """
        self.rounds_applied += 1
        if len(updates) == 0:
            return
        gradient = self.aggregator.aggregate(updates, self.num_items, self.num_factors)
        self.item_factors = self.item_factors - self.config.learning_rate * gradient

    def __repr__(self) -> str:
        return (
            f"Server(items={self.num_items}, factors={self.num_factors}, "
            f"aggregator={self.aggregator.name}, rounds={self.rounds_applied})"
        )
