"""Per-client reference for the batched federated round.

:class:`LoopRoundSimulation` overrides only
:meth:`repro.federated.simulation.FederatedSimulation._train_round`: it
trains the round's clients one at a time, in selection order, through
:meth:`repro.federated.client.Client._train_on_profile`, privatises each
benign upload on its own and hands the server a plain list of
:class:`~repro.federated.updates.ClientUpdate`.  The round's pairs come from
the trainer's own :meth:`~repro.federated.engine.BatchedRoundTrainer.draw_round_pairs`
(one stacked draw from the shared round stream), and the privacy mechanism
draws per client in upload order either way, so from identical seeds the
reference and the library train on identical pairs and noise and differ at
most by floating-point summation order.
"""

from __future__ import annotations

import numpy as np

from repro.federated.dynamics import RoundFaults
from repro.federated.simulation import FederatedSimulation
from repro.federated.updates import ClientUpdate

__all__ = ["LoopRoundSimulation"]


class LoopRoundSimulation(FederatedSimulation):
    """:class:`FederatedSimulation` with the one-client-at-a-time round."""

    def _train_round(
        self,
        batch: np.ndarray,
        round_index: int,
        selected_malicious: list[int],
        faults: RoundFaults | None = None,
    ) -> float:
        benign_ids = [int(cid) for cid in batch if int(cid) in self.benign_clients]
        pairs = dict(zip(benign_ids, self._trainer.draw_round_pairs(benign_ids)))
        updates: list[ClientUpdate] = []
        round_loss = 0.0
        for cid in batch:
            cid = int(cid)
            update: ClientUpdate | None
            if cid in self.benign_clients:
                positives, negatives = pairs[cid]
                update = self.benign_clients[cid]._train_on_profile(
                    positives, negatives, self.server.item_factors
                )
                round_loss += update.loss
                update = self.privacy.apply(update)
            elif self.attack is None:
                continue
            else:
                update = self.attack.craft_update(
                    self.malicious_clients[cid], self.server.item_factors, round_index
                )
            if update is not None:
                updates.append(update)

        updates = self._apply_dispositions(updates, faults, round_index)
        if self.update_observer is not None:
            self.update_observer(round_index, updates)
        self.server.apply_round(updates)
        return round_loss
