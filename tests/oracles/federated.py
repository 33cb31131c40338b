"""Per-client reference for the batched federated round.

:class:`LoopRoundSimulation` overrides only
:meth:`repro.federated.simulation.FederatedSimulation._train_round`: it
trains the round's clients one at a time, in selection order, stepping each
benign client's row of the trainer's ``user_factors`` through the per-user
:func:`repro.models.losses.bpr_loss_and_gradients`, privatises each benign
upload on its own and hands the server a plain list of
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
from repro.models.losses import bpr_loss_and_gradients

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
        num_users = self.train.num_users
        benign_ids = batch[batch < num_users]
        offsets, positives, negatives = self._trainer.draw_round_pairs(benign_ids)
        rows = {int(cid): row for row, cid in enumerate(benign_ids)}
        user_factors = self._trainer.user_factors
        updates: list[ClientUpdate] = []
        round_loss = 0.0
        for cid in batch:
            cid = int(cid)
            update: ClientUpdate | None
            if cid < num_users:
                pairs = slice(offsets[rows[cid]], offsets[rows[cid] + 1])
                gradients = bpr_loss_and_gradients(
                    user_factors[cid],
                    self.server.item_factors,
                    positives[pairs],
                    negatives[pairs],
                    l2_reg=self.config.l2_reg,
                )
                user_factors[cid] = (
                    user_factors[cid] - self.config.learning_rate * gradients.grad_user
                )
                round_loss += gradients.loss
                update = self.privacy.apply(
                    ClientUpdate(
                        client_id=cid,
                        item_ids=gradients.item_ids,
                        item_gradients=gradients.grad_items,
                        loss=gradients.loss,
                    )
                )
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
