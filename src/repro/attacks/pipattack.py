"""PipAttack baseline (Zhang et al., WSDM 2022).

PipAttack poisons a federated recommender using *popularity* side
information: it pushes the embeddings of the target items towards the region
of embedding space occupied by popular items (a "popularity alignment" term)
and additionally boosts the malicious users' own scores on the targets (the
explicit-boosting term).  The original implementation trains a popularity
classifier on the item embeddings; here the alignment direction is the
centroid of the popular items' embeddings, which exercises the same
mechanism without the auxiliary network.

As in the paper's comparison (Table VIII), PipAttack achieves high exposure
but causes a clear drop in recommendation accuracy, because the alignment
term keeps dragging the target embeddings regardless of how well they already
rank — unlike FedRecAttack's saturating ``g`` margin loss.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.federated.privacy import clip_rows
from repro.federated.updates import ClientUpdate

__all__ = ["PipAttack"]


class PipAttack(Attack):
    """Popularity-alignment plus explicit-boosting model poisoning."""

    name = "PipAttack"

    def __init__(
        self,
        alignment_weight: float = 1.0,
        boost_weight: float = 1.0,
        popular_fraction: float = 0.05,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__()
        if alignment_weight < 0 or boost_weight < 0:
            raise AttackError("alignment_weight and boost_weight must be non-negative")
        if alignment_weight == 0 and boost_weight == 0:
            raise AttackError("at least one of alignment_weight / boost_weight must be positive")
        if not 0.0 < popular_fraction <= 1.0:
            raise AttackError("popular_fraction must be in (0, 1]")
        self.alignment_weight = float(alignment_weight)
        self.boost_weight = float(boost_weight)
        self.popular_fraction = float(popular_fraction)
        self.clip_norm = clip_norm
        self._popular_items: np.ndarray | None = None
        self._round_rows: dict[int, np.ndarray] = {}

    def setup(self, context: AttackContext, clients: dict[int, MaliciousClient]) -> None:
        super().setup(context, clients)
        if context.item_popularity is None:
            raise AttackError("PipAttack requires item popularity side information")
        popularity = np.asarray(context.item_popularity, dtype=np.int64)
        top_count = max(1, int(round(self.popular_fraction * context.num_items)))
        order = np.argsort(-popularity, kind="stable")
        self._popular_items = np.setdiff1d(order[:top_count], context.target_items)

    def on_round_start(
        self,
        round_index: int,
        item_factors: np.ndarray,
        selected_malicious_ids: list[int],
    ) -> None:
        """Craft every selected client's rows in one stacked computation.

        The alignment term is shared by all clients and the boost term is one
        row broadcast per client, so the whole round's uploads are a single
        ``(num_selected, num_targets, k)`` expression clipped row-wise in one
        pass.  :meth:`craft_update` then just hands each client its slice;
        a client crafted outside a round gets the numerically identical
        per-client computation there instead.
        """
        self._round_rows = {}
        if self._popular_items is None or self._popular_items.shape[0] == 0:
            return
        context = self._require_context()
        selected = [cid for cid in selected_malicious_ids if cid in self.clients]
        if not selected:
            return
        targets = context.target_items
        clip = self.clip_norm or context.clip_norm
        alignment = self._alignment_rows(item_factors, targets)
        boosts = np.stack([self.clients[cid].user_vector for cid in selected])
        rows = (
            self.alignment_weight * alignment[None, :, :]
            + self.boost_weight * (-boosts)[:, None, :]
        )
        flat = clip_rows(rows.reshape(-1, rows.shape[2]), clip)
        rows = flat.reshape(rows.shape)
        self._round_rows = {cid: rows[index] for index, cid in enumerate(selected)}

    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        round_index: int,
    ) -> ClientUpdate | None:
        context = self._require_context()
        if self._popular_items is None or self._popular_items.shape[0] == 0:
            return None
        targets = context.target_items
        rows = self._round_rows.pop(client.client_id, None)
        if rows is None:
            clip = self.clip_norm or context.clip_norm
            alignment = self._alignment_rows(item_factors, targets)
            # Explicit boosting towards the malicious user's own preference.
            boost = np.tile(-client.user_vector, (targets.shape[0], 1))
            rows = self.alignment_weight * alignment + self.boost_weight * boost
            rows = clip_rows(rows, clip)
        return ClientUpdate(
            client_id=client.client_id,
            item_ids=targets.copy(),
            item_gradients=rows,
            is_malicious=True,
        )

    def _alignment_rows(self, item_factors: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Popularity alignment: gradient of ``0.5 * ||v_t - centroid||^2`` is
        ``(v_t - centroid)``; the server's update moves ``v_t`` towards the
        centroid of the popular items' embeddings."""
        popular_centroid = item_factors[self._popular_items].mean(axis=0)
        return item_factors[targets] - popular_centroid[None, :]
