"""Public-interaction sampling — the attacker's prior knowledge.

The paper assumes a small fraction ``xi`` of interactions is public (likes,
follows, comments) and accessible to the attacker (Section III-C).  For every
user a random subset of their training interactions is exposed so that
``|D'| <= xi * |D|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import DataError
from repro.rng import ensure_rng

__all__ = ["PublicInteractions", "sample_public_interactions"]


@dataclass(frozen=True)
class PublicInteractions:
    """The public subset ``D'`` of the training interactions.

    Attributes
    ----------
    dataset:
        The public interactions as an :class:`InteractionDataset` defined over
        the same user/item universe as the training data.
    xi:
        The requested public fraction.
    """

    dataset: InteractionDataset
    xi: float

    @property
    def num_interactions(self) -> int:
        """Size of ``D'``."""
        return self.dataset.num_interactions

    def positive_items(self, user: int) -> np.ndarray:
        """Public items of ``user`` (possibly empty)."""
        return self.dataset.positive_items(user)

    def users_with_public_interactions(self) -> np.ndarray:
        """Ids of users that have at least one public interaction."""
        degrees = self.dataset.user_degrees()
        return np.flatnonzero(degrees > 0)


def sample_public_interactions(
    train: InteractionDataset,
    xi: float,
    rng: np.random.Generator | int | None = None,
) -> PublicInteractions:
    """Expose a fraction ``xi`` of the training interactions to the attacker.

    Every training interaction is exposed independently with probability
    ``xi`` which keeps the expected public fraction exactly ``xi`` and, as in
    the paper, leaves many users with zero or one public interaction at small
    ``xi``.  ``xi = 0`` yields an empty public set (used by the Table IX
    ablation) and draws nothing.

    The draw runs over the training CSR in its own order (by user, then
    item), one uniform per interaction, and the kept entries stay sorted
    and distinct, so the public CSR is cut out of the training one directly.
    """
    if not 0.0 <= xi <= 1.0:
        raise DataError(f"xi must be in [0, 1], got {xi}")
    generator = ensure_rng(rng)
    store = train.interaction_store()
    num_interactions = store.indices.shape[0]
    if xi == 0.0 or num_interactions == 0:
        keep = np.zeros(num_interactions, dtype=bool)
    else:
        keep = generator.random(num_interactions) < xi
    # kept[p] counts the kept entries before CSR position p, so it maps the
    # training row pointer onto the public one.
    kept = np.zeros(num_interactions + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    public_dataset = InteractionDataset._from_csr(
        train.num_users,
        train.num_items,
        kept[store.indptr],
        store.indices[keep],
        f"{train.name}-public",
    )
    return PublicInteractions(dataset=public_dataset, xi=xi)
