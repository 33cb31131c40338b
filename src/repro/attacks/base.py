"""Attack framework.

An attack plugs into the federated simulation through three hooks:

* :meth:`Attack.setup` — called once before training with the attacker's
  knowledge (target items, the malicious clients it controls, the gradient
  constraints ``kappa`` and ``C``, ...),
* :meth:`Attack.on_round_start` — called at the start of every round in which
  at least one malicious client was selected, with the current shared
  parameters (this is when FedRecAttack approximates the user matrix and
  computes the round's poisoned gradients),
* :meth:`Attack.craft_update` — called once per selected malicious client to
  produce the gradients that client uploads.

Shilling-style baselines install fake interaction profiles at setup time and
train honestly on them; model-poisoning attacks construct the uploads
directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import DEFAULT_SAMPLER
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.federated.updates import ClientUpdate
from repro.models.neural import MLPScorer
from repro.rng import ensure_rng

__all__ = ["AttackContext", "Attack", "NoAttack", "ProfileInjectionAttack"]


@dataclass
class AttackContext:
    """Everything the simulation hands to an attack at setup time.

    Attributes
    ----------
    num_items, num_factors:
        Shapes of the shared item matrix.
    target_items:
        The attacker's target items ``V^tar``.
    malicious_client_ids:
        Ids of the clients the attacker controls.
    learning_rate:
        The system learning rate ``eta`` (assumed known to the attacker,
        Section III-C).
    clip_norm:
        The per-row L2-norm bound ``C`` on uploaded gradients.
    item_popularity:
        Per-item interaction counts.  This is side information that only the
        popularity-based baselines (Bandwagon, Popular, PipAttack) assume;
        FedRecAttack never reads it.
    full_train:
        The complete benign training data.  Only the full-knowledge
        data-poisoning baselines (P1, P2) read this, matching their original
        threat model; every federated attack must ignore it.
    rng:
        Attack-private randomness.  The simulation always passes the named
        ``"attack"`` stream; the fallback draws a fresh generator through
        :func:`repro.rng.ensure_rng` for ad-hoc use.
    engine:
        The computation engine the attack should use for its own hot loops,
        propagated from :attr:`repro.federated.config.FederatedConfig.engine`
        by the simulation.  ``"vectorized"`` selects the stacked-numpy
        attacker pipeline (user-matrix approximation and attack-loss
        gradients computed over all active users at once); ``"loop"`` keeps
        the per-user reference implementations.  Both consume identical
        random streams and produce matching results up to floating-point
        summation order.
    sampler:
        The negative-sampling engine the attack's internal BPR optimisations
        use, propagated from
        :attr:`repro.federated.config.FederatedConfig.sampler` by the
        simulation.  ``"batched"`` (default) draws every active user's
        negatives in one stacked rejection-sampling pass per epoch;
        ``"permutation"`` draws per user in loop order.  Either way the draws
        consume the attack RNG identically under both computation engines,
        so engine equivalence holds per sampler.
    """

    num_items: int
    num_factors: int
    target_items: np.ndarray
    malicious_client_ids: list[int]
    learning_rate: float
    clip_norm: float
    item_popularity: np.ndarray | None = None
    full_train: InteractionDataset | None = None
    rng: np.random.Generator = field(default_factory=lambda: ensure_rng(None))
    engine: str = "vectorized"
    sampler: str = DEFAULT_SAMPLER

    def __post_init__(self) -> None:
        self.target_items = np.unique(np.asarray(self.target_items, dtype=np.int64))
        if self.target_items.shape[0] == 0:
            raise AttackError("target_items must not be empty")
        if self.target_items.min() < 0 or self.target_items.max() >= self.num_items:
            raise AttackError("target item id out of range")
        if self.engine not in ("loop", "vectorized"):
            raise AttackError(f"engine must be 'loop' or 'vectorized', got {self.engine!r}")
        if self.sampler not in ("permutation", "batched"):
            raise AttackError(
                f"sampler must be 'permutation' or 'batched', got {self.sampler!r}"
            )


class Attack(ABC):
    """Base class of every attack strategy."""

    #: Human-readable attack name used in result tables.
    name: str = "attack"

    def __init__(self) -> None:
        self.context: AttackContext | None = None
        self.clients: dict[int, MaliciousClient] = {}

    def setup(self, context: AttackContext, clients: dict[int, MaliciousClient]) -> None:
        """Receive the attack context and the controlled malicious clients."""
        self.context = context
        self.clients = clients

    def on_round_start(
        self,
        round_index: int,
        item_factors: np.ndarray,
        scorer: MLPScorer | None,
        selected_malicious_ids: list[int],
    ) -> None:
        """Hook called before malicious clients of this round upload."""

    @abstractmethod
    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        scorer: MLPScorer | None,
        round_index: int,
    ) -> ClientUpdate | None:
        """Produce the upload of one selected malicious client (or ``None``)."""

    def _require_context(self) -> AttackContext:
        if self.context is None:
            raise AttackError(f"{type(self).__name__}.setup() must be called before use")
        return self.context


class NoAttack(Attack):
    """Placeholder attack that uploads nothing (the paper's "None" rows)."""

    name = "None"

    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        scorer: MLPScorer | None,
        round_index: int,
    ) -> ClientUpdate | None:
        return None


class ProfileInjectionAttack(Attack):
    """Base class for shilling-style attacks (Random / Bandwagon / Popular).

    Subclasses implement :meth:`select_filler_items`; each malicious client's
    fake profile is the target items plus ``floor(kappa / 2) - |V^tar|``
    filler items, so the resulting honest BPR upload touches about ``kappa``
    item rows (positives plus sampled negatives), as in Section V-A.
    """

    def __init__(self, kappa: int = 60) -> None:
        super().__init__()
        if kappa <= 0:
            raise AttackError("kappa must be positive")
        self.kappa = int(kappa)

    def setup(self, context: AttackContext, clients: dict[int, MaliciousClient]) -> None:
        super().setup(context, clients)
        num_fillers = max(0, self.kappa // 2 - context.target_items.shape[0])
        for client in clients.values():
            fillers = self.select_filler_items(num_fillers, context)
            profile = np.unique(np.concatenate([context.target_items, fillers]))
            client.set_profile(profile)

    @abstractmethod
    def select_filler_items(self, count: int, context: AttackContext) -> np.ndarray:
        """Choose the filler items of one malicious profile."""

    def craft_update(
        self,
        client: MaliciousClient,
        item_factors: np.ndarray,
        scorer: MLPScorer | None,
        round_index: int,
    ) -> ClientUpdate | None:
        return client.train_on_profile(item_factors, scorer)
