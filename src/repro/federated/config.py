"""Configuration of the federated training protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError
from repro.federated.switches import SWITCH_REGISTRY

__all__ = ["FederatedConfig"]


@dataclass(frozen=True)
class FederatedConfig:
    """Hyper-parameters of the federated recommender (paper defaults).

    Attributes
    ----------
    num_factors:
        Feature-vector dimensionality ``k`` (paper default 32).
    learning_rate:
        SGD learning rate ``eta`` (paper default 0.01).
    clients_per_round:
        Batch size ``|U'|`` of clients selected each round.
    num_epochs:
        Number of training epochs; each epoch shuffles all clients into
        rounds of ``clients_per_round`` so every client participates roughly
        once per epoch (paper default 200 epochs).
    noise_scale:
        Differential-privacy noise multiplier ``mu`` of Eq. (5); 0 disables
        noise.
    clip_norm:
        Per-row L2-norm bound ``C`` used both for the DP noise scale and for
        the attacker's upload constraint (paper default 1.0).
    clip_benign_gradients:
        Whether benign clients clip their item-gradient rows to ``clip_norm``
        before adding noise (the strict DP variant of Eq. 5).
    l2_reg:
        L2 regularisation of the BPR objective.
    init_scale:
        Standard deviation of the model initialisation.
    resample_negatives_each_epoch:
        Whether clients draw fresh negative samples each epoch (True matches
        the common implementation; False keeps the fixed ``V-_i'`` described
        in Section III-B).
    aggregator:
        Name of the server-side aggregation rule (``"sum"`` reproduces
        Eq. 7; robust alternatives are provided for the defense extension).
    aggregator_options:
        Extra keyword arguments passed to the aggregator factory.
    dropout_rate:
        Per-round probability that a sampled client *drops out*: it never
        trains and never reports, consuming no training/sampling/privacy
        streams (exactly as if it had not been sampled).  Drawn per client
        from the dedicated ``"fault-schedule"`` stream
        (:class:`~repro.federated.dynamics.FaultSchedule`); ``0.0`` (default)
        keeps every historical seed history byte-identical.
    crash_rate:
        Per-round probability that a sampled client *crashes mid-update*: it
        trains fully (streams consumed, local user vector stepped, update
        privatised) but the upload is lost and discarded.
    straggler_rate:
        Per-round probability that a sampled client *straggles*: it trains
        with the round but reports late, with the disposition decided by
        ``straggler_policy``.
    straggler_policy:
        What happens to straggler reports.  ``"wait"`` (default): the round
        waits for them, the update counts normally (the straggle is only an
        incident-log event).  ``"discard"``: the late update is dropped on
        the floor.  ``"stale-merge"``: the update — computed against the
        item matrix of its training round — is held back and merged in the
        round it arrives (one round later by default), a delayed-gradient
        realization change.
    min_reporters:
        Reporter quorum per round.  A round whose planned reporter count
        (after dropouts, crashes and non-``"wait"`` stragglers) falls below
        ``min(min_reporters, batch size)`` aborts *before* any training
        stream is consumed, logs a ``"quorum-abort"``
        :class:`~repro.federated.dynamics.RoundIncident` and redraws its
        fault schedule; repeated failure raises
        :class:`~repro.exceptions.FederationError`.  ``0`` (default)
        disables the quorum.  Aggregation and DP privatisation always run on
        the surviving reporter set.
    """

    num_factors: int = 32
    learning_rate: float = 0.01
    clients_per_round: int = 256
    num_epochs: int = 200
    noise_scale: float = 0.0
    clip_norm: float = 1.0
    clip_benign_gradients: bool = False
    l2_reg: float = 0.0
    init_scale: float = 0.01
    resample_negatives_each_epoch: bool = True
    aggregator: str = "sum"
    aggregator_options: dict[str, Any] = field(default_factory=dict)
    dropout_rate: float = 0.0
    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_policy: str = "wait"
    min_reporters: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.num_factors <= 0:
            raise ConfigurationError("num_factors must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.clients_per_round <= 0:
            raise ConfigurationError("clients_per_round must be positive")
        if self.num_epochs <= 0:
            raise ConfigurationError("num_epochs must be positive")
        if self.noise_scale < 0:
            raise ConfigurationError("noise_scale must be non-negative")
        if self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be positive")
        if self.l2_reg < 0:
            raise ConfigurationError("l2_reg must be non-negative")
        if self.init_scale <= 0:
            raise ConfigurationError("init_scale must be positive")
        # Per-switch value checks come from the declarative registry.
        for spec in SWITCH_REGISTRY:
            spec.validate_value(getattr(self, spec.name))
