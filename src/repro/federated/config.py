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
    use_learnable_scorer:
        If True the recommender uses the MLP interaction function (shared
        ``Theta``); if False it is plain MF with the dot product.
    scorer_hidden_units:
        Hidden width of the MLP scorer when enabled.
    engine:
        Which round engine the simulation uses: ``"vectorized"`` (default)
        trains every selected benign client of a round in stacked numpy
        operations, ``"loop"`` keeps the original one-client-at-a-time
        reference implementation.  Both consume identical per-client random
        streams, so they produce matching results up to floating-point
        summation order.
    sampler:
        Which negative-sampling engine clients (and the attacker's
        user-matrix approximation) draw from.  ``"batched"`` (default) draws
        a whole round's negatives in one stacked rejection-sampling pass from
        a shared round-level stream.  ``"permutation"`` keeps the historical
        per-user permutation draws and their per-client RNG streams — its
        training realizations are bit-identical to earlier releases, which
        is why the golden seed histories pin it.  Both are exact uniform
        draws but *different* realizations (the qualitative result gates are
        validated under both).  Either engine works with either sampler: the
        loop engine under the batched sampler consumes the same round-level
        stream, so loop/vectorized equivalence holds per sampler.
    eval_engine:
        Which evaluation engine computes the HR/NDCG/ER metrics at each
        evaluation epoch: ``"vectorized"`` (default) scores user blocks as
        stacked matrix products and computes all five metrics in one pass
        over the shared :class:`~repro.data.store.InteractionStore`;
        ``"loop"`` is the per-user reference implementation.  Both engines
        read identical score blocks and consume the evaluation RNG stream
        identically, so full-rank metrics are bit-identical and
        sampled-protocol metrics match under the same seed — this switch
        trades nothing but time.
    eval_sampler:
        Which RNG stream the sampled ranking protocol draws its negatives
        from.  ``"per-user"`` (default) keeps the historical one-user-at-a-
        time draws — evaluation histories are bit-identical to earlier
        releases.  ``"batched"`` draws a whole score-block's negatives in
        one stacked rejection-sampling pass against the shared
        :class:`~repro.data.store.InteractionStore` mask rows; still an
        exact draw from the same distribution, but a *different* realization
        (like the training ``sampler`` switch).  Either evaluation engine
        works with either stream — for a fixed stream the engines report
        identical metrics per seed.  Irrelevant under the full-ranking
        protocol.
    eval_path:
        Which arithmetic route the sampled ranking protocol scores its
        candidates through.  ``"block"`` (default) computes the full
        ``(B, num_items)`` score-block product and gathers candidate
        columns from it; ``"candidates"`` gathers the candidate item
        vectors first and scores only them (``B * (1 + num_negatives)``
        dot products instead of ``B * num_items`` — no catalog GEMM),
        dispatching through
        :class:`~repro.models.base.CandidateScorerProtocol` when the
        source implements it, else through an exact column-slicing
        fallback.  The negative draws, their stream order and the rank
        comparisons are shared, so both paths report the same metrics per
        seed (bit-identical on the fallback, numerically equal within the
        GEMM-vs-gather reassociation elsewhere); the golden suite pins
        both.  Irrelevant under the full-ranking protocol.
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
    use_learnable_scorer: bool = False
    scorer_hidden_units: int = 32
    engine: str = "vectorized"
    sampler: str = "batched"
    eval_engine: str = "vectorized"
    eval_sampler: str = "per-user"
    eval_path: str = "block"
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
        if self.scorer_hidden_units <= 0:
            raise ConfigurationError("scorer_hidden_units must be positive")
        # Per-switch value checks come from the declarative registry.
        for spec in SWITCH_REGISTRY:
            spec.validate_value(getattr(self, spec.name))
