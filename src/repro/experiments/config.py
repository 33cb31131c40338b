"""Experiment configuration.

Two layers of configuration are used throughout the harness:

* :class:`ExperimentConfig` fully describes one federated-training run —
  which dataset, which attack, the attack knobs (``xi``, ``rho``, ``kappa``,
  ``C``, ``zeta``) and the recommender hyper-parameters.  Its defaults are
  the paper's defaults (Section V-A).
* :class:`ExperimentProfile` describes the *scale* at which a whole table or
  figure is regenerated: the paper-scale profile keeps the full datasets and
  200 epochs, while the benchmark profile shrinks the datasets and epoch
  count so that every table can be regenerated in minutes on a laptop while
  preserving the qualitative shape of the results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import ConfigurationError
from repro.federated.config import FederatedConfig
from repro.federated.switches import SWITCH_REGISTRY

__all__ = ["ExperimentConfig", "ExperimentProfile", "PAPER_PROFILE", "BENCH_PROFILE"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one federated-training run.

    Attributes follow the paper's notation: ``xi`` is the public-interaction
    proportion, ``rho`` the malicious-user proportion, ``kappa`` the maximum
    number of non-zero uploaded gradient rows, ``clip_norm`` the per-row L2
    bound ``C`` and ``zeta`` the attack step size.
    """

    dataset: str = "ml-100k"
    scale: float = 1.0
    data_dir: str | None = None
    attack: str = "fedrecattack"
    xi: float = 0.01
    rho: float = 0.05
    kappa: int = 60
    clip_norm: float = 1.0
    zeta: float = 1.0
    num_target_items: int = 1
    target_strategy: str = "unpopular"
    num_factors: int = 32
    learning_rate: float = 0.01
    num_epochs: int = 200
    clients_per_round: int = 256
    noise_scale: float = 0.0
    l2_reg: float = 0.0
    aggregator: str = "sum"
    aggregator_options: dict[str, Any] = field(default_factory=dict)
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
    use_learnable_scorer: bool = False
    scorer_hidden_units: int = 32
    evaluate_every: int | None = None
    eval_num_negatives: int | None = 99
    seed: int = 0
    attack_options: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if not 0.0 <= self.xi <= 1.0:
            raise ConfigurationError("xi must be in [0, 1]")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigurationError("rho must be in [0, 1]")
        if self.kappa <= 0:
            raise ConfigurationError("kappa must be positive")
        if self.clip_norm <= 0:
            raise ConfigurationError("clip_norm must be positive")
        if self.zeta <= 0:
            raise ConfigurationError("zeta must be positive")
        if self.num_target_items <= 0:
            raise ConfigurationError("num_target_items must be positive")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]")
        if self.attack.lower() != "none" and self.rho == 0.0:
            raise ConfigurationError("an attack requires rho > 0")
        self.to_federated_config().validate()

    def to_federated_config(self) -> FederatedConfig:
        """The federated-protocol configuration implied by this experiment.

        The engine switches are forwarded generically from the declarative
        registry (:data:`~repro.federated.switches.SWITCH_REGISTRY`), so a
        new switch added there flows through without touching this method.
        """
        switches = {spec.name: getattr(self, spec.name) for spec in SWITCH_REGISTRY}
        return FederatedConfig(
            num_factors=self.num_factors,
            learning_rate=self.learning_rate,
            clients_per_round=self.clients_per_round,
            num_epochs=self.num_epochs,
            noise_scale=self.noise_scale,
            clip_norm=self.clip_norm,
            l2_reg=self.l2_reg,
            aggregator=self.aggregator,
            aggregator_options=dict(self.aggregator_options),
            use_learnable_scorer=self.use_learnable_scorer,
            scorer_hidden_units=self.scorer_hidden_units,
            **switches,
        )

    def with_overrides(self, **kwargs: Any) -> "ExperimentConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale at which the tables/figures are regenerated.

    ``dataset_aliases`` optionally replaces a dataset by a calibrated
    miniature preset (used by the benchmark profile), ``dataset_scales`` maps
    each dataset to a uniform down-scaling factor, and the remaining fields
    override the heavyweight training hyper-parameters.  ``sampler``, when
    set, overrides the negative-sampling engine of every run regenerated at
    this profile — this is how the qualitative table/figure gates are
    re-validated under the historical ``"permutation"`` sampler (see
    ``REPRO_BENCH_SAMPLER`` below).
    """

    name: str
    num_epochs: int
    clients_per_round: int
    num_factors: int
    eval_num_negatives: int | None
    learning_rate: float = 0.01
    dataset_scales: dict[str, float] = field(default_factory=dict)
    dataset_aliases: dict[str, str] = field(default_factory=dict)
    seed: int = 0
    sampler: str | None = None

    def scale_for(self, dataset: str) -> float:
        """Down-scaling factor for ``dataset`` (1.0 when not listed)."""
        return self.dataset_scales.get(dataset.lower(), 1.0)

    def dataset_for(self, dataset: str) -> str:
        """Dataset (or miniature alias) actually used for ``dataset``."""
        return self.dataset_aliases.get(dataset.lower(), dataset)

    def apply(self, config: ExperimentConfig) -> ExperimentConfig:
        """Apply this profile's scale and training overrides to ``config``."""
        overrides = dict(
            dataset=self.dataset_for(config.dataset),
            scale=self.scale_for(config.dataset),
            num_epochs=self.num_epochs,
            clients_per_round=self.clients_per_round,
            num_factors=self.num_factors,
            eval_num_negatives=self.eval_num_negatives,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )
        if self.sampler is not None:
            overrides["sampler"] = self.sampler
        return config.with_overrides(**overrides)


#: Full paper-scale settings: real dataset sizes and 200 training epochs.
PAPER_PROFILE = ExperimentProfile(
    name="paper",
    num_epochs=200,
    clients_per_round=256,
    num_factors=32,
    eval_num_negatives=99,
    learning_rate=0.01,
)

#: Laptop-scale settings used by the benchmark suite: calibrated miniature
#: datasets, fewer epochs, a higher learning rate (so the same effective
#: optimisation horizon eta * epochs is reached in far fewer rounds) and
#: smaller client batches.
#:
#: ``REPRO_BENCH_SAMPLER`` switches the sampler engine of the whole benchmark
#: suite without touching the tests — e.g.
#: ``REPRO_BENCH_SAMPLER=permutation pytest benchmarks/`` re-validates every
#: qualitative table/figure gate under the historical permutation sampler's
#: realizations.  Unset, the profile pins nothing and runs keep the
#: ``ExperimentConfig`` defaults (batched sampler).
BENCH_PROFILE = ExperimentProfile(
    name="bench",
    num_epochs=35,
    clients_per_round=64,
    num_factors=16,
    eval_num_negatives=49,
    learning_rate=0.03,
    dataset_aliases={
        "ml-100k": "ml-100k-mini",
        "ml-1m": "ml-1m-mini",
        "steam-200k": "steam-200k-mini",
    },
    sampler=os.environ.get("REPRO_BENCH_SAMPLER") or None,
)
