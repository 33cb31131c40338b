"""Attack registry: build an attack instance from a configuration name.

The registry encodes which prior knowledge each attack needs: FedRecAttack
receives the public interactions, the popularity-based baselines receive
popularity side information through the attack context, and the
data-poisoning baselines (P1/P2) receive the full training data through the
context (their original, much stronger, threat model).
"""

from __future__ import annotations

from typing import Callable

from repro.attacks.base import Attack
from repro.attacks.data_poisoning import SurrogateDLDataPoisoning, SurrogateMFDataPoisoning
from repro.attacks.explicit_boost import ExplicitBoostAttack
from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.attacks.model_poisoning import GradientBoostingAttack, LittleIsEnoughAttack
from repro.attacks.pipattack import PipAttack
from repro.attacks.shilling import BandwagonAttack, PopularAttack, RandomAttack
from repro.data.public import PublicInteractions
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig

__all__ = ["build_attack", "available_attacks"]

AttackFactory = Callable[[ExperimentConfig, PublicInteractions], Attack]


def _fedrecattack(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    attack_config = FedRecAttackConfig(
        kappa=config.kappa,
        step_size=config.zeta,
        clip_norm=config.clip_norm,
        **config.attack_options,
    )
    return FedRecAttack(public, attack_config)


def _random(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return RandomAttack(kappa=config.kappa)


def _bandwagon(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return BandwagonAttack(kappa=config.kappa)


def _popular(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return PopularAttack(kappa=config.kappa)


def _explicit_boost(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return ExplicitBoostAttack(clip_norm=config.clip_norm, **config.attack_options)


def _pipattack(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return PipAttack(clip_norm=config.clip_norm, **config.attack_options)


def _p3(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return GradientBoostingAttack(clip_norm=config.clip_norm, **config.attack_options)


def _p4(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return LittleIsEnoughAttack(clip_norm=config.clip_norm, **config.attack_options)


def _p1(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return SurrogateMFDataPoisoning(kappa=config.kappa, **config.attack_options)


def _p2(config: ExperimentConfig, public: PublicInteractions) -> Attack:
    return SurrogateDLDataPoisoning(kappa=config.kappa, **config.attack_options)


_REGISTRY: dict[str, AttackFactory] = {
    "fedrecattack": _fedrecattack,
    "random": _random,
    "bandwagon": _bandwagon,
    "popular": _popular,
    "eb": _explicit_boost,
    "pipattack": _pipattack,
    "p3": _p3,
    "p4": _p4,
    "p1": _p1,
    "p2": _p2,
}


def available_attacks() -> list[str]:
    """Names accepted by :func:`build_attack` (plus ``"none"``)."""
    return ["none"] + sorted(_REGISTRY)


def build_attack(config: ExperimentConfig, public: PublicInteractions) -> Attack | None:
    """Instantiate the attack named in ``config`` (``None`` for a clean run)."""
    name = config.attack.lower()
    if name == "none":
        return None
    if name not in _REGISTRY:
        known = ", ".join(available_attacks())
        raise ConfigurationError(f"unknown attack {config.attack!r}; known attacks: {known}")
    return _REGISTRY[name](config, public)
