"""Attacks against federated recommendation.

The core contribution (``FedRecAttack``) plus every baseline the paper
compares against:

* shilling-style data injection: Random, Bandwagon, Popular,
* model poisoning designed for FR: EB (explicit boosting), PipAttack,
* model poisoning designed for generic FL: P3 (boosted adversarial
  gradients), P4 ("a little is enough"),
* full-knowledge centralised data poisoning evaluated in the federated
  setting: P1 (MF), P2 (deep learning).
"""

from repro.attacks.approximation import UserMatrixApproximator
from repro.attacks.base import Attack, AttackContext, NoAttack, ProfileInjectionAttack
from repro.attacks.data_poisoning import SurrogateDLDataPoisoning, SurrogateMFDataPoisoning
from repro.attacks.explicit_boost import ExplicitBoostAttack
from repro.attacks.fedrecattack import (
    FedRecAttack,
    FedRecAttackConfig,
    attack_loss_and_gradient_vectorized,
    g_function,
)
from repro.attacks.model_poisoning import GradientBoostingAttack, LittleIsEnoughAttack
from repro.attacks.pipattack import PipAttack
from repro.attacks.shilling import BandwagonAttack, PopularAttack, RandomAttack
from repro.attacks.target_selection import select_target_items

__all__ = [
    "Attack",
    "AttackContext",
    "NoAttack",
    "ProfileInjectionAttack",
    "UserMatrixApproximator",
    "FedRecAttack",
    "FedRecAttackConfig",
    "attack_loss_and_gradient_vectorized",
    "g_function",
    "RandomAttack",
    "BandwagonAttack",
    "PopularAttack",
    "ExplicitBoostAttack",
    "PipAttack",
    "GradientBoostingAttack",
    "LittleIsEnoughAttack",
    "SurrogateMFDataPoisoning",
    "SurrogateDLDataPoisoning",
    "select_target_items",
]
