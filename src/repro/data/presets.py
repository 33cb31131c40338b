"""Dataset presets matching the paper's three evaluation datasets.

Table II of the paper lists the sizes of MovieLens-100K, MovieLens-1M and
Steam-200K.  Each :class:`DatasetPreset` records those published statistics
plus the shape parameters the synthetic generator uses to match the
popularity skew and per-user activity of the real dataset.  A preset can be
scaled down uniformly (keeping sparsity and skew) so the full benchmark suite
runs in minutes on a laptop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError

__all__ = ["DatasetPreset", "DATASET_PRESETS", "get_preset", "scaled_preset"]


@dataclass(frozen=True)
class DatasetPreset:
    """Statistics describing one of the paper's evaluation datasets.

    Attributes
    ----------
    name:
        Canonical dataset name (``"ml-100k"``, ``"ml-1m"``, ``"steam-200k"``).
    num_users, num_items, num_interactions:
        Sizes from Table II of the paper.
    popularity_exponent:
        Zipf-like exponent of the item-popularity distribution used by the
        synthetic generator (larger = more skewed).
    activity_sigma:
        Log-normal sigma of the per-user activity distribution.
    scenario:
        ``"movie"`` or ``"game"`` — the two scenarios of the paper.
    """

    name: str
    num_users: int
    num_items: int
    num_interactions: int
    popularity_exponent: float
    activity_sigma: float
    scenario: str

    @property
    def sparsity(self) -> float:
        """Fraction of the interaction matrix that is empty."""
        return 1.0 - self.num_interactions / (self.num_users * self.num_items)

    @property
    def average_interactions_per_user(self) -> float:
        """Average interactions per user (the "Avg." column of Table II)."""
        return self.num_interactions / self.num_users


#: Presets mirroring Table II.  MovieLens-100K: 943 users / 1,682 items /
#: 100,000 interactions; MovieLens-1M: 6,040 / 3,706 / 1,000,209;
#: Steam-200K: 3,753 / 5,134 / 114,713.
DATASET_PRESETS: dict[str, DatasetPreset] = {
    "ml-100k": DatasetPreset(
        name="ml-100k",
        num_users=943,
        num_items=1682,
        num_interactions=100_000,
        popularity_exponent=0.9,
        activity_sigma=0.9,
        scenario="movie",
    ),
    "ml-1m": DatasetPreset(
        name="ml-1m",
        num_users=6040,
        num_items=3706,
        num_interactions=1_000_209,
        popularity_exponent=0.95,
        activity_sigma=0.95,
        scenario="movie",
    ),
    "steam-200k": DatasetPreset(
        name="steam-200k",
        num_users=3753,
        num_items=5134,
        num_interactions=114_713,
        popularity_exponent=1.1,
        activity_sigma=1.1,
        scenario="game",
    ),
    # ------------------------------------------------------------------ #
    # Benchmark-calibrated miniatures.  These are *not* uniform rescalings:
    # the number of users (and therefore the number of malicious clients a
    # given rho buys) and the per-user activity are chosen so that the
    # attack-vs-training balance of the paper-scale experiments — baselines
    # ~0, FedRecAttack rising steeply with rho and saturating by 5-10%,
    # negligible HR@10 impact, sparser datasets easier to attack — is
    # preserved at a size that trains in a couple of seconds.  They keep the
    # relative ordering of the three datasets (ml-1m densest, steam-200k
    # sparsest) and their popularity/activity skew.
    # ------------------------------------------------------------------ #
    "ml-100k-mini": DatasetPreset(
        name="ml-100k-mini",
        num_users=320,
        num_items=650,
        num_interactions=320 * 24,
        popularity_exponent=0.9,
        activity_sigma=0.9,
        scenario="movie",
    ),
    "ml-1m-mini": DatasetPreset(
        name="ml-1m-mini",
        num_users=480,
        num_items=750,
        num_interactions=480 * 35,
        popularity_exponent=0.95,
        activity_sigma=0.95,
        scenario="movie",
    ),
    "steam-200k-mini": DatasetPreset(
        name="steam-200k-mini",
        num_users=320,
        num_items=1000,
        num_interactions=320 * 12,
        popularity_exponent=1.1,
        activity_sigma=1.1,
        scenario="game",
    ),
    # ------------------------------------------------------------------ #
    # Scaling-benchmark shape.  Mirrors the MovieLens-10M dimensions
    # (69,878 users / 10,677 items / ~10M interactions) so scaling
    # measurements run at a realistic users-times-items footprint.
    # Synthetic like every other preset; meant for scaling runs (usually
    # heavily down-scaled via ``scaled_preset``), not for reproducing any
    # table.
    # ------------------------------------------------------------------ #
    "ml-10m-shape": DatasetPreset(
        name="ml-10m-shape",
        num_users=69_878,
        num_items=10_677,
        num_interactions=10_000_054,
        popularity_exponent=0.95,
        activity_sigma=0.95,
        scenario="movie",
    ),
}


def get_preset(name: str) -> DatasetPreset:
    """Look up a preset by name (case-insensitive)."""
    key = name.lower()
    if key not in DATASET_PRESETS:
        known = ", ".join(sorted(DATASET_PRESETS))
        raise ConfigurationError(f"unknown dataset preset {name!r}; known presets: {known}")
    return DATASET_PRESETS[key]


def scaled_preset(name: str, scale: float) -> DatasetPreset:
    """Return a preset scaled down by ``scale`` while preserving its shape.

    The number of users shrinks by ``scale`` and the number of items by
    ``sqrt(scale)``, while the *average number of interactions per user* is
    preserved.  Preserving per-user activity matters for fidelity: it keeps
    the public-interaction coverage at a given ``xi`` and the per-upload
    non-zero-row counts (which ``kappa`` constrains) comparable to the
    original datasets.  Lower bounds keep the scaled dataset usable.
    """
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    preset = get_preset(name)
    if scale == 1.0:
        return preset
    num_users = max(40, int(round(preset.num_users * scale)))
    num_items = max(80, int(round(preset.num_items * math.sqrt(scale))))
    average = preset.average_interactions_per_user
    average = min(average, num_items * 0.5)
    num_interactions = max(5 * num_users, int(round(average * num_users)))
    num_interactions = min(num_interactions, num_users * num_items // 2)
    return replace(
        preset,
        name=f"{preset.name}-x{scale:g}",
        num_users=num_users,
        num_items=num_items,
        num_interactions=num_interactions,
    )
