"""Dataset substrate: interaction data, splits, public-interaction exposure.

This subpackage provides everything the paper's evaluation needs on the data
side:

* :class:`~repro.data.dataset.InteractionDataset` — implicit-feedback
  user/item interactions with fast per-user access,
* synthetic generators calibrated to MovieLens-100K, MovieLens-1M and
  Steam-200K (used when the real files are not on disk),
* loaders for the real dataset files when they are available,
* leave-one-out train/test splitting as used in the paper,
* public-interaction sampling (the attacker's prior knowledge, ratio ``xi``),
* negative sampling for BPR training (the stacked batched rejection
  sampler, the default, and the historical per-user permutation engine),
* dataset statistics reproducing Table II.
"""

from repro.data.dataset import InteractionDataset
from repro.data.loaders import load_dataset, load_movielens_file, load_steam_file
from repro.data.negative_sampling import (
    DEFAULT_SAMPLER,
    SAMPLER_ENGINES,
    NegativeSampler,
    sample_uniform_negatives,
    sample_uniform_negatives_batched,
)
from repro.data.presets import (
    DATASET_PRESETS,
    DatasetPreset,
    get_preset,
    scaled_preset,
)
from repro.data.public import PublicInteractions, sample_public_interactions
from repro.data.store import InteractionStore
from repro.data.splits import TrainTestSplit, leave_one_out_split
from repro.data.stats import DatasetStatistics, compute_statistics, statistics_table
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset

__all__ = [
    "InteractionDataset",
    "InteractionStore",
    "NegativeSampler",
    "SAMPLER_ENGINES",
    "DEFAULT_SAMPLER",
    "sample_uniform_negatives",
    "sample_uniform_negatives_batched",
    "PublicInteractions",
    "sample_public_interactions",
    "TrainTestSplit",
    "leave_one_out_split",
    "DatasetStatistics",
    "compute_statistics",
    "statistics_table",
    "SyntheticConfig",
    "generate_synthetic_dataset",
    "DatasetPreset",
    "DATASET_PRESETS",
    "get_preset",
    "scaled_preset",
    "load_dataset",
    "load_movielens_file",
    "load_steam_file",
]
