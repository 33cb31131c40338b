"""Federated recommendation substrate.

Implements the FR framework of Section III-B: a central server maintains the
shared parameters (item matrix ``V`` and, when the interaction function is
learnable, ``Theta``) while every user client keeps its interaction data and
its own feature vector ``u_i`` private.  Each round the server samples a
batch of clients, sends them the shared parameters, collects their (possibly
noisy) gradients and applies the aggregated update (Eq. 5-7).
"""

from repro.federated.aggregation import (
    Aggregator,
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    NormBoundingAggregator,
    SumAggregator,
    TrimmedMeanAggregator,
    make_aggregator,
)
from repro.federated.client import BenignClient, Client, MaliciousClient
from repro.federated.config import FederatedConfig
from repro.federated.dynamics import (
    FaultSchedule,
    RoundFaults,
    RoundIncident,
)
from repro.federated.engine import BatchedRoundTrainer
from repro.federated.history import EpochRecord, TrainingHistory
from repro.federated.privacy import GaussianNoiseMechanism, clip_rows
from repro.federated.server import Server
from repro.federated.simulation import FederatedSimulation, SimulationResult
from repro.federated.updates import (
    ClientUpdate,
    FactoredRoundUpdates,
    SparseRoundUpdates,
    scatter_rows,
)

__all__ = [
    "BatchedRoundTrainer",
    "SparseRoundUpdates",
    "FactoredRoundUpdates",
    "scatter_rows",
    "Aggregator",
    "SumAggregator",
    "MeanAggregator",
    "TrimmedMeanAggregator",
    "MedianAggregator",
    "KrumAggregator",
    "NormBoundingAggregator",
    "make_aggregator",
    "BenignClient",
    "MaliciousClient",
    "Client",
    "FederatedConfig",
    "FaultSchedule",
    "RoundFaults",
    "RoundIncident",
    "TrainingHistory",
    "EpochRecord",
    "GaussianNoiseMechanism",
    "clip_rows",
    "Server",
    "FederatedSimulation",
    "SimulationResult",
    "ClientUpdate",
]
