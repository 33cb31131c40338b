"""Training history records.

Figure 3 of the paper plots the training loss and HR@10 over epochs for the
clean run and for FedRecAttack with different malicious-user proportions.
:class:`TrainingHistory` collects exactly the per-epoch series needed to
regenerate those curves, plus the attack metrics when they are evaluated
periodically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.federated.dynamics import RoundIncident
from repro.metrics.accuracy import AccuracyReport
from repro.metrics.exposure import ExposureReport

__all__ = ["EpochRecord", "TrainingHistory"]


@dataclass(frozen=True)
class EpochRecord:
    """Metrics recorded at the end of one training epoch."""

    epoch: int
    training_loss: float
    accuracy: AccuracyReport | None = None
    exposure: ExposureReport | None = None


@dataclass
class TrainingHistory:
    """Ordered collection of per-epoch records.

    ``incidents`` is the run's structured degradation log — every client
    dropout/crash/straggle disposition and quorum abort, as
    :class:`~repro.federated.dynamics.RoundIncident` records in occurrence
    order.  Empty for every run with the federation dynamics switches at
    their defaults.
    """

    records: list[EpochRecord] = field(default_factory=list)
    incidents: list[RoundIncident] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        """Add one epoch record."""
        self.records.append(record)

    def record_incident(self, incident: RoundIncident) -> None:
        """Add one degradation event to the incident log."""
        self.incidents.append(incident)

    def __len__(self) -> int:
        return len(self.records)

    def epochs(self) -> np.ndarray:
        """Epoch indices of all records."""
        return np.array([record.epoch for record in self.records], dtype=np.int64)

    def training_loss(self) -> np.ndarray:
        """Training-loss series (one value per epoch) — Figure 3 left column."""
        return np.array([record.training_loss for record in self.records], dtype=np.float64)

    def hr_at_10(self) -> np.ndarray:
        """HR@10 series at the epochs where accuracy was evaluated — Figure 3 right column."""
        return np.array(
            [record.accuracy.hr_at_10 for record in self.records if record.accuracy is not None],
            dtype=np.float64,
        )

    def evaluated_epochs(self) -> np.ndarray:
        """Epoch indices at which accuracy was evaluated."""
        return np.array(
            [record.epoch for record in self.records if record.accuracy is not None],
            dtype=np.int64,
        )

    def er_at_10(self) -> np.ndarray:
        """ER@10 series at the epochs where exposure was evaluated."""
        return np.array(
            [record.exposure.er_at_10 for record in self.records if record.exposure is not None],
            dtype=np.float64,
        )

    def final_accuracy(self) -> AccuracyReport | None:
        """The last recorded accuracy report, if any."""
        for record in reversed(self.records):
            if record.accuracy is not None:
                return record.accuracy
        return None

    def final_exposure(self) -> ExposureReport | None:
        """The last recorded exposure report, if any."""
        for record in reversed(self.records):
            if record.exposure is not None:
                return record.exposure
        return None
