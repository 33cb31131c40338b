"""Recommendation serving layer.

The simulator's job ends with trained factors; this subpackage puts them
behind a deployable query surface:

* :class:`FactorSnapshot` — an immutable, versioned export of the trained
  factors (``U`` and ``V``), built
  from a :class:`~repro.federated.server.Server`, a
  :class:`~repro.federated.simulation.SimulationResult` or raw matrices,
* :class:`RecommenderService` — answers top-K queries against the current
  snapshot through the formal
  :class:`~repro.models.base.ScorerProtocol` (never ``isinstance`` on model
  classes), with a per-user memo cache and a raw block-score cache, both
  invalidated atomically when a new snapshot is swapped in,
* :mod:`repro.serving.http` — an optional stdlib ``http.server`` JSON front
  end (``fedrecattack serve`` drives it from the CLI),
* :func:`exposure_under_serving` — the attack-evaluation hook measuring
  target-item exposure against the *deployed* service (through its caches)
  rather than against raw factors.

Bit-reproducibility contract: the service scores only whole canonical user
blocks (:func:`repro.metrics.evaluation.user_blocks`), so every float it
serves — single query, batch query or the exposure hook — is identical to
what :func:`~repro.metrics.evaluation.evaluate_snapshot` computes from the
same snapshot at the same block size.
"""

from repro.serving.exposure import exposure_under_serving
from repro.serving.faults import InjectedServingError, ServingFaultInjector
from repro.serving.http import build_http_server, run_http_server
from repro.serving.service import Recommendation, RecommenderService
from repro.serving.snapshot import FactorSnapshot

__all__ = [
    "FactorSnapshot",
    "Recommendation",
    "RecommenderService",
    "build_http_server",
    "run_http_server",
    "exposure_under_serving",
    "InjectedServingError",
    "ServingFaultInjector",
]
