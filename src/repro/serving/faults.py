"""Seeded fault injection for the serving front end.

:class:`ServingFaultInjector` is the serving counterpart of the federated
layer's :class:`~repro.federated.dynamics.FaultSchedule`: a deterministic,
seeded source of injected request latency and request errors, used by the
chaos-smoke benchmark and the serving robustness tests to drive the HTTP
front end's load-shedding, deadline and error paths without depending on
real network weather.

The injector draws from one :class:`numpy.random.Generator` (follow the
repro RNG discipline and derive it from a named
:class:`~repro.rng.SeedSequenceFactory` stream); the draw order is the
handler-thread arrival order, so aggregate counts — *how many* requests
sheded, slept or failed — are the reproducible quantity, not which thread
got which draw.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.exceptions import ServingError
from repro.rng import ensure_rng

__all__ = ["InjectedServingError", "ServingFaultInjector"]


class InjectedServingError(RuntimeError):
    """An injected request failure (never raised by real serving code)."""


class ServingFaultInjector:
    """Seeded per-request latency/error injection for the HTTP front end.

    Parameters
    ----------
    latency:
        Seconds an affected request sleeps *while holding its admission
        slot* — injected latency therefore drives the server's bounded
        in-flight admission into 503 load-shedding, which is exactly what
        the chaos smoke wants to observe.
    latency_rate:
        Probability in ``[0, 1]`` that a request draws the latency.
    error_rate:
        Probability in ``[0, 1]`` that a request raises
        :class:`InjectedServingError` (surfaced as a JSON 500 by the
        handler and counted in ``/stats``).
    rng:
        Generator, integer seed, or ``None`` (fresh entropy) — pass a named
        stream for reproducible chaos runs.
    """

    def __init__(
        self,
        latency: float = 0.0,
        latency_rate: float = 0.0,
        error_rate: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if latency < 0:
            raise ServingError(f"latency must be non-negative, got {latency}")
        for name, rate in (("latency_rate", latency_rate), ("error_rate", error_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ServingError(f"{name} must be in [0, 1], got {rate}")
        self._latency = float(latency)
        self._latency_rate = float(latency_rate)
        self._error_rate = float(error_rate)
        self._rng = ensure_rng(rng)
        self._lock = threading.Lock()

    def before_request(self, path: str) -> None:
        """The handler hook: maybe sleep, maybe raise, usually do nothing.

        Draw order is arrival order (the generator is lock-guarded — handler
        threads draw one at a time); the sleep itself happens outside the
        lock so injected latency never serialises the whole server.
        """
        with self._lock:
            u_latency = float(self._rng.random())
            u_error = float(self._rng.random())
        if self._latency_rate > 0.0 and u_latency < self._latency_rate:
            time.sleep(self._latency)
        if self._error_rate > 0.0 and u_error < self._error_rate:
            raise InjectedServingError(
                f"injected serving failure on {path!r}"
            )
