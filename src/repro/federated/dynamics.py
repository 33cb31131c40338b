"""Federation dynamics: seeded client churn, stragglers and fault injection.

The paper's protocol assumes every sampled client reports every round; real
federated deployments lose clients to churn (devices go offline), stragglers
(slow devices report late) and crashes (devices die mid-update).  This module
makes those events *first-class, seeded and replayable* instead of test-only
monkeypatches:

* :class:`FaultSchedule` draws each round's client faults from a dedicated
  ``"fault-schedule"`` RNG stream (one named
  :class:`~repro.rng.SeedSequenceFactory` stream, so enabling dynamics never
  perturbs any training/evaluation stream — with all rates at their 0.0
  defaults every historical seed history stays byte-identical).  The draw
  shape per round is fixed (three uniforms plus one delay integer per sampled
  client), so changing one rate never shifts another round's realization.
* :class:`RoundIncident` is the structured record of every degradation event
  — client dropouts, crashes, straggler dispositions, quorum aborts — carried
  on :class:`~repro.federated.history.TrainingHistory` and thereby on
  :class:`~repro.experiments.runner.ExperimentResult`.

Fault taxonomy (per sampled client, drawn once per round):

``dropped``
    Never reports and never trains — consumes *no* training, sampling or
    privacy streams, exactly as if it had not been sampled.
``crashed``
    Trains fully (streams consumed, the local user vector steps, the update
    is privatised) but the upload is lost mid-flight and discarded.
``straggler``
    Trains with the round but reports late; the configured
    ``straggler_policy`` decides the disposition: ``"wait"`` (the round
    waits, the update counts normally), ``"discard"`` (the late update is
    dropped) or ``"stale-merge"`` (the update — computed against the item
    matrix of its training round — is merged when it arrives, ``delay``
    rounds later).

Training loss is accounted in the round a client *trained* (a local
quantity), regardless of when or whether its update reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import FederationError

__all__ = [
    "RoundFaults",
    "FaultSchedule",
    "RoundIncident",
]


@dataclass(frozen=True)
class RoundFaults:
    """One round's fault realization over its sampled clients.

    ``delays`` maps each straggler to the number of rounds its report is
    delayed under the ``"stale-merge"`` policy (>= 1; under the other
    policies the delay is drawn but unused, keeping the stream shape fixed).
    """

    round_index: int
    dropped: tuple[int, ...]
    crashed: tuple[int, ...]
    stragglers: tuple[int, ...]
    delays: dict[int, int] = field(default_factory=dict)

    @property
    def is_clean(self) -> bool:
        """Whether this round drew no faults at all."""
        return not (self.dropped or self.crashed or self.stragglers)

    @property
    def crashed_set(self) -> frozenset[int]:
        """The crashed client ids as a set."""
        return frozenset(self.crashed)

    @property
    def straggler_set(self) -> frozenset[int]:
        """The straggling client ids as a set."""
        return frozenset(self.stragglers)


class FaultSchedule:
    """Seeded per-round client-fault draws.

    Parameters
    ----------
    dropout_rate, crash_rate, straggler_rate:
        Per-client probabilities in ``[0, 1]``, applied in priority order
        dropped > crashed > straggler (a client realizes at most one fault
        per round).
    rng:
        The dedicated ``"fault-schedule"`` generator stream.  The schedule is
        the stream's only consumer, so fault realizations are a pure function
        of (master seed, round order, batch sizes).
    straggler_delay:
        Upper bound (inclusive) of the uniform integer delay drawn per
        straggler for the ``"stale-merge"`` policy; the default 1 makes
        every stale report arrive exactly one round late.
    """

    def __init__(
        self,
        dropout_rate: float,
        crash_rate: float,
        straggler_rate: float,
        rng: np.random.Generator,
        straggler_delay: int = 1,
    ) -> None:
        for name, rate in (
            ("dropout_rate", dropout_rate),
            ("crash_rate", crash_rate),
            ("straggler_rate", straggler_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise FederationError(f"{name} must be in [0, 1], got {rate!r}")
        if straggler_delay < 1:
            raise FederationError(
                f"straggler_delay must be at least 1, got {straggler_delay}"
            )
        self.dropout_rate = float(dropout_rate)
        self.crash_rate = float(crash_rate)
        self.straggler_rate = float(straggler_rate)
        self.straggler_delay = int(straggler_delay)
        self._rng = rng

    def draw(self, round_index: int, client_ids: np.ndarray) -> RoundFaults:
        """Draw one round's fault realization for ``client_ids``.

        Consumes a fixed-shape slice of the fault stream — three uniforms and
        one delay integer per sampled client — regardless of which rates are
        zero, so enabling one fault class never shifts another's draws.
        """
        count = int(client_ids.shape[0])
        if count == 0:
            return RoundFaults(round_index, (), (), ())
        u_drop = self._rng.random(count)
        u_crash = self._rng.random(count)
        u_straggle = self._rng.random(count)
        delays = self._rng.integers(1, self.straggler_delay + 1, size=count)

        dropped_mask = u_drop < self.dropout_rate
        crashed_mask = ~dropped_mask & (u_crash < self.crash_rate)
        straggler_mask = ~dropped_mask & ~crashed_mask & (u_straggle < self.straggler_rate)
        ids = [int(cid) for cid in client_ids]
        return RoundFaults(
            round_index=round_index,
            dropped=tuple(cid for cid, hit in zip(ids, dropped_mask) if hit),
            crashed=tuple(cid for cid, hit in zip(ids, crashed_mask) if hit),
            stragglers=tuple(cid for cid, hit in zip(ids, straggler_mask) if hit),
            delays={
                cid: int(delay)
                for cid, hit, delay in zip(ids, straggler_mask, delays)
                if hit
            },
        )


@dataclass(frozen=True)
class RoundIncident:
    """One structured degradation event of a training run.

    Attributes
    ----------
    round_index:
        The server's authoritative round counter when the incident occurred.
    epoch:
        The 1-based training epoch of the round.
    kind:
        The incident class: ``"client-dropout"``, ``"client-crash"``,
        ``"straggler"``, ``"quorum-abort"`` or ``"straggler-expired"``.
    client_ids:
        The affected client ids (sorted).
    detail:
        Human-readable, fully deterministic context (policies, counts,
        quorum sizes — never wall-clock readings).
    """

    round_index: int
    epoch: int
    kind: str
    client_ids: tuple[int, ...] = ()
    detail: str = ""

