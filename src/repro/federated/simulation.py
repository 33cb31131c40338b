"""End-to-end federated training simulation.

:class:`FederatedSimulation` wires together the dataset, the server, the
benign clients, the injected malicious clients and an optional attack, and
runs the per-round protocol of Section III-B for a configured number of
epochs.  Every epoch it records the aggregate benign training loss, and at a
configurable cadence it evaluates recommendation accuracy (HR@10 / NDCG@10 on
the held-out items) and the attack's exposure metrics (ER@5 / ER@10 /
NDCG@10 of the target items).

Every round trains all of its benign clients through
:class:`~repro.federated.engine.BatchedRoundTrainer` in stacked numpy
operations, drawing their training pairs from one shared round-level stream,
and hands the server one CSR-style round structure.  The one-client-at-a-time
reference round lives in ``tests/oracles`` (it overrides :meth:`_train_round`
and draws the same pairs), so from identical seeds the two produce matching
training histories up to floating-point summation order.  Attack scheduling
and the round counter are driven by the server's ``rounds_applied``, which
counts every protocol round (empty ones included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import FederationError
from repro.federated.client import MaliciousClient
from repro.federated.config import FederatedConfig
from repro.federated.dynamics import FaultSchedule, RoundFaults, RoundIncident
from repro.federated.engine import BatchedRoundTrainer
from repro.federated.history import EpochRecord, TrainingHistory
from repro.federated.privacy import GaussianNoiseMechanism
from repro.federated.server import Server
from repro.federated.updates import ClientUpdate
from repro.metrics.accuracy import AccuracyReport
from repro.metrics.evaluation import evaluate_snapshot
from repro.metrics.exposure import ExposureReport
from repro.rng import SeedSequenceFactory, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.attacks.base import Attack

__all__ = ["FederatedSimulation", "SimulationResult"]

UpdateObserver = Callable[[int, list[ClientUpdate]], None]


@dataclass
class SimulationResult:
    """Outcome of one federated training run.

    ``rounds_applied`` is the server's authoritative protocol-round counter
    — together with ``user_factors`` / ``item_factors`` this is everything
    :meth:`repro.serving.FactorSnapshot.from_result` needs to rebuild the
    trained model for serving.
    """

    history: TrainingHistory
    exposure: ExposureReport | None
    accuracy: AccuracyReport | None
    item_factors: np.ndarray
    user_factors: np.ndarray
    rounds_applied: int = 0

    @property
    def incidents(self) -> list[RoundIncident]:
        """The run's structured degradation log (empty with dynamics off)."""
        return self.history.incidents


class FederatedSimulation:
    """Simulates federated training of the recommender, optionally under attack.

    This is the package's main programmatic entry point: construct it with a
    training dataset and a :class:`~repro.federated.config.FederatedConfig`,
    optionally attach an attack, and call :meth:`run`.

    Parameters
    ----------
    train:
        The benign training interactions; every user is one benign client,
        whose private vector is a row of the round trainer's user matrix.
    config:
        Protocol hyper-parameters.
    test_items:
        Per-user held-out items for HR@10 / NDCG@10 evaluation (usually the
        leave-one-out split's test column); ``None`` disables accuracy
        evaluation.
    target_items:
        The attack's target items for ER@K evaluation; required when an
        attack is given, ``None`` disables exposure evaluation.
    attack:
        An :class:`~repro.attacks.base.Attack` instance, or ``None`` for
        clean training.
    num_malicious:
        Number of attacker-controlled clients appended after the benign ones
        (ids ``num_users .. num_users + num_malicious - 1``).
    seed:
        Master seed (or a :class:`~repro.rng.SeedSequenceFactory`); every
        random stream of the simulation derives from it, so runs are fully
        reproducible and no stream perturbs another.
    evaluate_every:
        Evaluation cadence in epochs; ``None`` picks ``max(1, epochs // 10)``.
    eval_num_negatives:
        Negatives sampled per user during ranking evaluation (``None`` ranks
        against the full catalog).
    update_observer:
        Optional callback ``observer(round_index, updates)`` receiving every
        round's uploads as :class:`~repro.federated.updates.ClientUpdate`
        lists — the hook the defense detectors plug into.
    """

    def __init__(
        self,
        train: InteractionDataset,
        config: FederatedConfig,
        test_items: np.ndarray | None = None,
        target_items: np.ndarray | None = None,
        attack: "Attack | None" = None,
        num_malicious: int = 0,
        seed: int | SeedSequenceFactory = 0,
        evaluate_every: int | None = None,
        eval_num_negatives: int | None = 99,
        update_observer: UpdateObserver | None = None,
    ) -> None:
        config.validate()
        if num_malicious < 0:
            raise FederationError("num_malicious must be non-negative")
        if attack is not None and num_malicious == 0:
            raise FederationError("an attack requires at least one malicious client")

        if evaluate_every is not None and evaluate_every <= 0:
            raise FederationError(
                f"evaluate_every must be positive (or None for the default), got {evaluate_every}"
            )

        self.train = train
        self.config = config
        self.test_items = test_items
        self.target_items = (
            None if target_items is None else np.asarray(target_items, dtype=np.int64)
        )
        self.attack = attack
        self.num_malicious = int(num_malicious)
        self.evaluate_every = evaluate_every
        self.eval_num_negatives = eval_num_negatives
        self.update_observer = update_observer

        self._seeds = seed if isinstance(seed, SeedSequenceFactory) else SeedSequenceFactory(seed)
        self._schedule_rng = self._seeds.generator("schedule")
        self._eval_rng = self._seeds.generator("evaluation")
        # The shared stream every round's negatives are drawn from.  Derived
        # by name, so creating it never perturbs any other stream.
        self._round_sampler_rng = self._seeds.generator("round-sampler")

        # One InteractionStore per dataset, shared by the round sampler and
        # the evaluation engine.
        self._store = train.interaction_store()
        self.server = Server(train.num_items, config, rng=self._seeds.generator("server"))
        self.privacy = GaussianNoiseMechanism(
            noise_scale=config.noise_scale,
            clip_norm=config.clip_norm,
            clip_before_noise=config.clip_benign_gradients,
            rng=self._seeds.generator("privacy"),
        )
        self.malicious_clients = self._build_malicious_clients()
        self._all_client_ids = np.arange(train.num_users + self.num_malicious, dtype=np.int64)
        # Federation dynamics: one dedicated, named fault stream (so enabling
        # churn never perturbs any training/evaluation stream — with every
        # rate at 0.0 no FaultSchedule is built and no stream is consumed,
        # keeping historical seed histories byte-identical).
        self._dynamics: FaultSchedule | None = None
        if (
            config.dropout_rate > 0.0
            or config.crash_rate > 0.0
            or config.straggler_rate > 0.0
        ):
            self._dynamics = FaultSchedule(
                dropout_rate=config.dropout_rate,
                crash_rate=config.crash_rate,
                straggler_rate=config.straggler_rate,
                rng=self._seeds.generator("fault-schedule"),
            )
        #: Stale-merge holding area: arrival round -> updates held back by
        #: straggling clients, merged at the end of the round they arrive in.
        self._pending_arrivals: dict[int, list[ClientUpdate]] = {}
        self._history: TrainingHistory | None = None
        self._current_epoch = 0
        self._trainer = BatchedRoundTrainer(
            self._initial_user_factors(),
            config,
            self.privacy,
            train.num_items,
            round_rng=self._round_sampler_rng,
            store=self._store,
        )
        self._setup_attack()

    @property
    def round_index(self) -> int:
        """The authoritative round counter (the server's, empty rounds included)."""
        return self.server.rounds_applied

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _initial_user_factors(self) -> np.ndarray:
        """The benign users' initial vectors, one row per user.

        Each row is drawn from its own per-user seed, the way each user's
        client would draw its own vector.
        """
        seeds = self._seeds.generator("benign-clients").integers(
            0, 2**62, size=self.train.num_users
        )
        user_factors = np.empty((self.train.num_users, self.config.num_factors))
        for user, seed in enumerate(seeds):
            user_factors[user] = ensure_rng(int(seed)).normal(
                0.0, self.config.init_scale, size=self.config.num_factors
            )
        return user_factors

    def _build_malicious_clients(self) -> dict[int, MaliciousClient]:
        clients: dict[int, MaliciousClient] = {}
        client_rngs = self._seeds.generator("malicious-clients")
        seeds = client_rngs.integers(0, 2**62, size=max(self.num_malicious, 1))
        for index in range(self.num_malicious):
            client_id = self.train.num_users + index
            clients[client_id] = MaliciousClient(
                client_id=client_id,
                num_items=self.train.num_items,
                num_factors=self.config.num_factors,
                learning_rate=self.config.learning_rate,
                init_scale=self.config.init_scale,
                l2_reg=self.config.l2_reg,
                rng=int(seeds[index]),
            )
        return clients

    def _setup_attack(self) -> None:
        if self.attack is None:
            return
        if self.target_items is None:
            raise FederationError("an attack requires target_items")
        from repro.attacks.base import AttackContext  # local import avoids a cycle

        context = AttackContext(
            num_items=self.train.num_items,
            num_factors=self.config.num_factors,
            target_items=self.target_items,
            malicious_client_ids=sorted(self.malicious_clients),
            learning_rate=self.config.learning_rate,
            clip_norm=self.config.clip_norm,
            item_popularity=self.train.item_popularity,
            full_train=self.train,
            rng=self._seeds.generator("attack"),
        )
        self.attack.setup(context, self.malicious_clients)

    # ------------------------------------------------------------------ #
    # Training loop
    # ------------------------------------------------------------------ #
    def run(self, num_epochs: int | None = None) -> SimulationResult:
        """Run federated training and return the final metrics and model.

        Each epoch shuffles all clients (benign and malicious) into rounds of
        ``config.clients_per_round`` and runs the per-round protocol:
        attacker hook, batched local training, optional DP privatisation,
        aggregation, one server SGD step.  Accuracy and
        exposure are evaluated at the configured cadence and always after the
        final epoch.

        Parameters
        ----------
        num_epochs:
            Override for ``config.num_epochs`` (must be positive).

        Returns
        -------
        SimulationResult
            Per-epoch :class:`~repro.federated.history.TrainingHistory` plus
            the final exposure/accuracy reports and model parameters.
        """
        epochs = self.config.num_epochs if num_epochs is None else int(num_epochs)
        if epochs <= 0:
            raise FederationError("num_epochs must be positive")
        # Only None means "use the default cadence"; non-positive values were
        # rejected at construction.
        evaluate_every = (
            self.evaluate_every if self.evaluate_every is not None else max(1, epochs // 10)
        )
        history = TrainingHistory()
        self._history = history
        self._pending_arrivals = {}

        for epoch in range(1, epochs + 1):
            self._current_epoch = epoch
            epoch_loss = self._run_epoch()
            should_evaluate = epoch % evaluate_every == 0 or epoch == epochs
            accuracy, exposure = self._evaluate() if should_evaluate else (None, None)
            history.append(
                EpochRecord(
                    epoch=epoch,
                    training_loss=epoch_loss,
                    accuracy=accuracy,
                    exposure=exposure,
                )
            )

        # Stale-merge updates whose arrival round never came are lost when
        # training ends; account for every one of them in the incident log.
        for arrival_round in sorted(self._pending_arrivals):
            for update in self._pending_arrivals[arrival_round]:
                self._log_incident(
                    "straggler-expired",
                    (update.client_id,),
                    f"stale update scheduled for round {arrival_round} "
                    "never merged (training ended first)",
                )
        self._pending_arrivals = {}

        return SimulationResult(
            history=history,
            exposure=history.final_exposure(),
            accuracy=history.final_accuracy(),
            item_factors=self.server.item_factors.copy(),
            user_factors=self.gather_user_factors(),
            rounds_applied=self.server.rounds_applied,
        )

    def _run_epoch(self) -> float:
        """One pass over all clients in random batches; returns the benign loss."""
        order = self._schedule_rng.permutation(self._all_client_ids)
        batch_size = self.config.clients_per_round
        epoch_loss = 0.0
        for start in range(0, order.shape[0], batch_size):
            epoch_loss += self._run_round(order[start : start + batch_size])
        return epoch_loss

    def _run_round(self, batch: np.ndarray) -> float:
        """One aggregation round over the selected ``batch`` of clients.

        With federation dynamics enabled, the round's fault realization is
        drawn first (aborting-and-redrawing below the reporter quorum,
        before any training stream is consumed); dropped clients are removed
        from the participant set entirely — they never train and never
        report — while crashed clients and stragglers train with the round
        and have their uploads disposed of afterwards.
        """
        round_index = self.server.rounds_applied
        faults = self._draw_round_faults(batch, round_index)
        if faults is not None and faults.dropped:
            participants = batch[~np.isin(batch, np.asarray(faults.dropped, dtype=np.int64))]
        else:
            participants = batch
        selected_malicious: list[int] = participants[
            participants >= self.train.num_users
        ].tolist()
        if self.attack is not None and selected_malicious:
            self.attack.on_round_start(
                round_index, self.server.item_factors, selected_malicious
            )
        return self._train_round(participants, round_index, selected_malicious, faults)

    def _train_round(
        self,
        batch: np.ndarray,
        round_index: int,
        selected_malicious: list[int],
        faults: RoundFaults | None = None,
    ) -> float:
        """Train, dispose of and apply one round; returns its benign loss.

        All benign clients train in one stacked computation.  ``batch`` is
        the round's *participant* set (dropped clients already removed).
        With a fault realization or pending stale arrivals in play, the
        round structure is materialised to per-client updates so
        crash/straggler dispositions can filter them; the zero-fault round
        keeps the lazy structured path untouched.
        """
        round_updates, round_loss = self._trainer.train_round(
            batch[batch < self.train.num_users], self.server.item_factors
        )
        if self.attack is not None and selected_malicious:
            crafted = [
                self.attack.craft_update(
                    self.malicious_clients[cid], self.server.item_factors, round_index
                )
                for cid in selected_malicious
            ]
            round_updates = round_updates.extended(u for u in crafted if u is not None)
        if (faults is not None and not faults.is_clean) or self._pending_arrivals:
            updates = self._apply_dispositions(
                round_updates.to_client_updates(), faults, round_index
            )
            if self.update_observer is not None:
                self.update_observer(round_index, updates)
            self.server.apply_round(updates)
            return round_loss
        if self.update_observer is not None:
            self.update_observer(round_index, round_updates.to_client_updates())
        self.server.apply_round(round_updates)
        return round_loss

    # ------------------------------------------------------------------ #
    # Federation dynamics
    # ------------------------------------------------------------------ #
    def _log_incident(
        self, kind: str, client_ids: tuple[int, ...], detail: str
    ) -> None:
        """Append one degradation event to the active history's incident log."""
        if self._history is None:
            return
        self._history.record_incident(
            RoundIncident(
                round_index=self.server.rounds_applied,
                epoch=self._current_epoch,
                kind=kind,
                client_ids=client_ids,
                detail=detail,
            )
        )

    def _draw_round_faults(
        self, batch: np.ndarray, round_index: int
    ) -> RoundFaults | None:
        """Draw the round's fault realization, enforcing the reporter quorum.

        A draw whose planned reporter count — sampled clients minus dropouts,
        crashes and (under a non-``"wait"`` policy) stragglers — falls below
        ``min(min_reporters, batch size)`` aborts *before any training stream
        is consumed*, logs a ``"quorum-abort"`` incident and redraws; ten
        consecutive failed draws raise :class:`FederationError`.  Returns
        ``None`` when dynamics are disabled.
        """
        if self._dynamics is None:
            return None
        batch_size = int(batch.shape[0])
        quorum = min(self.config.min_reporters, batch_size)
        policy = self.config.straggler_policy
        for _ in range(10):
            faults = self._dynamics.draw(round_index, batch)
            planned = batch_size - len(faults.dropped) - len(faults.crashed)
            if policy != "wait":
                planned -= len(faults.stragglers)
            if planned >= quorum:
                if faults.dropped:
                    self._log_incident(
                        "client-dropout",
                        tuple(sorted(faults.dropped)),
                        f"{len(faults.dropped)} of {batch_size} sampled "
                        "clients dropped out (never trained, never reported)",
                    )
                if faults.crashed:
                    self._log_incident(
                        "client-crash",
                        tuple(sorted(faults.crashed)),
                        f"{len(faults.crashed)} of {batch_size} sampled "
                        "clients crashed mid-update (uploads discarded)",
                    )
                if faults.stragglers:
                    self._log_incident(
                        "straggler",
                        tuple(sorted(faults.stragglers)),
                        f"{len(faults.stragglers)} of {batch_size} sampled "
                        f"clients straggled (policy={policy!r})",
                    )
                return faults
            failing = tuple(
                sorted(faults.dropped + faults.crashed + faults.stragglers)
            )
            self._log_incident(
                "quorum-abort",
                failing,
                f"planned reporters {planned} below quorum {quorum}; "
                "round aborted before training and its fault schedule redrawn",
            )
        raise FederationError(
            f"round {round_index} failed its reporter quorum ({quorum}) "
            "after 10 fault-schedule redraws; lower min_reporters or the "
            "fault rates"
        )

    def _collect_arrivals(self, round_index: int) -> list[ClientUpdate]:
        """Pop every stale-merge update whose arrival round has come."""
        if not self._pending_arrivals:
            return []
        due = sorted(
            arrival for arrival in self._pending_arrivals if arrival <= round_index
        )
        arrivals: list[ClientUpdate] = []
        for arrival in due:
            arrivals.extend(self._pending_arrivals.pop(arrival))
        return arrivals

    def _apply_dispositions(
        self,
        updates: list[ClientUpdate],
        faults: RoundFaults | None,
        round_index: int,
    ) -> list[ClientUpdate]:
        """Apply the round's crash/straggler dispositions to its uploads.

        Crashed clients' uploads are discarded; stragglers' uploads follow
        ``straggler_policy`` (kept under ``"wait"``, dropped under
        ``"discard"``, held back and merged ``delay`` rounds later under
        ``"stale-merge"``).  Stale arrivals due this round are appended at
        the end, after the round's own reporters, in arrival order.
        """
        arrivals = self._collect_arrivals(round_index)
        if faults is None or faults.is_clean:
            return updates + arrivals if arrivals else updates
        policy = self.config.straggler_policy
        crashed = faults.crashed_set
        stragglers = faults.straggler_set
        kept: list[ClientUpdate] = []
        for update in updates:
            cid = update.client_id
            if cid in crashed:
                continue
            if cid in stragglers:
                if policy == "discard":
                    continue
                if policy == "stale-merge":
                    arrival = round_index + faults.delays.get(cid, 1)
                    self._pending_arrivals.setdefault(arrival, []).append(update)
                    continue
            kept.append(update)
        return kept + arrivals

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def gather_user_factors(self) -> np.ndarray:
        """A copy of the benign users' private vectors (analysis only)."""
        return self._trainer.user_factors.copy()

    def score_block_function(self) -> Callable[[np.ndarray], np.ndarray]:
        """Return a function scoring a block of benign users in one shot.

        This is the scoring primitive of evaluation: it maps an array of
        user ids to their stacked ``(B, num_items)`` score matrix, one
        ``U_block @ V.T`` product.
        """
        item_factors = self.server.item_factors
        user_factors = self.gather_user_factors()
        return lambda users: user_factors[users] @ item_factors.T

    def _evaluate(self) -> tuple[AccuracyReport | None, ExposureReport | None]:
        """One evaluation epoch through :meth:`score_block_function`.

        One :func:`~repro.metrics.evaluation.evaluate_snapshot` call serves
        both protocols: it scores each user block once and reads every
        metric from that block.  The sampled protocol draws its negatives
        from the ``"evaluation"`` stream, one stacked draw per user block;
        the full-rank protocol draws nothing.
        """
        if self.test_items is None and self.target_items is None:
            return None, None
        result = evaluate_snapshot(
            self.score_block_function(),
            self.train,
            test_items=self.test_items,
            target_items=self.target_items,
            k=10,
            num_negatives=self.eval_num_negatives,
            rng=self._eval_rng,
        )
        return result.accuracy, result.exposure
