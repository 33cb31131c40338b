"""Federation dynamics: seeded churn, stragglers, quorum and determinism.

The dynamics layer must be *replayable chaos*: every dropout, crash,
straggler disposition and quorum abort is drawn from the dedicated
``"fault-schedule"`` stream, so one seed fixes the full degradation history —
identical between the library round and its per-client reference
(:class:`oracles.LoopRoundSimulation`), with and without an attack.  This
suite pins that contract plus the per-policy semantics: ``"wait"`` merges
stragglers normally, ``"discard"`` drops them, ``"stale-merge"`` holds them
for a later round (and records the ones training ends before), and
``min_reporters`` aborts-and-redraws rounds that could not meet quorum.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.exceptions import ConfigurationError, FederationError
from repro.federated.config import FederatedConfig
from repro.federated.dynamics import FaultSchedule, RoundIncident
from repro.federated.simulation import FederatedSimulation
from repro.federated.switches import SWITCH_REGISTRY
from repro.rng import SeedSequenceFactory

from oracles import LoopFedRecAttack, LoopRoundSimulation

#: The churn mix used by the determinism grid: every fault class enabled.
DYNAMICS = dict(
    dropout_rate=0.2,
    crash_rate=0.1,
    straggler_rate=0.2,
    straggler_policy="stale-merge",
    min_reporters=2,
)

#: The suite's straggler-policy axis; ``test_axis_is_the_registry_choices``
#: keeps it equal to the registry's choices.
STRAGGLER_POLICIES = ("wait", "discard", "stale-merge")

_STRAGGLER_SPEC = next(spec for spec in SWITCH_REGISTRY if spec.name == "straggler_policy")

INCIDENT_KINDS = {
    "client-dropout",
    "client-crash",
    "straggler",
    "quorum-abort",
    "straggler-expired",
}


def _run(
    small_split, small_public, small_targets, scenario="benign", engine="library", **kwargs
):
    """One run through the library round (``engine="library"``) or the
    per-client reference round (``engine="oracle"``)."""
    attack = None
    num_malicious = 0
    if scenario == "fedrecattack":
        attack_class = LoopFedRecAttack if engine == "oracle" else FedRecAttack
        attack = attack_class(
            small_public,
            FedRecAttackConfig(kappa=12, approx_epochs_initial=3, approx_epochs_per_round=1),
        )
        num_malicious = 4
    defaults = dict(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=2,
    )
    defaults.update(kwargs)
    observed: list[tuple[int, int]] = []
    simulation_class = LoopRoundSimulation if engine == "oracle" else FederatedSimulation
    simulation = simulation_class(
        train=small_split.train,
        config=FederatedConfig(**defaults),
        test_items=small_split.test_items,
        target_items=small_targets,
        attack=attack,
        num_malicious=num_malicious,
        seed=SeedSequenceFactory(41),
        eval_num_negatives=20,
        update_observer=lambda round_index, updates: observed.append(
            (round_index, len(updates))
        ),
    )
    return simulation.run(), observed


def _assert_bit_identical(result_a, result_b):
    np.testing.assert_array_equal(
        np.asarray(result_a.history.training_loss()),
        np.asarray(result_b.history.training_loss()),
    )
    np.testing.assert_array_equal(result_a.item_factors, result_b.item_factors)
    assert result_a.incidents == result_b.incidents


class TestFaultSchedule:
    def _schedule(self, seed=7, **kwargs):
        defaults = dict(dropout_rate=0.3, crash_rate=0.2, straggler_rate=0.25)
        defaults.update(kwargs)
        return FaultSchedule(
            rng=SeedSequenceFactory(seed).generator("fault-schedule"), **defaults
        )

    def test_same_seed_draws_identical_schedule(self):
        clients = np.arange(32, dtype=np.int64)
        draws_a = [self._schedule().draw(r, clients) for r in range(5)]
        draws_b = [self._schedule().draw(r, clients) for r in range(5)]
        assert draws_a == draws_b

    def test_at_most_one_fault_per_client(self):
        schedule = self._schedule(dropout_rate=0.5, crash_rate=0.5, straggler_rate=0.5)
        for round_index in range(20):
            faults = schedule.draw(round_index, np.arange(40, dtype=np.int64))
            assert not set(faults.dropped) & faults.crashed_set
            assert not set(faults.dropped) & faults.straggler_set
            assert not faults.crashed_set & faults.straggler_set
            assert set(faults.delays) == faults.straggler_set

    def test_fixed_shape_draws_isolate_rate_changes(self):
        # Turning the straggler class on must not move the dropout/crash
        # realizations: every round consumes a fixed-shape stream slice.
        clients = np.arange(32, dtype=np.int64)
        without = self._schedule(straggler_rate=0.0)
        with_stragglers = self._schedule(straggler_rate=0.9)
        for round_index in range(10):
            faults_a = without.draw(round_index, clients)
            faults_b = with_stragglers.draw(round_index, clients)
            assert faults_a.dropped == faults_b.dropped
            assert faults_a.crashed == faults_b.crashed
            assert not faults_a.stragglers

    def test_zero_rates_draw_clean_rounds(self):
        schedule = self._schedule(dropout_rate=0.0, crash_rate=0.0, straggler_rate=0.0)
        for round_index in range(5):
            assert schedule.draw(round_index, np.arange(16, dtype=np.int64)).is_clean

    def test_empty_batch_is_clean(self):
        faults = self._schedule().draw(0, np.empty(0, dtype=np.int64))
        assert faults.is_clean

    def test_rate_validation(self):
        with pytest.raises(FederationError, match=r"dropout_rate must be in \[0, 1\]"):
            self._schedule(dropout_rate=1.5)
        with pytest.raises(FederationError, match="straggler_delay must be at least 1"):
            FaultSchedule(0.1, 0.1, 0.1, rng=np.random.default_rng(0), straggler_delay=0)


class TestSwitchValidation:
    def test_rates_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError, match=r"dropout_rate must be in \[0, 1\]"):
            FederatedConfig(dropout_rate=1.5).validate()
        with pytest.raises(ConfigurationError, match=r"crash_rate must be in \[0, 1\]"):
            FederatedConfig(crash_rate=-0.1).validate()
        with pytest.raises(ConfigurationError, match=r"straggler_rate must be in \[0, 1\]"):
            FederatedConfig(straggler_rate=2.0).validate()

    def test_boundary_rates_accepted(self):
        FederatedConfig(dropout_rate=0.0, crash_rate=1.0, straggler_rate=0.5).validate()

    def test_unknown_straggler_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="straggler_policy must be"):
            FederatedConfig(straggler_policy="hope").validate()

    def test_known_straggler_policies_accepted(self):
        for policy in STRAGGLER_POLICIES:
            FederatedConfig(straggler_policy=policy).validate()

    def test_negative_min_reporters_rejected(self):
        with pytest.raises(ConfigurationError, match="min_reporters must be at least 0"):
            FederatedConfig(min_reporters=-1).validate()


class TestDynamicsDeterminism:
    def test_defaults_record_no_incidents(self, small_split, small_public, small_targets):
        result, _ = _run(small_split, small_public, small_targets, num_epochs=1)
        assert result.incidents == []

    def test_same_seed_same_degradation_history(
        self, small_split, small_public, small_targets
    ):
        result_a, _ = _run(small_split, small_public, small_targets, **DYNAMICS)
        result_b, _ = _run(small_split, small_public, small_targets, **DYNAMICS)
        _assert_bit_identical(result_a, result_b)
        assert result_a.incidents

    @pytest.mark.parametrize("negatives", ("resampled", "fixed"))
    @pytest.mark.parametrize("scenario", ("benign", "fedrecattack"))
    def test_engines_agree_under_faults(
        self, small_split, small_public, small_targets, scenario, negatives
    ):
        # Epoch-1 dropouts leave clients that never drew, so under fixed
        # negatives the epoch-2 rounds mix cached and fresh rows.
        dynamics = {**DYNAMICS, "resample_negatives_each_epoch": negatives == "resampled"}
        loop_result, _ = _run(
            small_split, small_public, small_targets, scenario, engine="oracle", **dynamics
        )
        vec_result, _ = _run(small_split, small_public, small_targets, scenario, **dynamics)
        np.testing.assert_allclose(
            np.asarray(loop_result.history.training_loss()),
            np.asarray(vec_result.history.training_loss()),
            rtol=1e-12,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            loop_result.item_factors, vec_result.item_factors, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            loop_result.user_factors, vec_result.user_factors, rtol=1e-12, atol=1e-12
        )
        assert loop_result.incidents == vec_result.incidents


class TestReplayUnderFaults:
    @pytest.mark.parametrize("engine", ("oracle", "library"))
    @pytest.mark.parametrize("policy", STRAGGLER_POLICIES)
    @pytest.mark.parametrize("scenario", ("benign", "fedrecattack"))
    def test_replay_bit_identical(
        self, small_split, small_public, small_targets, scenario, policy, engine
    ):
        # One seed fixes the whole degradation history under every straggler
        # disposition: faults, quorum redraws, the reporter sets each round
        # merges and the trained parameters.
        dynamics = {**DYNAMICS, "straggler_policy": policy}
        result_a, observed_a = _run(
            small_split, small_public, small_targets, scenario, engine=engine, **dynamics
        )
        result_b, observed_b = _run(
            small_split, small_public, small_targets, scenario, engine=engine, **dynamics
        )
        _assert_bit_identical(result_a, result_b)
        assert observed_a == observed_b
        assert any(incident.kind == "straggler" for incident in result_a.incidents)

    @pytest.mark.parametrize("policy", ("wait", "discard"))
    @pytest.mark.parametrize("scenario", ("benign", "fedrecattack"))
    def test_engines_agree_under_policy(
        self, small_split, small_public, small_targets, scenario, policy
    ):
        dynamics = {**DYNAMICS, "straggler_policy": policy}
        loop_result, loop_observed = _run(
            small_split, small_public, small_targets, scenario, engine="oracle", **dynamics
        )
        vec_result, vec_observed = _run(
            small_split, small_public, small_targets, scenario, **dynamics
        )
        np.testing.assert_allclose(
            np.asarray(loop_result.history.training_loss()),
            np.asarray(vec_result.history.training_loss()),
            rtol=1e-12,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            loop_result.item_factors, vec_result.item_factors, rtol=1e-12, atol=1e-12
        )
        assert loop_result.incidents == vec_result.incidents
        assert loop_observed == vec_observed


class TestStragglerPolicies:
    def test_axis_is_the_registry_choices(self):
        assert STRAGGLER_POLICIES == _STRAGGLER_SPEC.choices

    @pytest.mark.parametrize(
        "policies",
        list(itertools.combinations(_STRAGGLER_SPEC.choices, 2)),
        ids="-vs-".join,
    )
    def test_each_policy_trains_differently(
        self, small_split, small_public, small_targets, policies
    ):
        # Dispatch by behaviour: one seed draws one fault schedule, so two
        # policies train to the same item factors only if the round treats
        # their stragglers alike -- a value without its own branch falls
        # through to another's.  No quorum, so no policy redraws a round.
        first, second = (
            _run(
                small_split,
                small_public,
                small_targets,
                straggler_rate=0.4,
                straggler_policy=policy,
                num_epochs=1,
            )[0].item_factors
            for policy in policies
        )
        assert not np.array_equal(first, second)

    def test_wait_policy_reports_everyone(self, small_split, small_public, small_targets):
        # "wait": stragglers are logged but their updates merge normally, so
        # reporter counts equal participant counts (batch minus drop/crash).
        result, observed = _run(
            small_split,
            small_public,
            small_targets,
            straggler_rate=0.4,
            straggler_policy="wait",
            num_epochs=1,
        )
        stragglers = [i for i in result.incidents if i.kind == "straggler"]
        assert stragglers
        assert all("wait" in incident.detail for incident in stragglers)
        # No dropout/crash: every sampled client reports in its own round.
        assert sum(count for _, count in observed) == small_split.train.num_users

    def test_discard_policy_drops_stragglers(
        self, small_split, small_public, small_targets
    ):
        result, observed = _run(
            small_split,
            small_public,
            small_targets,
            straggler_rate=0.4,
            straggler_policy="discard",
            num_epochs=1,
        )
        stragglers = [i for i in result.incidents if i.kind == "straggler"]
        assert stragglers
        assert all("discard" in incident.detail for incident in stragglers)
        discarded = sum(len(incident.client_ids) for incident in stragglers)
        assert discarded > 0
        assert (
            sum(count for _, count in observed)
            == small_split.train.num_users - discarded
        )

    def test_stale_merge_shifts_reports_to_later_rounds(
        self, small_split, small_public, small_targets
    ):
        result, observed = _run(
            small_split,
            small_public,
            small_targets,
            straggler_rate=0.4,
            straggler_policy="stale-merge",
            num_epochs=1,
        )
        stragglers = [i for i in result.incidents if i.kind == "straggler"]
        assert stragglers
        assert all("stale-merge" in incident.detail for incident in stragglers)
        expired = [i for i in result.incidents if i.kind == "straggler-expired"]
        held = sum(len(incident.client_ids) for incident in stragglers)
        lost = sum(len(incident.client_ids) for incident in expired)
        # Every held update either merged in a later round or expired when
        # training ended — no silent loss.
        assert (
            sum(count for _, count in observed)
            == small_split.train.num_users - lost
        )
        assert lost <= held

    def test_loss_is_accounted_in_training_round(
        self, small_split, small_public, small_targets
    ):
        # Dispositions move *reports*, never the loss ledger: a run whose
        # stragglers are discarded logs the same training loss as a run that
        # waits for them (same seed, same training work).  One batch per
        # epoch keeps the comparison to the single round trained against the
        # identical starting model.
        waited, _ = _run(
            small_split,
            small_public,
            small_targets,
            straggler_rate=0.4,
            straggler_policy="wait",
            clients_per_round=80,
            num_epochs=1,
        )
        discarded, _ = _run(
            small_split,
            small_public,
            small_targets,
            straggler_rate=0.4,
            straggler_policy="discard",
            clients_per_round=80,
            num_epochs=1,
        )
        assert (
            waited.history.training_loss()[0] == discarded.history.training_loss()[0]
        )


class TestQuorum:
    def test_unreachable_quorum_aborts_with_clear_error(
        self, small_split, small_public, small_targets
    ):
        with pytest.raises(FederationError, match="failed its reporter quorum"):
            _run(
                small_split,
                small_public,
                small_targets,
                dropout_rate=0.5,
                min_reporters=32,
                num_epochs=1,
            )

    def test_abort_and_resample_recovers(self, small_split, small_public, small_targets):
        result, _ = _run(
            small_split,
            small_public,
            small_targets,
            dropout_rate=0.25,
            min_reporters=12,
            clients_per_round=16,
            num_epochs=1,
        )
        aborts = [i for i in result.incidents if i.kind == "quorum-abort"]
        assert aborts
        assert all("below quorum" in incident.detail for incident in aborts)
        # The run completed: every round eventually met its quorum.
        assert result.history.training_loss()

    def test_crashes_count_against_quorum(self, small_split, small_public, small_targets):
        # Crashed clients train but never report, so a full-batch quorum is
        # unreachable under a high crash rate too.
        with pytest.raises(FederationError, match="failed its reporter quorum"):
            _run(
                small_split,
                small_public,
                small_targets,
                crash_rate=0.5,
                min_reporters=32,
                num_epochs=1,
            )


class TestIncidentRecords:
    def test_incident_structure(self, small_split, small_public, small_targets):
        result, _ = _run(small_split, small_public, small_targets, **DYNAMICS)
        assert result.incidents
        for incident in result.incidents:
            assert isinstance(incident, RoundIncident)
            assert incident.kind in INCIDENT_KINDS
            assert incident.round_index >= 0
            assert incident.epoch >= 1
            assert list(incident.client_ids) == sorted(incident.client_ids)
            assert incident.detail

    def test_incidents_surface_on_result_and_history(
        self, small_split, small_public, small_targets
    ):
        result, _ = _run(small_split, small_public, small_targets, **DYNAMICS)
        assert result.incidents is result.history.incidents
