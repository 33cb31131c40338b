"""Golden seed-history case definitions and replay helpers.

The package's "same seed -> same history" claims are pinned to *committed*
fixtures: each case is one small-but-complete ``run_experiment`` run (real
pipeline — synthetic dataset, leave-one-out split, public sampling, target
selection, attack construction, federated training, periodic evaluation)
whose full metric history is serialized to JSON and replayed bit-identically
by ``test_golden_histories.py``.

The grid covers benign and FedRecAttack runs of the MF recommender, plus
one case per straggler policy under federation dynamics, so each value of
the one remaining choice switch has a committed history;
``test_every_choice_has_a_golden_case`` checks that against the switch
registry.  A silent cross-version drift of *any* stream (client RNG, round
sampler, privacy noise, attack randomness, evaluation negatives, fault
schedule) fails the suite.

Intentional contract changes are an explicit diff: edit the case or the
code, run ``REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python
tests/golden/regenerate.py``, and commit the fixture change next to the
code change.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"

#: Shared base of every golden case: a miniature of the paper's ml-100k
#: pipeline that trains in well under a second but still exercises every
#: stream (sampled-protocol evaluation included).
_BASE = dict(
    dataset="ml-100k",
    scale=0.05,
    xi=0.1,
    kappa=20,
    num_epochs=3,
    clients_per_round=16,
    num_factors=8,
    eval_num_negatives=19,
    evaluate_every=1,
    seed=20220426,
)

_BENIGN = dict(attack="none", rho=0.0)
_ATTACK = dict(attack="fedrecattack", rho=0.2)

GOLDEN_CASES: dict[str, dict] = {
    "mf-benign": {**_BASE, **_BENIGN},
    "mf-attack": {**_BASE, **_ATTACK},
}
# Federation dynamics: seeded churn/straggler realizations are part of the
# seed-history contract, so each straggler policy pins one
# degraded-but-deterministic history — including its full incident log.  The
# rates are moderate so every round still meets the min_reporters quorum
# without redraw storms.
_DYNAMICS = dict(
    dropout_rate=0.15,
    crash_rate=0.1,
    straggler_rate=0.2,
    min_reporters=2,
)
GOLDEN_CASES["mf-benign-dynamics-wait"] = {
    **_BASE,
    **_BENIGN,
    **_DYNAMICS,
    "straggler_policy": "wait",
}
GOLDEN_CASES["mf-benign-dynamics-discard"] = {
    **_BASE,
    **_BENIGN,
    **_DYNAMICS,
    "straggler_policy": "discard",
}
GOLDEN_CASES["mf-attack-dynamics-stale"] = {
    **_BASE,
    **_ATTACK,
    **_DYNAMICS,
    "straggler_policy": "stale-merge",
}


def serialize_result(result: ExperimentResult) -> dict:
    """The per-epoch metric history as a JSON-exact payload.

    Every float passes through ``json`` unchanged (``repr`` round-trips
    IEEE-754 doubles exactly), so fixture comparison is bit-comparison.
    """
    records = []
    for record in result.history.records:
        records.append(
            {
                "epoch": record.epoch,
                "training_loss": record.training_loss,
                "accuracy": None
                if record.accuracy is None
                else {
                    "hr_at_10": record.accuracy.hr_at_10,
                    "ndcg_at_10": record.accuracy.ndcg_at_10,
                    "num_evaluated_users": record.accuracy.num_evaluated_users,
                },
                "exposure": None
                if record.exposure is None
                else {
                    "er_at_5": record.exposure.er_at_5,
                    "er_at_10": record.exposure.er_at_10,
                    "ndcg_at_10": record.exposure.ndcg_at_10,
                },
            }
        )
    payload = {
        "target_items": [int(item) for item in result.target_items],
        "num_malicious": result.num_malicious,
        "history": records,
    }
    # The structured degradation log is part of a dynamics case's contract;
    # clean runs omit the key so the pre-dynamics fixtures stay byte-stable.
    if result.incidents:
        payload["incidents"] = [
            {
                "round_index": incident.round_index,
                "epoch": incident.epoch,
                "kind": incident.kind,
                "client_ids": list(incident.client_ids),
                "detail": incident.detail,
            }
            for incident in result.incidents
        ]
    return payload


def run_case(name: str) -> dict:
    """Replay one golden case and return its serialized history."""
    config = ExperimentConfig(**GOLDEN_CASES[name])
    return serialize_result(run_experiment(config))
