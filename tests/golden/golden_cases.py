"""Golden seed-history case definitions and replay helpers.

Four PRs of engine/sampler/evaluation switches rest on "same seed -> same
history" equivalence claims.  This module pins those claims to *committed*
fixtures: each case is one small-but-complete ``run_experiment`` run (real
pipeline — synthetic dataset, leave-one-out split, public sampling, target
selection, attack construction, federated training, periodic evaluation)
whose full metric history is serialized to JSON and replayed bit-identically
by ``test_golden_histories.py``.

The grid covers MF and the MLP scorer, benign and FedRecAttack runs, and
both round engines — plus dedicated cases pinning every remaining switch
realization (``eval_sampler="batched"``, ``sampler="batched"``,
``eval_engine="loop"``), so each protocol switch the config exposes has at
least one committed history per realization; the switch-parity lint rule
(R2) enforces that invariant statically.  Every case pins every switch
explicitly, so a silent cross-version drift of *any* stream (client RNG,
round sampler, privacy noise, attack randomness, evaluation negatives)
fails the suite.

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
    # Every protocol switch is pinned *explicitly* (not via config defaults)
    # so each realization below is a visible, statically checkable contract —
    # the switch-parity rule (R2) cross-checks this grid against the config.
    # The historical permutation sampler is the base; the batched default
    # pins its own cases below.
    sampler="permutation",
    eval_engine="vectorized",
    eval_sampler="per-user",
    eval_path="block",
)

_BENIGN = dict(attack="none", rho=0.0)
_ATTACK = dict(attack="fedrecattack", rho=0.2)

GOLDEN_CASES: dict[str, dict] = {}
for _model, _model_kwargs in (("mf", {}), ("mlp", {"use_learnable_scorer": True})):
    for _mode, _mode_kwargs in (("benign", _BENIGN), ("attack", _ATTACK)):
        for _engine in ("loop", "vectorized"):
            GOLDEN_CASES[f"{_model}-{_mode}-{_engine}"] = {
                **_BASE,
                **_model_kwargs,
                **_mode_kwargs,
                "engine": _engine,
            }
# The batched evaluation stream gets its own pinned histories, so future
# changes to its draw order are an explicit fixture diff too.
for _mode, _mode_kwargs in (("benign", _BENIGN), ("attack", _ATTACK)):
    GOLDEN_CASES[f"mf-{_mode}-eval-batched"] = {
        **_BASE,
        **_mode_kwargs,
        "engine": "vectorized",
        "eval_sampler": "batched",
    }
# The candidate-gather scoring route shares the block path's draws and rank
# comparisons, so these histories pin the realization of the arithmetic
# reroute itself (einsum/gathered-forward floats instead of the catalog
# GEMM) — one benign and one attacked case, under the batched stream so the
# gather also covers the stacked-draw segment layout.
for _mode, _mode_kwargs in (("benign", _BENIGN), ("attack", _ATTACK)):
    GOLDEN_CASES[f"mf-{_mode}-eval-candidates"] = {
        **_BASE,
        **_mode_kwargs,
        "engine": "vectorized",
        "eval_sampler": "batched",
        "eval_path": "candidates",
    }
# The remaining switch realizations each pin their histories: the batched
# negative sampler, the default (one stacked round-level draw instead of
# per-client streams, and one stacked draw per approximator epoch in the
# attacked case), and the loop evaluation engine (per-user scoring order).
for _mode, _mode_kwargs in (("benign", _BENIGN), ("attack", _ATTACK)):
    GOLDEN_CASES[f"mf-{_mode}-sampler-batched"] = {
        **_BASE,
        **_mode_kwargs,
        "engine": "vectorized",
        "sampler": "batched",
    }
GOLDEN_CASES["mf-benign-eval-loop"] = {
    **_BASE,
    **_BENIGN,
    "engine": "vectorized",
    "eval_engine": "loop",
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
    "engine": "vectorized",
    "straggler_policy": "wait",
}
GOLDEN_CASES["mf-benign-dynamics-discard"] = {
    **_BASE,
    **_BENIGN,
    **_DYNAMICS,
    "engine": "vectorized",
    "straggler_policy": "discard",
}
GOLDEN_CASES["mf-attack-dynamics-stale"] = {
    **_BASE,
    **_ATTACK,
    **_DYNAMICS,
    "engine": "vectorized",
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
