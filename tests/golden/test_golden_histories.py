"""Golden seed-history regression suite.

Replays every case in :mod:`golden_cases` through the real experiment
pipeline and asserts the full metric history — training loss, HR/NDCG,
ER/target-NDCG, epoch by epoch — is **bit-identical** to the committed
fixture.  This is what turns the package's "same seed -> same history"
claims into a regression gate: any change to any RNG stream, aggregation
order, evaluation draw or metric reduction shows up here as a failing test,
and an *intentional* contract change shows up as an explicit fixture diff
(see ``regenerate.py``).
"""

from __future__ import annotations

import json

import pytest

from golden_cases import FIXTURES_DIR, GOLDEN_CASES, run_case
from repro.federated.switches import SWITCH_REGISTRY


def _load_fixture(name: str) -> dict:
    path = FIXTURES_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden fixture {path.name} — run "
        "`PYTHONPATH=src python tests/golden/regenerate.py` and commit it"
    )
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_history_matches_committed_fixture(name):
    fixture = _load_fixture(name)
    assert fixture["config"] == GOLDEN_CASES[name], (
        f"golden case {name!r} definition drifted from its committed fixture "
        "— regenerate the fixture if the change is intentional"
    )
    replayed = run_case(name)
    committed = fixture["result"]
    assert replayed["target_items"] == committed["target_items"]
    assert replayed["num_malicious"] == committed["num_malicious"]
    assert replayed.get("incidents", []) == committed.get("incidents", []), (
        f"degradation history of {name!r} drifted — the fault schedule is "
        "seeded, so incidents must replay exactly"
    )
    assert len(replayed["history"]) == len(committed["history"])
    for got, expected in zip(replayed["history"], committed["history"]):
        assert got == expected, (
            f"seed history of {name!r} drifted at epoch {expected['epoch']}: "
            f"replayed {got}, committed {expected} — if this change is "
            "intentional, regenerate the fixtures and explain the contract "
            "change in the commit"
        )


def test_every_fixture_has_a_case():
    """Orphan fixtures mean a renamed/removed case left stale goldens behind."""
    committed = {path.stem for path in FIXTURES_DIR.glob("*.json")}
    assert committed == set(GOLDEN_CASES)


def test_fixture_histories_are_fully_populated():
    """Every committed case evaluated every epoch (the cases pin streams —
    an unevaluated epoch would silently weaken the gate)."""
    for name in GOLDEN_CASES:
        fixture = _load_fixture(name)
        history = fixture["result"]["history"]
        assert len(history) == GOLDEN_CASES[name]["num_epochs"]
        for record in history:
            assert record["accuracy"] is not None
            assert record["accuracy"]["num_evaluated_users"] > 0


@pytest.mark.parametrize(
    "spec",
    [spec for spec in SWITCH_REGISTRY if spec.kind == "choice"],
    ids=lambda spec: spec.name,
)
def test_every_choice_has_a_golden_case(spec):
    """Each value of a choice switch pins its own seed history.  Cases set
    the value explicitly: a run that merely inherits the default does not
    count, so deleting the default's case fails too."""
    pinned = {case[spec.name] for case in GOLDEN_CASES.values() if spec.name in case}
    assert pinned == set(spec.choices)
