"""Benchmark: federated round throughput against the per-client reference.

Three measurements, all on synthetic datasets with the exact shapes of the
paper's evaluation datasets (Table II) and the protocol defaults (k = 32,
256 clients per round), each racing the library's batched round
(:class:`~repro.federated.simulation.FederatedSimulation`) against the
one-client-at-a-time reference of ``tests/oracles``
(:class:`oracles.LoopRoundSimulation`):

* ``test_perf_engine`` — benign rounds at the MovieLens-100K,
  MovieLens-1M and Steam-200K shapes.  Gates: the library >= 3x the
  reference at the ml-100k and at the steam-200k shape (whose sparse
  per-user activity gives the batched round the least to stack).
* ``test_perf_attack_rounds`` — attack-enabled rounds (FedRecAttack with its
  user-matrix approximation refresh and poisoned-gradient construction every
  round) at the ml-100k shape, the library attacker against the per-user
  references (:class:`oracles.LoopFedRecAttack`).  Gate: >= 3x.
* ``test_perf_engine_smoke`` — a fast (seconds) version of the ml-100k gate,
  run by CI on every push so speedup regressions fail the build without
  paying for the full sweep.

Both realizations draw every round's pairs from the same shared stream and
consume the attack stream identically, so the speedup is free of any
accuracy trade-off (see ``tests/test_federated_engine_equivalence.py``).

The latest timings land in ``benchmarks/results/local/perf_engine.json`` /
``.txt`` and ``perf_attack.json`` / ``.txt`` there (ignored by git).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once, save_perf_record

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.data.presets import get_preset
from repro.data.public import sample_public_interactions
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory

from oracles import LoopFedRecAttack, LoopRoundSimulation

NUM_FACTORS = 32
CLIENTS_PER_ROUND = 256
MIN_SPEEDUP = 3.0
GATE_SHAPE = "ml-100k"
SPARSE_GATE_SHAPE = "steam-200k"

#: (measured rounds, interleaved repeats) per dataset shape.  The larger
#: shapes run fewer repeats so the whole sweep stays laptop-friendly; the
#: ml-100k gate shape keeps the most careful measurement.
SHAPES: dict[str, tuple[int, int]] = {
    "ml-100k": (8, 3),
    "ml-1m": (8, 2),
    "steam-200k": (8, 2),
}

#: label -> simulation class of every measured realization.
VARIANTS: dict[str, type[FederatedSimulation]] = {
    "loop": LoopRoundSimulation,
    "library": FederatedSimulation,
}


def _build_dataset(name: str):
    preset = get_preset(name)
    return preset, generate_synthetic_dataset(
        SyntheticConfig.from_preset(preset),
        SeedSequenceFactory(2022).generator(f"perf-data-{name}"),
    )


def _build_simulation(dataset, variant: str, **kwargs) -> FederatedSimulation:
    config = FederatedConfig(
        num_factors=NUM_FACTORS,
        learning_rate=0.01,
        clients_per_round=CLIENTS_PER_ROUND,
        num_epochs=1,
    )
    return VARIANTS[variant](
        train=dataset,
        config=config,
        test_items=None,
        seed=SeedSequenceFactory(2022),
        **kwargs,
    )


def _round_batches(simulation: FederatedSimulation, num_rounds: int) -> list[np.ndarray]:
    """The first ``num_rounds`` client batches, drawing fresh epochs as needed."""
    batches: list[np.ndarray] = []
    while len(batches) < num_rounds:
        order = simulation._schedule_rng.permutation(simulation._all_client_ids)
        for start in range(0, order.shape[0], CLIENTS_PER_ROUND):
            batches.append(order[start : start + CLIENTS_PER_ROUND])
            if len(batches) == num_rounds:
                break
    return batches


def _time_rounds(simulation: FederatedSimulation, num_rounds: int) -> float:
    """Wall-clock seconds for ``num_rounds`` further training rounds."""
    batches = _round_batches(simulation, num_rounds)
    start = time.perf_counter()
    for batch in batches:
        simulation._run_round(batch)
    return time.perf_counter() - start


def _throughput(
    simulations: dict[str, FederatedSimulation], measured_rounds: int, repeats: int
) -> dict:
    """Interleaved best-of-``repeats`` rounds/sec for every realization.

    Each pass warms up first (allocators, caches, lazy imports — and, for
    attack runs, the expensive initial approximation epochs).  The
    realizations are interleaved and each keeps its best pass, so scheduler
    hiccups and CPU-frequency drift on shared boxes cannot skew the ratios.
    """
    for simulation in simulations.values():
        _time_rounds(simulation, 2)
    best = {label: float("inf") for label in simulations}
    for _ in range(repeats):
        for label, simulation in simulations.items():
            best[label] = min(best[label], _time_rounds(simulation, measured_rounds))
    payload: dict = {
        "num_factors": NUM_FACTORS,
        "clients_per_round": CLIENTS_PER_ROUND,
        "measured_rounds": measured_rounds,
    }
    for label in simulations:
        payload[f"{label}_rounds_per_sec"] = measured_rounds / best[label]
    payload["speedup"] = best["loop"] / best["library"]
    return payload


def _measure_shape(name: str, measured_rounds: int, repeats: int) -> dict:
    preset, dataset = _build_dataset(name)
    simulations = {label: _build_simulation(dataset, label) for label in VARIANTS}
    return {
        "dataset": preset.name,
        "num_users": preset.num_users,
        "num_items": preset.num_items,
        "num_interactions": preset.num_interactions,
        **_throughput(simulations, measured_rounds, repeats),
    }


def _measure_engines() -> dict:
    return {
        "shapes": [
            _measure_shape(name, measured_rounds, repeats)
            for name, (measured_rounds, repeats) in SHAPES.items()
        ]
    }


def test_perf_engine(benchmark):
    payload = run_once(benchmark, _measure_engines)

    lines = [
        "Round throughput (synthetic paper shapes, k=32, 256 clients/round)",
    ]
    for shape in payload["shapes"]:
        lines += [
            f"{shape['dataset']} ({shape['num_users']} users / {shape['num_items']} items)",
            f"  per-client reference: {shape['loop_rounds_per_sec']:8.2f} rounds/sec",
            f"  batched round:        {shape['library_rounds_per_sec']:8.2f} rounds/sec"
            f"  ({shape['speedup']:.2f}x)",
        ]
    save_perf_record("perf_engine", payload, "\n".join(lines))

    for gate_shape in (GATE_SHAPE, SPARSE_GATE_SHAPE):
        gate = next(s for s in payload["shapes"] if s["dataset"] == gate_shape)
        assert gate["speedup"] >= MIN_SPEEDUP, (
            f"the batched round is only {gate['speedup']:.2f}x faster than the "
            f"per-client reference at the {gate_shape} shape (required: {MIN_SPEEDUP}x)"
        )


# --------------------------------------------------------------------------- #
# CI smoke gate
# --------------------------------------------------------------------------- #

SMOKE_ROUNDS = 4
SMOKE_MIN_SPEEDUP = 2.0


def test_perf_engine_smoke(benchmark):
    """Fast batched-vs-reference regression gate (run by CI via ``-k smoke``).

    One interleaved pass at the ml-100k shape with a reduced round count; the
    threshold is deliberately lower than the full benchmark's so shared CI
    runners do not flake, while a genuine loss of the batched round's
    speedup (>5x when healthy) still fails the build.
    """

    def measure() -> dict:
        _, dataset = _build_dataset(GATE_SHAPE)
        simulations = {label: _build_simulation(dataset, label) for label in VARIANTS}
        return _throughput(simulations, SMOKE_ROUNDS, 1)

    payload = run_once(benchmark, measure)
    assert payload["speedup"] >= SMOKE_MIN_SPEEDUP, (
        f"the batched round is only {payload['speedup']:.2f}x faster than the "
        f"per-client reference in the smoke measurement (required: {SMOKE_MIN_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# Attack-enabled rounds
# --------------------------------------------------------------------------- #

ATTACK_MEASURED_ROUNDS = 8
ATTACK_REPEATS = 2
ATTACK_XI = 0.01
ATTACK_RHO = 0.05


def _build_attack_simulation(dataset, public, variant: str) -> FederatedSimulation:
    popularity = dataset.item_popularity
    target_items = np.argsort(popularity, kind="stable")[:5].astype(np.int64)
    attack_class = LoopFedRecAttack if variant == "loop" else FedRecAttack
    attack = attack_class(
        public,
        FedRecAttackConfig(approx_epochs_initial=5, approx_epochs_per_round=2),
    )
    num_malicious = int(np.ceil(ATTACK_RHO * dataset.num_users))
    return _build_simulation(
        dataset,
        variant,
        target_items=target_items,
        attack=attack,
        num_malicious=num_malicious,
    )


def _measure_attack() -> dict:
    preset, dataset = _build_dataset(GATE_SHAPE)
    public = sample_public_interactions(
        dataset, ATTACK_XI, rng=SeedSequenceFactory(2022).generator("perf-public")
    )
    simulations = {
        label: _build_attack_simulation(dataset, public, label) for label in VARIANTS
    }
    return {
        "dataset": preset.name,
        "attack": "FedRecAttack",
        "xi": ATTACK_XI,
        "rho": ATTACK_RHO,
        "active_public_users": int(public.users_with_public_interactions().shape[0]),
        **_throughput(simulations, ATTACK_MEASURED_ROUNDS, ATTACK_REPEATS),
    }


def test_perf_attack_rounds(benchmark):
    payload = run_once(benchmark, _measure_attack)

    save_perf_record(
        "perf_attack",
        payload,
        "\n".join(
            [
                "Attack-enabled round throughput (FedRecAttack, synthetic ML-100K shape,",
                f"xi={ATTACK_XI}, rho={ATTACK_RHO}, k={NUM_FACTORS}, "
                f"{CLIENTS_PER_ROUND} clients/round)",
                f"  per-user reference attacker: {payload['loop_rounds_per_sec']:8.2f} rounds/sec",
                f"  library attacker:            {payload['library_rounds_per_sec']:8.2f} "
                f"rounds/sec  ({payload['speedup']:.2f}x)",
            ]
        ),
    )

    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"the library attacker pipeline is only {payload['speedup']:.2f}x faster "
        f"than the per-user reference attacker (required: {MIN_SPEEDUP}x)"
    )
