"""Benchmark: round-engine and sampler throughput across configurations.

Three measurements, all on synthetic datasets with the exact shapes of the
paper's evaluation datasets (Table II) and the protocol defaults (k = 32,
256 clients per round):

* ``test_perf_engine`` — benign federated rounds at the MovieLens-100K,
  MovieLens-1M and Steam-200K shapes, measuring rounds/sec for three
  configurations: the ``loop`` reference, the ``vectorized`` engine
  (permutation sampler, bit-identical realizations to the reference), and
  ``batched`` (vectorized engine + batched sampler — the default
  configuration).  Gates: vectorized ≥ 3x at the ml-100k shape, batched ≥ 3x
  at the steam-200k shape (whose sparse per-user activity makes the
  permutation-sampler vectorized engine the weakest, ~2x).
* ``test_perf_attack_rounds`` — attack-enabled rounds (FedRecAttack with its
  user-matrix approximation refresh and poisoned-gradient construction every
  round) at the ml-100k shape, for the same three configurations.  Gates:
  vectorized ≥ 3x (the PR 2 contract) and batched strictly above the
  measured vectorized throughput (the approximation's per-user permutation
  draws were the dominant remaining cost).
* ``test_perf_engine_smoke`` — a fast (seconds) loop-vs-vectorized gate at
  the ml-100k shape, run by CI on every push so speedup regressions fail the
  build without paying for the full sweep.

``loop`` and ``vectorized`` consume identical per-client random streams, so
that speedup is free of any accuracy trade-off (see
``tests/test_federated_engine_equivalence.py``); ``batched`` is an exact
sampler with a different RNG contract, re-validated qualitatively by the
table/figure gates (which run under the batched default, and under
``REPRO_BENCH_SAMPLER=permutation``).

Results land in ``benchmarks/results/perf_engine.json`` / ``.txt`` and
``benchmarks/results/perf_attack.json`` / ``.txt``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import RESULTS_DIR, run_once

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.data.presets import get_preset
from repro.data.public import sample_public_interactions
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory

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

#: label -> FederatedConfig overrides of every measured configuration.  The
#: ``loop`` and ``vectorized`` cells pin the permutation sampler: they measure
#: the engines on the historical per-client streams, against which the
#: batched cells are compared.
VARIANTS: dict[str, dict] = {
    "loop": {"engine": "loop", "sampler": "permutation"},
    "vectorized": {"engine": "vectorized", "sampler": "permutation"},
    "batched": {"engine": "vectorized", "sampler": "batched"},
}

ATTACK_VARIANTS: dict[str, dict] = {
    "loop": {"engine": "loop", "sampler": "permutation"},
    "vectorized": {"engine": "vectorized", "sampler": "permutation"},
    "batched": {"engine": "vectorized", "sampler": "batched"},
}


def _build_dataset(name: str):
    preset = get_preset(name)
    return preset, generate_synthetic_dataset(
        SyntheticConfig.from_preset(preset),
        SeedSequenceFactory(2022).generator(f"perf-data-{name}"),
    )


def _build_simulation(dataset, variant: dict, **kwargs) -> FederatedSimulation:
    config = FederatedConfig(
        num_factors=NUM_FACTORS,
        learning_rate=0.01,
        clients_per_round=CLIENTS_PER_ROUND,
        num_epochs=1,
        **variant,
    )
    return FederatedSimulation(
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
    """Interleaved best-of-``repeats`` rounds/sec for every configuration.

    Each pass warms up first (allocators, caches, lazy imports — and, for
    attack runs, the expensive initial approximation epochs).  The
    configurations are interleaved and each keeps its best pass, so scheduler
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
    loop_rps = measured_rounds / best["loop"]
    for label in simulations:
        rps = measured_rounds / best[label]
        payload[f"{label}_rounds_per_sec"] = rps
        if label != "loop":
            payload[f"{label}_speedup"] = rps / loop_rps
    # Back-compat key used by earlier perf records and the smoke gate.
    payload["speedup"] = payload["vectorized_speedup"]
    return payload


def _measure_shape(name: str, measured_rounds: int, repeats: int) -> dict:
    preset, dataset = _build_dataset(name)
    simulations = {
        label: _build_simulation(dataset, variant) for label, variant in VARIANTS.items()
    }
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


def test_perf_engine(benchmark, save_result):
    payload = run_once(benchmark, _measure_engines)

    (RESULTS_DIR / "perf_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        "Round-engine throughput (synthetic paper shapes, k=32, 256 clients/round)",
        "batched = vectorized engine + batched sampler",
    ]
    for shape in payload["shapes"]:
        lines += [
            f"{shape['dataset']} ({shape['num_users']} users / {shape['num_items']} items)",
            f"  loop engine:       {shape['loop_rounds_per_sec']:8.2f} rounds/sec",
            f"  vectorized engine: {shape['vectorized_rounds_per_sec']:8.2f} rounds/sec"
            f"  ({shape['vectorized_speedup']:.2f}x)",
            f"  batched sampler:   {shape['batched_rounds_per_sec']:8.2f} rounds/sec"
            f"  ({shape['batched_speedup']:.2f}x)",
        ]
    save_result("perf_engine", "\n".join(lines))

    gate = next(s for s in payload["shapes"] if s["dataset"] == GATE_SHAPE)
    assert gate["vectorized_speedup"] >= MIN_SPEEDUP, (
        f"vectorized engine is only {gate['vectorized_speedup']:.2f}x faster than the loop "
        f"engine at the {GATE_SHAPE} shape (required: {MIN_SPEEDUP}x)"
    )
    sparse = next(s for s in payload["shapes"] if s["dataset"] == SPARSE_GATE_SHAPE)
    assert sparse["batched_speedup"] >= MIN_SPEEDUP, (
        f"the batched sampler is only {sparse['batched_speedup']:.2f}x "
        f"faster than the loop engine at the {SPARSE_GATE_SHAPE} shape "
        f"(required: {MIN_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# CI smoke gate
# --------------------------------------------------------------------------- #

SMOKE_ROUNDS = 4
SMOKE_MIN_SPEEDUP = 2.0


def test_perf_engine_smoke(benchmark):
    """Fast loop-vs-vectorized regression gate (run by CI via ``-k smoke``).

    One interleaved pass at the ml-100k shape with a reduced round count; the
    threshold is deliberately lower than the full benchmark's so shared CI
    runners do not flake, while a genuine loss of the vectorized speedup
    (which is >4x when healthy) still fails the build.
    """

    def measure() -> dict:
        _, dataset = _build_dataset(GATE_SHAPE)
        simulations = {
            label: _build_simulation(dataset, variant)
            for label, variant in VARIANTS.items()
        }
        return _throughput(simulations, SMOKE_ROUNDS, 1)

    payload = run_once(benchmark, measure)
    assert payload["vectorized_speedup"] >= SMOKE_MIN_SPEEDUP, (
        f"vectorized engine is only {payload['vectorized_speedup']:.2f}x faster than "
        f"the loop engine in the smoke measurement (required: {SMOKE_MIN_SPEEDUP}x)"
    )
    assert payload["batched_rounds_per_sec"] > payload["loop_rounds_per_sec"], (
        "the batched sampler must not be slower than the loop reference"
    )


# --------------------------------------------------------------------------- #
# Attack-enabled rounds
# --------------------------------------------------------------------------- #

ATTACK_MEASURED_ROUNDS = 8
ATTACK_REPEATS = 2
ATTACK_XI = 0.01
ATTACK_RHO = 0.05


def _build_attack_simulation(dataset, public, variant: dict) -> FederatedSimulation:
    popularity = dataset.item_popularity
    target_items = np.argsort(popularity, kind="stable")[:5].astype(np.int64)
    attack = FedRecAttack(
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
        label: _build_attack_simulation(dataset, public, variant)
        for label, variant in ATTACK_VARIANTS.items()
    }
    return {
        "dataset": preset.name,
        "attack": "FedRecAttack",
        "xi": ATTACK_XI,
        "rho": ATTACK_RHO,
        "active_public_users": int(public.users_with_public_interactions().shape[0]),
        **_throughput(simulations, ATTACK_MEASURED_ROUNDS, ATTACK_REPEATS),
    }


def test_perf_attack_rounds(benchmark, save_result):
    payload = run_once(benchmark, _measure_attack)

    (RESULTS_DIR / "perf_attack.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    save_result(
        "perf_attack",
        "\n".join(
            [
                "Attack-enabled round throughput (FedRecAttack, synthetic ML-100K shape,",
                f"xi={ATTACK_XI}, rho={ATTACK_RHO}, k={NUM_FACTORS}, "
                f"{CLIENTS_PER_ROUND} clients/round)",
                f"  loop attacker:       {payload['loop_rounds_per_sec']:8.2f} rounds/sec",
                f"  vectorized attacker: {payload['vectorized_rounds_per_sec']:8.2f} rounds/sec"
                f"  ({payload['vectorized_speedup']:.2f}x)",
                f"  + batched sampler:   {payload['batched_rounds_per_sec']:8.2f} rounds/sec"
                f"  ({payload['batched_speedup']:.2f}x)",
            ]
        ),
    )

    assert payload["vectorized_speedup"] >= MIN_SPEEDUP, (
        f"vectorized attacker pipeline is only {payload['vectorized_speedup']:.2f}x faster "
        f"than the loop attacker (required: {MIN_SPEEDUP}x)"
    )
    assert payload["batched_speedup"] > payload["vectorized_speedup"], (
        "the batched sampler must push attack-enabled rounds beyond the "
        "permutation-sampler vectorized pipeline "
        f"({payload['batched_speedup']:.2f}x vs {payload['vectorized_speedup']:.2f}x)"
    )
