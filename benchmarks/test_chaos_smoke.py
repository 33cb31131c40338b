"""Chaos smoke: one degraded-but-deterministic run of each resilience layer.

Fast enough for CI, this module drives the two fault surfaces end to end:

* **federated** — a training run under client churn (dropouts, crashes,
  stale-merged stragglers) with a reporter quorum, asserting the run
  completes, records structured incidents and — run twice — replays
  bit-identically (chaos is seeded, never wall-clock);
* **serving** — an overloaded HTTP front end under injected latency,
  asserting every excess request is shed as a clean JSON 503 with a
  ``Retry-After`` header (zero dropped connections) and the in-flight gauge
  returns to zero.

Incident and shedding tallies land in ``benchmarks/results/chaos_smoke.txt``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.data.splits import leave_one_out_split
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.models.mf import MatrixFactorizationModel
from repro.rng import SeedSequenceFactory
from repro.serving import (
    FactorSnapshot,
    RecommenderService,
    ServingFaultInjector,
    build_http_server,
)

NUM_USERS = 96
NUM_ITEMS = 140
CONCURRENT_REQUESTS = 12
MAX_IN_FLIGHT = 2


def _chaos_run():
    """One training run with every client fault class enabled."""
    seeds = SeedSequenceFactory(77)
    dataset = generate_synthetic_dataset(
        SyntheticConfig(
            num_users=NUM_USERS,
            num_items=NUM_ITEMS,
            num_interactions=1000,
            popularity_exponent=0.9,
            activity_sigma=0.9,
            name="chaos-smoke",
        ),
        seeds.generator("chaos-dataset"),
    )
    split = leave_one_out_split(dataset, rng=seeds.generator("chaos-split"))
    config = FederatedConfig(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=2,
        dropout_rate=0.15,
        crash_rate=0.1,
        straggler_rate=0.2,
        straggler_policy="stale-merge",
        min_reporters=4,
    )
    simulation = FederatedSimulation(
        train=split.train,
        config=config,
        test_items=split.test_items,
        seed=SeedSequenceFactory(41),
        eval_num_negatives=20,
    )
    return simulation.run()


def test_chaos_smoke_federated(save_result):
    first = _chaos_run()
    second = _chaos_run()

    assert first.incidents, "a chaos run must record its degradations"
    kinds = sorted({incident.kind for incident in first.incidents})
    assert {"client-dropout", "client-crash", "straggler"} & set(kinds)

    # Seeded chaos replays bit for bit: losses, parameters and incidents.
    np.testing.assert_array_equal(
        np.asarray(first.history.training_loss()),
        np.asarray(second.history.training_loss()),
    )
    np.testing.assert_array_equal(first.item_factors, second.item_factors)
    assert first.incidents == second.incidents

    tally = {kind: sum(1 for i in first.incidents if i.kind == kind) for kind in kinds}
    save_result(
        "chaos_smoke_federated",
        "chaos smoke (federated): "
        + ", ".join(f"{kind}={count}" for kind, count in sorted(tally.items())),
    )


def _serving_service() -> RecommenderService:
    rng = np.random.default_rng(5)
    interactions = [
        (user, int(item))
        for user in range(24)
        for item in rng.choice(30, size=3, replace=False)
    ]
    from repro.data.dataset import InteractionDataset

    train = InteractionDataset(24, 30, interactions, name="chaos-serving")
    model = MatrixFactorizationModel(24, 30, 8, init_scale=1.0, rng=6)
    return RecommenderService(FactorSnapshot.from_model(model, version=1), train, top_k=5)


def test_chaos_smoke_serving(save_result):
    injector = ServingFaultInjector(latency=0.4, latency_rate=1.0, rng=13)
    server = build_http_server(
        _serving_service(), max_in_flight=MAX_IN_FLIGHT, fault_injector=injector
    )
    # A client can read its answer before the handler thread releases its
    # admission slot.  Non-daemon handler threads are joined by
    # server_close(), so the counters are read only after every handler has
    # finished.
    server.daemon_threads = False
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    base = f"http://{host}:{port}"
    statuses: list[int | None] = [None] * CONCURRENT_REQUESTS

    def fetch(index: int) -> None:
        try:
            with urllib.request.urlopen(
                f"{base}/recommend?user={index}", timeout=10
            ) as response:
                statuses[index] = response.status
        except urllib.error.HTTPError as error:
            assert error.headers["Retry-After"] is not None
            assert "error" in json.loads(error.read().decode("utf-8"))
            statuses[index] = error.code

    try:
        fetchers = [
            threading.Thread(target=fetch, args=(index,))
            for index in range(CONCURRENT_REQUESTS)
        ]
        for fetcher in fetchers:
            fetcher.start()
        for fetcher in fetchers:
            fetcher.join(timeout=30)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()

    # Zero dropped connections: every request got an HTTP answer.
    assert all(status in (200, 503) for status in statuses)
    shed = sum(1 for status in statuses if status == 503)
    served = sum(1 for status in statuses if status == 200)
    assert served >= MAX_IN_FLIGHT
    assert shed >= 1, "an overloaded server must shed, not queue forever"
    stats = server.stats_payload()
    assert stats["shed_requests"] == shed
    assert stats["in_flight"] == 0
    save_result(
        "chaos_smoke_serving",
        f"chaos smoke (serving): served={served} shed={shed} "
        f"of {CONCURRENT_REQUESTS} concurrent requests "
        f"(max_in_flight={MAX_IN_FLIGHT})",
    )
