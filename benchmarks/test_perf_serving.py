"""Benchmark: serving-layer throughput (cold vs warm cache, batch sizes).

One measurement per dataset shape (synthetic ml-100k / ml-1m miniatures, the
Table II shapes the rest of the perf suite uses):

* **cold** — a fresh :class:`~repro.serving.RecommenderService` answers a
  shuffled stream of single-user queries; every touched block pays its GEMM
  and every user pays masking + threshold selection;
* **warm** — the same service answers the same stream again; every query is
  a memo hit (the per-user cache the serving layer exists for);
* **batch sizes** — fresh services answer the same users through
  ``top_k_batch`` at several batch sizes (one blocked scoring pass per
  touched block per batch);
* **HTTP round trip** — a warm service behind the HTTP front end answers
  the same ``GET /recommend`` stream over one persistent connection and
  with one connection per request (``Connection: close``); every answer is
  a memo hit, so the two timings differ only in connection handling.

Correctness first, timing second: before any measurement the module asserts
the serving layer's bit-reproducibility contract — served lists equal an
independent whole-block-GEMM + threshold-rule oracle, batched responses are
bit-identical to single queries, and
:func:`~repro.serving.exposure_under_serving` equals evaluating the
snapshot's model directly.

Gate: warm >= 5x cold queries/sec at the ml-100k shape, and the persistent
HTTP stream is served on exactly one accepted connection with bodies
byte-identical to the per-request stream (a count, never a timing ratio).
A fast smoke variant (reduced repeats, lower threshold for noisy shared CI
runners) runs in the CI perf job via ``-k smoke``.  The latest timings land in
``benchmarks/results/local/perf_serving.json`` / ``.txt`` (ignored by git).
"""

from __future__ import annotations

import http.client
import threading
import time

import numpy as np

from conftest import run_once, save_perf_record

from repro.data.presets import get_preset
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.metrics.evaluation import evaluate_snapshot, user_blocks
from repro.models.mf import MatrixFactorizationModel
from repro.rng import SeedSequenceFactory
from repro.serving import (
    FactorSnapshot,
    RecommenderService,
    build_http_server,
    exposure_under_serving,
)

NUM_FACTORS = 32
NUM_TARGETS = 10
QUERY_USERS = 512
BATCH_SIZES = (1, 32, 256)
MIN_WARM_SPEEDUP = 5.0
GATE_SHAPE = "ml-100k"

#: dataset shape -> interleaved best-of repeats.
SHAPES: dict[str, int] = {
    "ml-100k": 3,
    "ml-1m": 2,
}


def _build(name: str):
    """Synthetic dataset at the paper shape plus a random MF snapshot."""
    preset = get_preset(name)
    dataset = generate_synthetic_dataset(
        SyntheticConfig.from_preset(preset),
        SeedSequenceFactory(2022).generator(f"perf-serving-data-{name}"),
    )
    model = MatrixFactorizationModel(
        dataset.num_users, dataset.num_items, NUM_FACTORS, init_scale=1.0, rng=7
    )
    snapshot = FactorSnapshot.from_model(model, version=1)
    dataset.interaction_store().masks  # build once, outside the timings
    rng = SeedSequenceFactory(2022).generator(f"perf-serving-users-{name}")
    users = rng.permutation(dataset.num_users)[: min(QUERY_USERS, dataset.num_users)]
    return preset, dataset, snapshot, users


def _assert_bit_reproducible(snapshot, dataset, users) -> None:
    """The serving contract, asserted before any timing is trusted."""
    service = RecommenderService(snapshot, dataset)
    model = snapshot.model()
    blocks = user_blocks(snapshot.n_users, service.block_size)
    store = dataset.interaction_store()
    for user in (int(u) for u in users[:32]):
        lo, hi = blocks[user // service.block_size]
        raw_row = model.score_block(np.arange(lo, hi, dtype=np.int64))[user - lo]
        masked = raw_row.copy()
        masked[store.positives(user)] = -np.inf
        expected = np.lexsort((np.arange(masked.shape[0]), -masked))[:10]
        answer = service.top_k(user)
        assert np.array_equal(answer.items, expected), (
            "served top-K must equal the whole-block GEMM + threshold oracle"
        )
        assert np.array_equal(answer.scores, raw_row[expected]), (
            "served scores must be the raw whole-block GEMM floats"
        )

    batch_service = RecommenderService(snapshot, dataset)
    for single, batched in zip(
        (service.top_k(int(user)) for user in users[:64]),
        batch_service.top_k_batch(users[:64]),
    ):
        assert np.array_equal(single.items, batched.items)
        assert np.array_equal(single.scores, batched.scores), (
            "batched responses must be bit-identical to single queries"
        )

    targets = np.argsort(dataset.item_popularity, kind="stable")[:NUM_TARGETS]
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    served = exposure_under_serving(service, targets)
    direct = evaluate_snapshot(
        model, dataset, target_items=targets, rng=0, block_size=service.block_size
    ).exposure
    assert served == direct, (
        "exposure through the serving caches must equal direct evaluation"
    )


def _time_queries(service, users) -> float:
    start = time.perf_counter()
    for user in users:
        service.top_k(user)
    return time.perf_counter() - start


def _measure_http(snapshot, dataset, users, repeats: int) -> dict:
    """Best-of timings of one GET stream, persistent vs one connection each.

    Asserts that both streams return byte-identical bodies and counts the
    connections the server accepted for each (its ``process_request`` is
    wrapped), which is what the gates check.
    """
    service = RecommenderService(snapshot, dataset)
    for user in users:
        service.top_k(user)
    server = build_http_server(service)
    accepted = [0]
    process = server.process_request

    def counting(request, client_address):
        accepted[0] += 1
        process(request, client_address)

    server.process_request = counting
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    paths = [f"/recommend?user={user}" for user in users]

    def stream(headers: dict[str, str]) -> tuple[float, list[bytes], int]:
        before = accepted[0]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        bodies = []
        start = time.perf_counter()
        for path in paths:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            assert response.status == 200
            bodies.append(response.read())
        seconds = time.perf_counter() - start
        conn.close()
        return seconds, bodies, accepted[0] - before

    best_persistent = best_per_request = float("inf")
    try:
        for _ in range(repeats):
            seconds, persistent_bodies, persistent_connections = stream({})
            best_persistent = min(best_persistent, seconds)
            seconds, closed_bodies, per_request_connections = stream(
                {"Connection": "close"}
            )
            best_per_request = min(best_per_request, seconds)
            assert persistent_bodies == closed_bodies, (
                "a persistent connection must serve the same bytes as one "
                "connection per request"
            )
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    return {
        "requests": len(paths),
        "persistent_ms_per_request": 1000.0 * best_persistent / len(paths),
        "per_request_ms_per_request": 1000.0 * best_per_request / len(paths),
        "persistent_connections": persistent_connections,
        "per_request_connections": per_request_connections,
    }


def _assert_http_connections(round_trip: dict) -> None:
    assert round_trip["persistent_connections"] == 1, (
        f"the persistent stream of {round_trip['requests']} requests was served "
        f"on {round_trip['persistent_connections']} connections"
    )
    assert round_trip["per_request_connections"] == round_trip["requests"]


def _measure_shape(name: str, repeats: int) -> dict:
    preset, dataset, snapshot, user_array = _build(name)
    _assert_bit_reproducible(snapshot, dataset, user_array)
    users = [int(user) for user in user_array]

    best_cold = best_warm = float("inf")
    for _ in range(repeats):
        service = RecommenderService(snapshot, dataset)
        best_cold = min(best_cold, _time_queries(service, users))
        # Same stream again: every query is a memo hit.
        best_warm = min(best_warm, _time_queries(service, users))

    batch_qps: dict[str, float] = {}
    for batch_size in BATCH_SIZES:
        best_batch = float("inf")
        for _ in range(repeats):
            service = RecommenderService(snapshot, dataset)
            start = time.perf_counter()
            for lo in range(0, len(users), batch_size):
                service.top_k_batch(users[lo : lo + batch_size])
            best_batch = min(best_batch, time.perf_counter() - start)
        batch_qps[str(batch_size)] = len(users) / best_batch

    cold_qps = len(users) / best_cold
    warm_qps = len(users) / best_warm
    return {
        "dataset": preset.name,
        "num_users": preset.num_users,
        "num_items": preset.num_items,
        "num_factors": NUM_FACTORS,
        "queried_users": len(users),
        "top_k": 10,
        "cold_queries_per_sec": cold_qps,
        "warm_queries_per_sec": warm_qps,
        "warm_speedup": warm_qps / cold_qps,
        "batch_queries_per_sec": batch_qps,
        "http": _measure_http(snapshot, dataset, users, repeats),
    }


def test_perf_serving(benchmark):
    payload = run_once(
        benchmark,
        lambda: {
            "shapes": [
                _measure_shape(name, repeats) for name, repeats in SHAPES.items()
            ]
        },
    )

    lines = [
        f"Serving throughput ({QUERY_USERS} shuffled single-user queries, "
        f"k=10, factors={NUM_FACTORS})",
    ]
    for shape in payload["shapes"]:
        lines += [
            f"{shape['dataset']} ({shape['num_users']} users / {shape['num_items']} items)",
            f"  cold cache: {shape['cold_queries_per_sec']:10.0f} queries/sec",
            f"  warm cache: {shape['warm_queries_per_sec']:10.0f} queries/sec"
            f"  ({shape['warm_speedup']:.1f}x)",
        ]
        for batch_size, qps in shape["batch_queries_per_sec"].items():
            lines.append(f"  batch={batch_size:>3}:  {qps:10.0f} queries/sec (cold)")
        round_trip = shape["http"]
        lines += [
            f"  HTTP GET, one persistent connection: "
            f"{round_trip['persistent_ms_per_request']:.3f} ms/request (warm)",
            f"  HTTP GET, one connection per request: "
            f"{round_trip['per_request_ms_per_request']:.3f} ms/request (warm)",
        ]
    save_perf_record("perf_serving", payload, "\n".join(lines))

    for shape in payload["shapes"]:
        _assert_http_connections(shape["http"])

    gate = next(s for s in payload["shapes"] if s["dataset"] == GATE_SHAPE)
    assert gate["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"the warm memo cache is only {gate['warm_speedup']:.2f}x faster than cold "
        f"serving at the {GATE_SHAPE} shape (required: {MIN_WARM_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# CI smoke gate
# --------------------------------------------------------------------------- #

SMOKE_MIN_WARM_SPEEDUP = 3.0


def test_perf_serving_smoke(benchmark):
    """Fast serving-cache regression gate (run by CI via ``-k smoke``).

    One pass at the ml-100k shape; the threshold is deliberately lower than
    the full benchmark's so shared CI runners do not flake, while a genuine
    loss of the memo cache's advantage (far larger when healthy) still fails
    the build.  Bit-reproducibility is asserted inside the measurement
    helper before any timing, and the HTTP round trip's connection count
    (a deterministic fact, not a timing) is gated as in the full benchmark.
    """
    payload = run_once(benchmark, lambda: _measure_shape(GATE_SHAPE, 1))
    _assert_http_connections(payload["http"])
    assert payload["warm_speedup"] >= SMOKE_MIN_WARM_SPEEDUP, (
        f"the warm memo cache is only {payload['warm_speedup']:.2f}x faster than "
        f"cold serving in the smoke measurement (required: {SMOKE_MIN_WARM_SPEEDUP}x)"
    )
