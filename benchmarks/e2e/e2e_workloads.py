"""The benchmark's workloads, run through the program's public API.

* ``training`` workloads (attack-ml100k, benign-steam) repeat one
  ``run_experiment`` until the run's time is used up.  The op is one protocol
  round.  A boundary timer on ``FederatedSimulation.run`` splits each
  repetition into set-up (dataset, split, public sample, targets, simulation
  construction) and training.
* the ``serving`` workload (serve-ml1m) puts a ``RecommenderService`` behind
  the HTTP front end on a thread and sends it an open-loop request stream
  from one client thread.  The stream is served in segments, each by a
  freshly set-up server, so the set-ups are spread over the run.  The op is
  one request.

Every repetition's outputs are checked; a failed check fails the
repetition's ops.  A traced run alternates untraced and traced passes of the
same inputs, requires their outputs to be bit-identical, and turns the spans
of the traced pass into the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import gc
import http.client
import json
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np
from repro.data import loaders
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.serving import FactorSnapshot, RecommenderService, build_http_server

from e2e_layers import TARGETS, absent_spans, check_expectations, per_layer_metrics
from e2e_loadgen import Sample, run_open_loop
from e2e_trace import BoundaryTimer, Patches, Tracer, install_spans, percentile, summarize

#: The only ``ExperimentConfig`` fields a training workload may set: the
#: paper-level knobs.  Realization switches stay at the program defaults.
TRAINING_KNOBS = frozenset(
    {
        "dataset", "attack", "xi", "rho", "kappa",
        "clients_per_round", "num_epochs", "evaluate_every",
    }
)


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(spec: Mapping[str, Any], seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload described by its ``workloads.json`` entry."""
    if spec["kind"] == "training":
        return run_training(spec, seed, seconds, trace)
    if spec["kind"] == "serving":
        return run_serving(spec, seed, seconds, trace)
    raise ValueError(f"unknown workload kind {spec['kind']!r}")


def _traced(
    spec: Mapping[str, Any], body: Callable[[Tracer], Any]
) -> tuple[Any, Tracer, dict[str, Any], list[str]]:
    """Run ``body(tracer)`` with every layer wrapper installed.

    Returns the body's result, the tracer, the span totals and the
    violations of the workload's declared span counts.
    """
    tracer = Tracer()
    patches = Patches()
    try:
        absent = install_spans(tracer, TARGETS, patches)
        result = body(tracer)
    finally:
        patches.restore()
    totals = summarize(tracer.spans)
    violations = check_expectations(spec["expect"], totals, absent_spans(absent))
    return result, tracer, {"totals": totals, "absent": absent}, violations


def _totals_record(totals: Mapping[str, Any]) -> dict[str, dict[str, float]]:
    return {
        name: {"calls": t.calls, "inclusive_s": t.inclusive_s, "self_s": t.self_s}
        for name, t in sorted(totals.items())
    }


def _mean_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}


# --------------------------------------------------------------------------- #
# Training workloads
# --------------------------------------------------------------------------- #


@dataclass
class TrainingRep:
    """One ``run_experiment`` call: its timings, outputs and failed checks."""

    wall: float
    setup: float
    train: float
    rounds: int
    expected_rounds: int
    outputs: tuple[float, ...]
    problems: list[str]


def experiment_config(spec: Mapping[str, Any], seed: int) -> ExperimentConfig:
    knobs = dict(spec["config"])
    unknown = set(knobs) - TRAINING_KNOBS
    if unknown:
        raise ValueError(f"training workloads set only paper-level knobs, not {sorted(unknown)}")
    return ExperimentConfig(**knobs, seed=seed)


def expected_rounds(result: Any, config: Any) -> int:
    """Rounds a run must apply: every client, benign or not, once per epoch."""
    clients = result.train.num_users + result.num_malicious
    return config.num_epochs * math.ceil(clients / config.clients_per_round)


def check_training(result: Any, config: Any, quality: Mapping[str, float]) -> list[str]:
    """Failed output checks of one finished experiment (empty when correct)."""
    problems = []
    rounds = expected_rounds(result, config)
    if result.snapshot.version != rounds:
        problems.append(f"applied {result.snapshot.version} rounds, expected {rounds}")
    records = result.history.records
    if len(records) != config.num_epochs:
        problems.append(f"recorded {len(records)} epochs, expected {config.num_epochs}")
    every = config.evaluate_every or config.num_epochs
    expected_evals = {e for e in range(1, config.num_epochs + 1) if e % every == 0}
    expected_evals.add(config.num_epochs)
    evaluated = {r.epoch for r in records if r.accuracy is not None and r.exposure is not None}
    if evaluated != expected_evals:
        problems.append(f"evaluated epochs {sorted(evaluated)}, expected {sorted(expected_evals)}")
    values = []
    for record in records:
        values.append(record.training_loss)
        if record.accuracy is not None:
            values += [record.accuracy.hr_at_10, record.accuracy.ndcg_at_10]
        if record.exposure is not None:
            exposure = record.exposure
            values += [exposure.er_at_5, exposure.er_at_10, exposure.ndcg_at_10]
    if not all(math.isfinite(value) for value in values):
        problems.append("a recorded metric is not finite")
    factors = (result.snapshot.user_factors, result.snapshot.item_factors)
    if not all(np.isfinite(matrix).all() for matrix in factors):
        problems.append("trained factors are not finite")
    bands = (
        ("er_at_5_min", result.er_at_5, lambda value, bound: value >= bound),
        ("er_at_10_max", result.er_at_10, lambda value, bound: value < bound),
        ("hr_at_10_min", result.hr_at_10, lambda value, bound: value >= bound),
    )
    for key, value, holds in bands:
        if key in quality and not holds(value, quality[key]):
            problems.append(f"final metric {value:.4f} outside the band {key}={quality[key]}")
    return problems


def _training_rep(config: Any, spec: Mapping[str, Any], boundary: BoundaryTimer) -> TrainingRep:
    gc.collect()
    calls = len(boundary.entered)
    start = time.perf_counter()
    result = runner.run_experiment(config)
    end = time.perf_counter()
    if len(boundary.entered) != calls + 1:
        raise RuntimeError("run_experiment did not call FederatedSimulation.run exactly once")
    entered, exited = boundary.entered[calls], boundary.exited[calls]
    return TrainingRep(
        wall=end - start,
        setup=entered - start,
        train=exited - entered,
        rounds=int(result.snapshot.version),
        expected_rounds=expected_rounds(result, config),
        outputs=(result.er_at_5, result.er_at_10, result.hr_at_10, float(result.snapshot.version)),
        problems=check_training(result, config, spec["quality"]),
    )


def run_training(spec: Mapping[str, Any], seed: int, seconds: float, trace: bool) -> Outcome:
    config = experiment_config(spec, seed)
    boundary = BoundaryTimer()
    timer = Patches()
    if not timer.replace("repro.federated.simulation", "FederatedSimulation.run", boundary.wrap):
        raise RuntimeError("FederatedSimulation.run is gone; training cannot be timed")
    try:
        if trace:
            return _traced_training(spec, config, seconds, boundary)
        return _timed_training(spec, config, seconds, boundary)
    finally:
        timer.restore()


def _tally(reps: list[TrainingRep], reference: tuple[float, ...], outcome: Outcome) -> None:
    """Count ops; every repetition must reproduce ``reference`` bit for bit."""
    for index, rep in enumerate(reps):
        if rep.outputs != reference:
            rep.problems.append(f"repetition {index} gave {rep.outputs}, expected {reference}")
        outcome.attempted += rep.expected_rounds
        if rep.problems:
            outcome.failed += rep.expected_rounds
            outcome.problems += rep.problems


def another_fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more step of the median length so far ends within the run.

    Starting a step only when it is expected to finish keeps every run close
    to ``seconds`` long instead of overrunning by up to a whole repetition.
    """
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _timed_training(
    spec: Mapping[str, Any], config: Any, seconds: float, boundary: BoundaryTimer
) -> Outcome:
    start = time.perf_counter()
    reps = [_training_rep(config, spec, boundary)]
    while another_fits(start, seconds, [rep.wall for rep in reps]):
        reps.append(_training_rep(config, spec, boundary))
    outcome = Outcome()
    _tally(reps, reps[0].outputs, outcome)
    outcome.metrics = {
        "setup_s": statistics.median(rep.setup for rep in reps),
        "wall_s": statistics.median(rep.wall for rep in reps),
        "ops_per_s": sum(rep.rounds for rep in reps) / sum(rep.train for rep in reps),
        "p50_ms": statistics.median(1000.0 * rep.train / max(rep.rounds, 1) for rep in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.record = {"repetitions": [rep.__dict__ for rep in reps]}
    return outcome


def _traced_training(
    spec: Mapping[str, Any], config: Any, seconds: float, boundary: BoundaryTimer
) -> Outcome:
    """Untraced and traced repetitions in pairs until the time is used up.

    The pairs alternate which pass runs first, so a drift in machine speed
    does not bias the tracing overhead one way.
    """
    start = time.perf_counter()
    plain: list[TrainingRep] = []
    traced: list[TrainingRep] = []
    layers: list[dict[str, float]] = []
    first: dict[str, Any] = {}

    def traced_rep() -> None:
        rep, tracer, info, violations = _traced(
            spec, lambda _tracer: _training_rep(config, spec, boundary)
        )
        rep.problems += violations
        traced.append(rep)
        layers.append(per_layer_metrics(info["totals"], tracer.counters, {}))
        if not first:
            first.update(
                absent_targets=info["absent"],
                span_totals=_totals_record(info["totals"]),
                counters=dict(tracer.counters),
                spans=tracer.spans,
            )

    while not traced or another_fits(
        start, seconds, [a.wall + b.wall for a, b in zip(plain, traced)]
    ):
        if len(traced) % 2:
            traced_rep()
            plain.append(_training_rep(config, spec, boundary))
        else:
            plain.append(_training_rep(config, spec, boundary))
            traced_rep()
    outcome = Outcome()
    _tally(plain + traced, plain[0].outputs, outcome)
    outcome.metrics = _mean_metrics(layers)
    outcome.metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(rep.wall for rep in traced)
        / statistics.median(rep.wall for rep in plain)
        - 1.0
    )
    outcome.record = {
        "untraced": [rep.__dict__ for rep in plain],
        "traced": [rep.__dict__ for rep in traced],
        **first,
    }
    return outcome


# --------------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------------- #


@dataclass
class ServingSetup:
    """A bound server over a service, plus the inputs the checks need."""

    train: Any
    snapshots: list[Any]
    service: Any
    server: Any
    seconds: float


def serving_setup(spec: Mapping[str, Any], seed: int) -> ServingSetup:
    """Dataset, two pre-built snapshots, the service and a bound server."""
    start = time.perf_counter()
    train = loaders.load_dataset(spec["dataset"], rng=np.random.default_rng([seed, 0]))
    factor_rng = np.random.default_rng([seed, 1])
    k = int(spec["num_factors"])
    snapshots = [
        FactorSnapshot(
            user_factors=factor_rng.normal(0.0, k**-0.5, (train.num_users, k)),
            item_factors=factor_rng.normal(0.0, k**-0.5, (train.num_items, k)),
            version=version,
        )
        for version in (1, 2)
    ]
    service = RecommenderService(snapshots[0], train, top_k=int(spec["k"]))
    server = build_http_server(service)
    return ServingSetup(train, snapshots, service, server, time.perf_counter() - start)


def make_requests(
    spec: Mapping[str, Any], seed: int, train: Any, count: int, part: int = 0
) -> list[tuple[int, ...]]:
    """Part ``part`` of the request stream: single users and a share of batches.

    Users are drawn in proportion to their interactions in ``train``, so an
    active user asks as often as they interact.  A one-user tuple is a
    ``GET`` single; a longer tuple is a ``POST`` batch.
    """
    rng = np.random.default_rng([seed, 2, part])
    weights = train.user_degrees().astype(np.float64)
    is_batch = rng.random(count) < float(spec["batch_share"])
    sizes = np.where(is_batch, int(spec["batch_size"]), 1)
    users = rng.choice(train.num_users, size=int(sizes.sum()), p=weights / weights.sum())
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [tuple(int(u) for u in users[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _snapshot_for(spec: Mapping[str, Any], setup: ServingSetup, index: int) -> Any:
    """The snapshot swapped in last before request ``index`` of a segment."""
    return setup.snapshots[(index // int(spec["swap_every"])) % 2]


def check_responses(
    spec: Mapping[str, Any],
    setup: ServingSetup,
    requests: list[tuple[int, ...]],
    samples: list[Sample],
) -> dict[int, str]:
    """What was wrong with each failed request, by request index."""
    k = int(spec["k"])
    failures = {}
    for index, (users, sample) in enumerate(zip(requests, samples)):
        if sample.status != 200:
            failures[index] = f"status {sample.status}"
            continue
        try:
            payload = json.loads(sample.body)
        except ValueError:
            failures[index] = "response is not JSON"
            continue
        answers = [payload] if len(users) == 1 else payload.get("recommendations", [])
        snapshot = _snapshot_for(spec, setup, index)
        problem = None
        if len(answers) != len(users):
            problem = f"{len(answers)} answers for {len(users)} users"
        for user, answer in zip(users, answers):
            problem = problem or check_answer(setup.train, snapshot, user, answer, k)
        if problem:
            failures[index] = problem
    return failures


def _describe(failures: Mapping[int, str], limit: int = 20) -> list[str]:
    return [f"request {index}: {problem}" for index, problem in sorted(failures.items())[:limit]]


def check_answer(
    train: Any, snapshot: Any, user: int, answer: Mapping[str, Any], k: int
) -> str | None:
    """What is wrong with one served list, or ``None``.

    The list must hold exactly ``k`` distinct items of the current snapshot
    version, with non-increasing scores equal to the factors' dot products,
    and no unseen item left out may outscore one in the list.  Training
    positives are excluded by ranking them below every unseen item, so they
    appear only for a user with fewer than ``k`` unseen items, after all of
    them and in ascending id order (the masked-ranking contract of
    ``RecommenderService``).
    """
    items = np.asarray(answer["items"], dtype=np.int64)
    scores = np.asarray(answer["scores"], dtype=np.float64)
    if answer["user"] != user:
        return f"answered user {answer['user']} for {user}"
    if answer["snapshot_version"] != snapshot.version:
        return f"snapshot_version {answer['snapshot_version']}, expected {snapshot.version}"
    if items.shape[0] != k or scores.shape[0] != k or np.unique(items).shape[0] != k:
        return f"{items.shape[0]} items, expected {k} distinct"
    positives = train.positive_items(user)
    seen = np.isin(items, positives)
    ranked = min(k, snapshot.n_items - positives.shape[0])
    if seen[:ranked].any() or not seen[ranked:].all():
        return "a training positive was recommended in place of an unseen item"
    if np.any(np.diff(items[ranked:]) <= 0):
        return "training positives padding the list are not in id order"
    if np.any(np.diff(scores[:ranked]) > 0):
        return "scores are not non-increasing"
    reference = snapshot.item_factors @ snapshot.user_factors[user]
    if not np.allclose(scores, reference[items], rtol=1e-9, atol=1e-12):
        return "scores differ from the factors' dot products"
    rest = reference.copy()
    rest[positives] = -np.inf
    rest[items] = -np.inf
    if ranked and rest.max() > scores[:ranked].min() + 1e-9:
        return "an unseen item outscores the returned list"
    return None


def _serve_stream(
    spec: Mapping[str, Any],
    setup: ServingSetup,
    requests: list[tuple[int, ...]],
    tracer: Tracer | None,
    hard_deadline: float,
) -> list[Sample]:
    """Warm the server, send ``requests`` on schedule, then stop the server.

    Warm means the serving thread is up, the connection path has answered
    and every block of the first snapshot is scored.  Every ``swap_every``
    requests the other pre-built snapshot is swapped in, dropping both
    caches.  Requests due after ``hard_deadline`` are not sent (status 0).
    """
    server, service = setup.server, setup.service
    host, port = server.server_address[0], int(server.server_address[1])
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    k = int(spec["k"])
    swap_every = int(spec["swap_every"])

    def send(index: int, users: tuple[int, ...]) -> tuple[int, bytes]:
        if time.perf_counter() > hard_deadline:
            return 0, b""
        if tracer is not None:
            tracer.op = index
        try:
            if len(users) == 1:
                conn.request("GET", f"/recommend?user={users[0]}&k={k}")
            else:
                body = json.dumps({"users": list(users), "k": k})
                headers = {"Content-Type": "application/json"}
                conn.request("POST", "/recommend", body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            return 0, b""

    def swap(index: int) -> None:
        if index and index % swap_every == 0:
            service.swap_snapshot(_snapshot_for(spec, setup, index))

    try:
        for _ in range(3):
            conn.request("GET", "/health")
            conn.getresponse().read()
        score_block = service.score_block_function()
        num_users = setup.train.num_users
        for lo in range(0, num_users, service.block_size):
            score_block(np.arange(lo, min(lo + service.block_size, num_users)))
        gc.collect()
        return run_open_loop(requests, float(spec["rate_per_s"]), send, between=swap)
    finally:
        conn.close()
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
        # Handler threads are daemons the server does not join; wait for them.
        for other in threading.enumerate():
            if other is not threading.current_thread():
                other.join(timeout=5)


def stream_length(spec: Mapping[str, Any], seconds: float, segments: int) -> int:
    """Requests per segment: ``seconds`` of the offered rate over all segments.

    Every segment holds at least one swap.
    """
    per_segment = round(float(spec["rate_per_s"]) * seconds / segments)
    return max(per_segment, int(spec["swap_every"]) + 1)


@dataclass
class Segment:
    """One set-up server serving one stretch of the request stream."""

    setup_s: float
    samples: list[Sample]
    failures: dict[int, str]
    stats: dict[str, Any]


def serve_segment(
    spec: Mapping[str, Any],
    seed: int,
    count: int,
    part: int,
    hard_deadline: float,
    tracer: Tracer | None = None,
) -> Segment:
    """Set up, serve ``count`` requests of stream part ``part``, check, tear down."""
    gc.collect()
    setup = serving_setup(spec, seed)
    requests = make_requests(spec, seed, setup.train, count, part)
    samples = _serve_stream(spec, setup, requests, tracer, hard_deadline)
    failures = check_responses(spec, setup, requests, samples)
    return Segment(setup.seconds, samples, failures, setup.server.stats_payload())


def release_freed_memory() -> None:
    """Return the memory a torn-down server freed to the system (glibc only).

    The front end answers each request on a new thread, and glibc spreads
    threads over several malloc arenas, so score blocks freed by one server
    stay resident in several arenas.  A deployed server is built
    once; here one process builds a server per segment, and without this
    each would start on its predecessors' leftovers: over five seeds with
    eight segments on a 2-CPU x86-64 VM the process peak read 433-588 MB,
    rising with the number of segments.  Within a segment the allocator
    keeps its defaults, so the fragmentation one server causes still shows
    in ``peak_rss_mb``.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_serving(spec: Mapping[str, Any], seed: int, seconds: float, trace: bool) -> Outcome:
    hard_deadline = time.perf_counter() + 2 * seconds + 60
    if trace:
        return _traced_serving(spec, seed, seconds, hard_deadline)
    segments = int(spec["segments"])
    count = stream_length(spec, seconds, segments)
    served = []
    for part in range(segments):
        served.append(serve_segment(spec, seed, count, part, hard_deadline))
        release_freed_memory()
    samples = [sample for segment in served for sample in segment.samples]
    wall = sum(segment.samples[-1].done - segment.samples[0].due for segment in served)
    failures = {
        number * count + index: problem
        for number, segment in enumerate(served)
        for index, problem in segment.failures.items()
    }
    outcome = Outcome(attempted=len(samples), failed=len(failures), problems=_describe(failures))
    outcome.metrics = {
        "setup_s": statistics.median(segment.setup_s for segment in served),
        "wall_s": wall,
        "ops_per_s": sum(1 for sample in samples if sample.status == 200) / wall,
        "p50_ms": 1000.0 * statistics.median(sample.latency for sample in samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.record = {
        "setup_s": [segment.setup_s for segment in served],
        **_latency_record(samples),
    }
    return outcome


def _latency_record(samples: list[Sample]) -> dict[str, Any]:
    return {
        "latency_ms": [1000.0 * sample.latency for sample in samples],
        "lag_ms": [1000.0 * sample.lag for sample in samples],
    }


def _traced_serving(
    spec: Mapping[str, Any], seed: int, seconds: float, hard_deadline: float
) -> Outcome:
    """An untraced and a traced segment of half the run each, same inputs.

    Every traced response must equal its untraced counterpart byte for byte;
    a violated span declaration fails every traced request.
    """
    count = stream_length(spec, seconds / 2, 1)
    plain = serve_segment(spec, seed, count, 0, hard_deadline)
    segment, tracer, info, violations = _traced(
        spec, lambda tracer: serve_segment(spec, seed, count, 0, hard_deadline, tracer)
    )
    traced, stats, traced_failures = segment.samples, segment.stats, segment.failures
    for index, (a, b) in enumerate(zip(plain.samples, traced)):
        if (a.status, a.body) != (b.status, b.body):
            traced_failures.setdefault(index, "traced response differs from untraced")
    if violations:
        traced_failures = dict.fromkeys(range(count), "span declarations violated")

    service_s: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is None and span.name in ("serving.topk", "serving.batch"):
            service_s[span.op] = service_s.get(span.op, 0.0) + span.duration
    front_end = [s.done - s.sent - service_s.get(i, 0.0) for i, s in enumerate(traced)]
    p99 = percentile([sample.latency for sample in traced], 99)
    queries = stats["queries"]
    extras = {
        "serving.http_ms": 1000.0 * statistics.median(front_end),
        "serving.memo_hit_ratio": stats["memo_hits"] / queries if queries else 0.0,
        "serving.blocks_scored": float(stats["blocks_scored"]),
        "serving.shed": float(stats["shed_requests"]),
        "serving.lag_ms": 1000.0 * statistics.fmean(sample.lag for sample in traced),
        "serving.p99_ms": 1000.0 * p99.value,
        "serving.p99_samples": float(p99.samples),
        # The schedule fixes an open loop's wall time, so the overhead is
        # taken on the time the client spent waiting for answers.
        "trace.overhead_pct": 100.0
        * (
            sum(s.done - s.sent for s in traced) / sum(s.done - s.sent for s in plain.samples)
            - 1.0
        ),
    }
    outcome = Outcome(attempted=2 * count, failed=len(plain.failures) + len(traced_failures))
    outcome.problems = violations + _describe(plain.failures)
    if not violations:
        outcome.problems += _describe(traced_failures)
    outcome.metrics = per_layer_metrics(info["totals"], tracer.counters, extras)
    outcome.record = {
        "absent_targets": info["absent"],
        "span_totals": _totals_record(info["totals"]),
        "service_stats": stats,
        "p99": {"value_ms": 1000.0 * p99.value, "samples": p99.samples, "beyond": p99.beyond},
        "untraced": _latency_record(plain.samples),
        "traced": _latency_record(traced),
        "spans": tracer.spans,
    }
    return outcome
