"""The layer map of the traced run.

``TARGETS`` names each layer's public functions at every place the program
looks them up; ``PER_LAYER`` says how the span totals of one traced workload
repetition become each per-layer metric that ``BENCHMARK.json`` lists.
Layers are the program's packages (``repro.data``, ``repro.federated``, ...).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from e2e_trace import SpanTotals, Target, Tracer


def _arg(args: tuple[Any, ...], kwargs: dict[str, Any], index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


class CountingGenerator:
    """Stands in for a ``numpy.random.Generator`` and counts what it hands out.

    Every call is forwarded to the real generator, so the stream and the
    values drawn are exactly those of an untraced run.  ``drawn`` adds up the
    entries each call returned (``permutation(n)`` adds ``n``,
    ``integers(..., size=m)`` adds ``m``); for the in-place ``shuffle`` it
    adds the entries shuffled.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.drawn = 0

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = attr(*args, **kwargs)
            self.drawn += int(np.size(args[0] if result is None and args else result))
            return result

        return counted


def _count_negatives(
    tracer: Tracer, func: Callable[..., Any], args: tuple[Any, ...], kwargs: dict[str, Any]
) -> Any:
    """Draw through a counting generator; count negatives returned and drawn."""
    rng = CountingGenerator(_arg(args, kwargs, 0, "rng"))
    if args:
        args = (rng, *args[1:])
    else:
        kwargs = {**kwargs, "rng": rng}
    result = func(*args, **kwargs)
    negatives = result[0] if isinstance(result, tuple) else result
    tracer.count("data.neg_returned", len(negatives))
    tracer.count("data.neg_drawn", rng.drawn)
    return result


def _count_clients(
    tracer: Tracer, func: Callable[..., Any], args: tuple[Any, ...], kwargs: dict[str, Any]
) -> Any:
    tracer.count("federated.clients_trained", len(_arg(args, kwargs, 1, "benign_ids")))
    return func(*args, **kwargs)


_NEG = "sample_uniform_negatives"
_NEG_BATCHED = "sample_uniform_negatives_batched"
_BPR = "bpr_coefficients_batched"

TARGETS: tuple[Target, ...] = (
    Target("data.load", "repro.experiments.runner", "load_dataset"),
    Target("data.load", "repro.data.loaders", "load_dataset"),
    Target("data.split", "repro.experiments.runner", "leave_one_out_split"),
    Target("data.public", "repro.experiments.runner", "sample_public_interactions"),
    Target("data.neg", "repro.federated.client", _NEG, _count_negatives),
    Target("data.neg", "repro.attacks.approximation", _NEG, _count_negatives),
    Target("data.neg", "repro.data.negative_sampling", _NEG, _count_negatives),
    Target("data.neg_batched", "repro.federated.engine", _NEG_BATCHED, _count_negatives),
    Target("data.neg_batched", "repro.attacks.approximation", _NEG_BATCHED, _count_negatives),
    Target("data.neg_batched", "repro.data.negative_sampling", _NEG_BATCHED, _count_negatives),
    Target("federated.init", "repro.federated.simulation", "FederatedSimulation.__init__"),
    Target("federated.run", "repro.federated.simulation", "FederatedSimulation.run", op_on_entry=0),
    Target("federated.pairs", "repro.federated.engine", "BatchedRoundTrainer.draw_round_pairs"),
    Target(
        "federated.train",
        "repro.federated.engine",
        "BatchedRoundTrainer.train_round",
        _count_clients,
    ),
    Target("federated.apply", "repro.federated.server", "Server.apply_round", advances_op=True),
    Target("models.bpr", "repro.federated.engine", _BPR),
    Target("models.bpr", "repro.attacks.approximation", _BPR),
    Target("models.bpr", "repro.models.losses", _BPR),
    Target("models.score_block", "repro.models.mf", "MatrixFactorizationModel.score_block"),
    Target("attacks.refresh", "repro.attacks.approximation", "UserMatrixApproximator.refresh"),
    Target("attacks.poison", "repro.attacks.fedrecattack", "FedRecAttack.on_round_start"),
    Target("attacks.craft", "repro.attacks.fedrecattack", "FedRecAttack.craft_update"),
    Target("metrics.eval", "repro.federated.simulation", "evaluate_snapshot"),
    Target("metrics.rank_neg", "repro.metrics.evaluation", "draw_ranking_negatives"),
    Target(
        "metrics.rank_neg_batched", "repro.metrics.evaluation", "draw_ranking_negatives_batched"
    ),
    Target("serving.topk", "repro.serving.service", "RecommenderService.top_k"),
    Target("serving.batch", "repro.serving.service", "RecommenderService.top_k_batch"),
    Target("serving.swap", "repro.serving.service", "RecommenderService.swap_snapshot"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(target.span for target in TARGETS))


def absent_spans(absent_labels: list[str]) -> set[str]:
    """Span names none of whose targets exist in the program any more."""
    missing = set(absent_labels)
    return {
        name
        for name in SPAN_NAMES
        if all(t.label in missing for t in TARGETS if t.span == name)
    }


#: How each per-layer metric is computed: ``calls`` counts the calls of the
#: listed spans, ``self`` sums their self seconds, ``ratio`` divides two
#: tracer counters, ``counter`` reads one, and ``extra`` is supplied by the
#: workload (the serving front end's figures and the tracing overhead).
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "data.load_s": ("self", ("data.load",)),
    "data.split_s": ("self", ("data.split",)),
    "data.public_s": ("self", ("data.public",)),
    "data.neg_calls": ("calls", ("data.neg",)),
    "data.neg_s": ("self", ("data.neg", "data.neg_batched")),
    "data.neg_yield": ("ratio", ("data.neg_returned", "data.neg_drawn")),
    "data.neg_batched_calls": ("calls", ("data.neg_batched",)),
    "federated.init_s": ("self", ("federated.init",)),
    "federated.rounds": ("calls", ("federated.apply",)),
    "federated.clients_trained": ("counter", ("federated.clients_trained",)),
    "federated.pairs_s": ("self", ("federated.pairs",)),
    "federated.train_s": ("self", ("federated.train",)),
    "federated.apply_s": ("self", ("federated.apply",)),
    "models.bpr_calls": ("calls", ("models.bpr",)),
    "models.bpr_s": ("self", ("models.bpr",)),
    "models.score_block_calls": ("calls", ("models.score_block",)),
    "models.score_block_s": ("self", ("models.score_block",)),
    "attacks.refresh_calls": ("calls", ("attacks.refresh",)),
    "attacks.refresh_s": ("self", ("attacks.refresh",)),
    "attacks.poison_s": ("self", ("attacks.poison",)),
    "attacks.craft_calls": ("calls", ("attacks.craft",)),
    "attacks.craft_s": ("self", ("attacks.craft",)),
    "metrics.eval_calls": ("calls", ("metrics.eval",)),
    "metrics.eval_s": ("self", ("metrics.eval",)),
    "metrics.rank_neg_calls": ("calls", ("metrics.rank_neg",)),
    "metrics.rank_neg_batched_calls": ("calls", ("metrics.rank_neg_batched",)),
    "metrics.rank_neg_s": ("self", ("metrics.rank_neg", "metrics.rank_neg_batched")),
    "serving.topk_calls": ("calls", ("serving.topk",)),
    "serving.topk_s": ("self", ("serving.topk",)),
    "serving.batch_calls": ("calls", ("serving.batch",)),
    "serving.batch_s": ("self", ("serving.batch",)),
    "serving.swaps": ("calls", ("serving.swap",)),
    "serving.swap_s": ("self", ("serving.swap",)),
    "serving.http_ms": ("extra", ()),
    "serving.memo_hit_ratio": ("extra", ()),
    "serving.blocks_scored": ("extra", ()),
    "serving.shed": ("extra", ()),
    "serving.lag_ms": ("extra", ()),
    "serving.p99_ms": ("extra", ()),
    "serving.p99_samples": ("extra", ()),
    "trace.overhead_pct": ("extra", ()),
}


def per_layer_metrics(
    totals: Mapping[str, SpanTotals],
    counters: Mapping[str, float],
    extras: Mapping[str, float],
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced repetition (0 when idle)."""
    empty = SpanTotals()
    values: dict[str, float] = {}
    for name, (kind, keys) in PER_LAYER.items():
        if kind == "calls":
            value = float(sum(totals.get(key, empty).calls for key in keys))
        elif kind == "self":
            value = sum(totals.get(key, empty).self_s for key in keys)
        elif kind == "ratio":
            numerator, denominator = (counters.get(key, 0.0) for key in keys)
            value = numerator / denominator if denominator else 0.0
        elif kind == "counter":
            value = float(counters.get(keys[0], 0.0))
        else:
            value = float(extras.get(name, 0.0))
        values[name] = value
    return values


def check_expectations(
    expect: Mapping[str, Any], totals: Mapping[str, SpanTotals], absent: set[str]
) -> list[str]:
    """Violations of a workload's declared span counts.

    ``zero`` spans must not fire at all; ``fires`` spans must fire at least
    once and ``exact`` spans exactly the stated number of times, unless the
    program no longer has any of the span's targets.
    """
    empty = SpanTotals()
    violations = []
    for name in expect.get("zero", ()):
        calls = totals.get(name, empty).calls
        if calls:
            violations.append(f"{name} fired {calls} times; declared 0")
    for name in expect.get("fires", ()):
        if name not in absent and not totals.get(name, empty).calls:
            violations.append(f"{name} never fired; declared to fire")
    for name, count in expect.get("exact", {}).items():
        calls = totals.get(name, empty).calls
        if name not in absent and calls != count:
            violations.append(f"{name} fired {calls} times; declared {count}")
    return violations
