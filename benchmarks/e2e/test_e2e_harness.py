"""Fast checks of the benchmark harness itself (spans, wrappers, schedule).

The entry point (``run.py``) is not collected; these tests exercise the
pieces it is built from with fake clocks and tiny inputs.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from e2e_layers import TARGETS, CountingGenerator, absent_spans, check_expectations
from e2e_loadgen import run_open_loop
from e2e_trace import (
    Patches,
    Span,
    Target,
    Tracer,
    check_metric_name,
    install_spans,
    percentile,
    self_times,
    summarize,
)
from e2e_workloads import TRAINING_KNOBS, check_answer, make_requests

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #


def test_self_time_subtracts_nested_and_back_to_back_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, 0),
        Span(2, "child", 1.0, 3.0, 1, 0),
        Span(3, "child", 3.0, 6.0, 1, 0),  # starts as its sibling ends
        Span(4, "grandchild", 1.5, 2.5, 2, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 1.0, 3: 3.0, 4: 1.0})
    totals = summarize(spans)
    assert totals["child"].calls == 2
    assert totals["child"].inclusive_s == pytest.approx(5.0)
    assert totals["child"].self_s == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, "parent", 0.0, 4.0, None, 0),
        Span(2, "a", 1.0, 3.0, 1, 0),
        Span(3, "b", 2.0, 3.5, 1, 0),
    ]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_tracer_links_parents_and_records_ops():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.begin()
    clock.sleep(1.0)
    inner = tracer.begin()
    clock.sleep(2.0)
    tracer.end("inner", inner)
    tracer.op = 7
    sibling = tracer.begin()
    clock.sleep(0.5)
    tracer.end("sibling", sibling)
    tracer.end("outer", outer)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["sibling"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert (by_name["outer"].op, by_name["sibling"].op) == (-1, 7)
    assert summarize(tracer.spans)["outer"].self_s == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Percentiles and names
# --------------------------------------------------------------------------- #


def test_percentile_reports_its_sample():
    result = percentile([float(v) for v in range(100, 0, -1)], 99)
    assert (result.value, result.samples, result.beyond) == (99.0, 100, 1)
    assert percentile([3.0, 1.0, 2.0], 50).value == 2.0
    ties = percentile([1.0, 1.0, 1.0, 5.0], 50)
    assert (ties.value, ties.beyond) == (1.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize("name", ["setup_s", "data.neg_yield", "a-b_c.9", "9x", "x" * 64])
def test_metric_names_accepted(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "p99%", "é", "x" * 65])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for source in HERE.iterdir():
        if source.is_file():
            shutil.copy(source, bench / source.name)
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    argv = ["--workload", "attack-ml100k", "--seed", "0", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_training_workloads_set_only_paper_level_knobs():
    for spec in WORKLOADS["workloads"].values():
        if spec["kind"] == "training":
            assert set(spec["config"]) <= TRAINING_KNOBS


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #


def _fake_module(monkeypatch):
    module = types.ModuleType("e2e_fake_target")

    def plain(x):
        return x + 1

    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def method(self, x):
            return 2 * x

        @staticmethod
        def static(x):
            return 3 * x

    module.plain, module.Base, module.Child = plain, Base, Child
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_wrappers_install_and_restore_original_bindings(monkeypatch):
    module = _fake_module(monkeypatch)
    originals = (module.plain, module.Child.__dict__["method"], module.Child.__dict__["static"])
    targets = [
        Target("fake.plain", module.__name__, "plain"),
        Target("fake.method", module.__name__, "Child.method", advances_op=True),
        Target("fake.static", module.__name__, "Child.static"),
        Target("fake.inherited", module.__name__, "Child.inherited"),
        Target("fake.gone", module.__name__, "missing"),
        Target("fake.gone", "e2e_no_such_module", "anything"),
    ]
    tracer = Tracer()
    patches = Patches()
    absent = install_spans(tracer, targets, patches)
    try:
        assert absent == ["e2e_fake_target:missing", "e2e_no_such_module:anything"]
        assert absent_spans(absent) == set()  # no real layer target is gone
        assert module.plain is not originals[0]
        child = module.Child()
        assert (module.plain(1), child.method(2), module.Child.static(3)) == (2, 4, 9)
        assert child.inherited() == "base"
        assert [s.name for s in tracer.spans] == [
            "fake.plain", "fake.method", "fake.static", "fake.inherited"
        ]
        assert tracer.op == 0  # advanced once, from -1
    finally:
        patches.restore()
    assert module.plain is originals[0]
    assert module.Child.__dict__["method"] is originals[1]
    assert module.Child.__dict__["static"] is originals[2]
    assert "inherited" not in module.Child.__dict__


def test_counting_generator_forwards_every_draw_and_counts_entries():
    counted = CountingGenerator(np.random.default_rng(5))
    plain = np.random.default_rng(5)
    np.testing.assert_array_equal(counted.permutation(10), plain.permutation(10))
    np.testing.assert_array_equal(
        counted.integers(0, 5, size=7), plain.integers(0, 5, size=7)
    )
    a, b = np.arange(4), np.arange(4)
    counted.shuffle(a)
    plain.shuffle(b)
    np.testing.assert_array_equal(a, b)
    assert counted.random() == plain.random()
    assert counted.drawn == 10 + 7 + 4 + 1
    assert counted.bit_generator is counted._rng.bit_generator


def test_layer_targets_are_restored():
    before = {}
    for target in TARGETS:  # a target the program dropped is simply absent
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            continue
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is not None and name in vars(owner):
            before[target.label] = (owner, name, vars(owner)[name])
    patches = Patches()
    absent = install_spans(Tracer(), TARGETS, patches)
    try:
        assert set(absent).isdisjoint(before)
        for owner, name, original in before.values():
            assert vars(owner)[name] is not original
    finally:
        patches.restore()
    for owner, name, original in before.values():
        assert vars(owner)[name] is original


def test_expectations_flag_unexpected_and_missing_calls():
    totals = summarize([Span(1, "attacks.refresh", 0.0, 1.0, None, 0)])
    expect = {
        "zero": ["attacks.refresh"],
        "fires": ["models.bpr", "serving.swap"],
        "exact": {"metrics.eval": 1},
    }
    violations = check_expectations(expect, totals, absent={"serving.swap"})
    assert violations == [
        "attacks.refresh fired 1 times; declared 0",
        "models.bpr never fired; declared to fire",
        "metrics.eval fired 0 times; declared 1",
    ]


# --------------------------------------------------------------------------- #
# Open loop
# --------------------------------------------------------------------------- #


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    service_times = [0.35, 0.01, 0.01, 0.01, 0.01]

    def send(index, request):
        clock.sleep(service_times[index])
        return 200, request

    samples = run_open_loop(
        [b"a", b"b", b"c", b"d", b"e"], 10.0, send, clock=clock, sleep=clock.sleep
    )
    # Request 0 stalls past the next three due times; each of them is sent
    # late and charged the wait.
    assert [s.due for s in samples] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    assert [s.latency for s in samples] == pytest.approx([0.35, 0.26, 0.17, 0.08, 0.01])
    assert [s.lag for s in samples] == pytest.approx([0.0, 0.25, 0.16, 0.07, 0.0])
    assert [s.body for s in samples] == [b"a", b"b", b"c", b"d", b"e"]


def test_open_loop_runs_writes_between_requests():
    clock = FakeClock()
    calls = []
    run_open_loop(
        range(4), 100.0, lambda i, r: (200, b""), between=calls.append,
        clock=clock, sleep=clock.sleep,
    )
    assert calls == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# Output checks and tracing transparency
# --------------------------------------------------------------------------- #


def _answer(user, items, snapshot):
    scores = snapshot.item_factors[items] @ snapshot.user_factors[user]
    return {
        "user": user,
        "items": [int(i) for i in items],
        "scores": [float(s) for s in scores],
        "snapshot_version": snapshot.version,
    }


def test_check_answer_allows_positives_only_after_every_unseen_item():
    from repro.data.dataset import InteractionDataset
    from repro.serving import FactorSnapshot

    rng = np.random.default_rng(0)
    interactions = np.array([[0, i] for i in range(1, 6)] + [[1, 0]], dtype=np.int64)
    train = InteractionDataset(2, 6, interactions)
    snapshot = FactorSnapshot(rng.normal(size=(2, 3)), rng.normal(size=(6, 3)), version=4)
    # User 0 has one unseen item (0), so four positives pad a list of five.
    assert check_answer(train, snapshot, 0, _answer(0, [0, 1, 2, 3, 4], snapshot), 5) is None
    assert check_answer(train, snapshot, 0, _answer(0, [1, 0, 2, 3, 4], snapshot), 5)
    assert check_answer(train, snapshot, 0, _answer(0, [0, 2, 1, 3, 4], snapshot), 5)
    # User 1 has five unseen items: the list is their exact ranking.
    order = np.argsort(-(snapshot.item_factors[1:] @ snapshot.user_factors[1])) + 1
    assert check_answer(train, snapshot, 1, _answer(1, order[:3], snapshot), 3) is None
    assert check_answer(train, snapshot, 1, _answer(1, order[1:4], snapshot), 3)
    assert check_answer(train, snapshot, 1, _answer(1, [0, *order[:2]], snapshot), 3)
    stale = dict(_answer(1, order[:3], snapshot), snapshot_version=3)
    assert check_answer(train, snapshot, 1, stale, 3)


def test_tracing_leaves_training_outputs_bit_identical():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(dataset="ml-100k", scale=0.05, num_epochs=2, seed=3)
    plain = run_experiment(config)
    tracer = Tracer()
    patches = Patches()
    install_spans(tracer, TARGETS, patches)
    try:
        traced = run_experiment(config)
    finally:
        patches.restore()
    assert (traced.er_at_5, traced.er_at_10, traced.hr_at_10) == (
        plain.er_at_5, plain.er_at_10, plain.hr_at_10
    )
    np.testing.assert_array_equal(traced.snapshot.item_factors, plain.snapshot.item_factors)
    fired = summarize(tracer.spans)
    assert fired["federated.apply"].calls == plain.snapshot.version
    assert fired["attacks.craft"].calls > 0
    drawn, returned = tracer.counters["data.neg_drawn"], tracer.counters["data.neg_returned"]
    assert drawn >= returned > 0


def test_requests_follow_user_activity_and_batch_share():
    from repro.data.dataset import InteractionDataset

    # User 1 has no interactions, user 2 has three times user 0's.
    interactions = np.array([[0, 0], [2, 0], [2, 1], [2, 2]], dtype=np.int64)
    train = InteractionDataset(3, 3, interactions)
    spec = {"batch_share": 0.25, "batch_size": 4}
    requests = make_requests(spec, 0, train, 2000)
    assert requests == make_requests(spec, 0, train, 2000)
    assert requests != make_requests(spec, 0, train, 2000, part=1)
    assert {len(r) for r in requests} == {1, 4}
    users = np.concatenate([np.asarray(r) for r in requests])
    counts = np.bincount(users, minlength=3)
    assert counts[1] == 0
    assert 2.7 < counts[2] / counts[0] < 3.3
