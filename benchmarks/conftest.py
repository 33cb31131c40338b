"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at the
laptop-scale :data:`BENCH_PROFILE` and

* saves the rendered table/figure text under ``benchmarks/results/``,
* asserts the paper's *qualitative* shape (who wins, where the crossover
  falls) — absolute numbers are expected to differ because the substrate is a
  calibrated miniature, not the authors' testbed.

Run with ``pytest benchmarks/ --benchmark-only``.  The perf gates race the
library against the per-user references in ``tests/oracles``, so that
directory goes on the import path (appended: this module stays the
``conftest`` the benchmarks import).  Their timings describe the machine
that ran them, so :func:`save_perf_record` writes them under
``benchmarks/results/local/``, which git ignores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
#: The perf gates' latest timings on this machine: rewritten by every run,
#: never committed.
PERF_DIR = RESULTS_DIR / "local"

_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where regenerated tables/figures are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Save a rendered table/figure to ``benchmarks/results/<name>.txt``."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _save


def save_perf_record(name: str, payload: dict[str, Any], text: str) -> None:
    """Write a perf gate's timings to ``PERF_DIR/<name>.json`` and ``.txt``."""
    PERF_DIR.mkdir(parents=True, exist_ok=True)
    (PERF_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    (PERF_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are full federated-training runs taking seconds to
    minutes, so the usual calibration/warm-up of pytest-benchmark is disabled.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
