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
``conftest`` the benchmarks import).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

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


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are full federated-training runs taking seconds to
    minutes, so the usual calibration/warm-up of pytest-benchmark is disabled.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
