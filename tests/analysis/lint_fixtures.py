"""Fixture-project helpers for the ``repro-lint`` test suite.

The rules scope files by their path inside a project (library code under
``src/``, test code under ``tests/``), so the tests build miniature
projects in ``tmp_path`` and lint them.  :data:`CLEAN_TREE` is a minimal
project that satisfies every rule; a test adds or corrupts one file and
asserts that precisely the intended finding appears.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

import pytest

from repro.analysis import Report, run_analysis

_LIBRARY = '''\
"""Library module (fixture)."""

from __future__ import annotations

__all__ = ["train_round"]


def train_round(rounds: int) -> list[int]:
    return list(range(rounds))
'''

_TEST = '''\
"""Test module (fixture)."""

from repro.engine import train_round


def test_train_round() -> None:
    assert train_round(2) == [0, 1]
'''

#: A minimal project satisfying every repro-lint rule.
CLEAN_TREE: dict[str, str] = {
    "src/repro/engine.py": _LIBRARY,
    "tests/test_engine.py": _TEST,
}


def write_tree(root: Path, files: Mapping[str, str]) -> Path:
    """Write ``files`` (relative path -> content) under ``root``."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


def lint(
    root: Path,
    paths: Iterable[str] = ("src", "tests"),
    select: Iterable[str] | None = None,
) -> Report:
    """Run the analyzer over a fixture tree."""
    return run_analysis(root, tuple(paths), select=select)


def messages(report: Report) -> list[str]:
    return [violation.format() for violation in report.violations]


# Imported (not defined in a conftest.py: a `conftest` module here would
# shadow the benchmarks/ one in pytest's flat prepend-mode namespace) by the
# test modules that need a ready-made clean project.
@pytest.fixture
def clean_root(tmp_path: Path) -> Path:
    """A fixture project that lints clean."""
    return write_tree(tmp_path, CLEAN_TREE)
