"""Fixture-project helpers for the ``repro-lint`` test suite.

The analyzer's cross-file rules (switch parity, config–CLI–docs sync) are
contracts over a whole tree, so the tests build miniature projects in
``tmp_path`` and lint them.  :data:`CLEAN_TREE` is a minimal project that
satisfies *every* rule; the negative tests each delete or corrupt exactly
one leg of one contract and assert that precisely that leg fails — the
"deleting a golden case is a red build" property the rules exist for.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

import pytest

from repro.analysis import Report, run_analysis

_FEDERATED_CONFIG = '''\
"""Protocol switches (fixture)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FederatedConfig"]


@dataclass
class FederatedConfig:
    engine: str = "vectorized"
    sampler: str = "permutation"
    min_reporters: int = 0

    def validate(self) -> None:
        if self.engine not in ("loop", "vectorized"):
            raise ValueError(self.engine)
        if self.sampler not in ("permutation", "batched"):
            raise ValueError(self.sampler)
        if self.min_reporters < 0:
            raise ValueError(self.min_reporters)
'''

_EXPERIMENT_CONFIG = '''\
"""Experiment layer (fixture)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentConfig"]


@dataclass
class ExperimentConfig:
    engine: str = "vectorized"
    sampler: str = "permutation"
    min_reporters: int = 0
'''

_CLI = '''\
"""CLI (fixture)."""

from __future__ import annotations

import argparse

__all__ = ["build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    parser.add_argument("--engine")
    parser.add_argument("--sampler")
    parser.add_argument("--min-reporters")
    return parser
'''

_ENGINE = '''\
"""Dispatch sites (fixture)."""

from __future__ import annotations

__all__ = ["train_round", "draw_negatives"]


def train_round(engine: str) -> str:
    if engine == "loop":
        return "loop path"
    if engine == "vectorized":
        return "vectorized path"
    raise ValueError(engine)


def draw_negatives(sampler: str) -> str:
    if sampler == "permutation":
        return "per-client streams"
    if sampler == "batched":
        return "round stream"
    raise ValueError(sampler)
'''

_EQUIVALENCE_SUITE = '''\
"""Engine/sampler equivalence suite (fixture)."""

ENGINES = ("loop", "vectorized")
SAMPLERS = ("permutation", "batched")


def test_parametrizations() -> None:
    assert len(ENGINES) == 2
    assert len(SAMPLERS) == 2
'''

_GOLDEN_CASES = '''\
"""Golden case grid (fixture)."""

GOLDEN_CASES = {
    "loop-perm": {"engine": "loop", "sampler": "permutation"},
    "vec-batched": {"engine": "vectorized", "sampler": "batched"},
    "vec-perm": {"engine": "vectorized", "sampler": "permutation"},
}
'''

_README = """\
# Fixture project

| Switch | CLI flag | Values |
| --- | --- | --- |
| `engine` | `--engine` | `loop`, `vectorized` |
| `sampler` | `--sampler` | `permutation`, `batched` |
| `min_reporters` | `--min-reporters` | non-negative int |
"""

#: A minimal project satisfying every repro-lint rule.  Deliberately has NO
#: switch registry: it pins the legacy fallback extraction (validate
#: membership checks) that historical checkouts rely on.
CLEAN_TREE: dict[str, str] = {
    "src/repro/federated/config.py": _FEDERATED_CONFIG,
    "src/repro/experiments/config.py": _EXPERIMENT_CONFIG,
    "src/repro/cli.py": _CLI,
    "src/repro/federated/engine.py": _ENGINE,
    "tests/test_federated_engine_equivalence.py": _EQUIVALENCE_SUITE,
    "tests/golden/golden_cases.py": _GOLDEN_CASES,
    "README.md": _README,
}


_SWITCH_REGISTRY = '''\
"""Declarative switch registry (fixture)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SwitchSpec", "SWITCH_REGISTRY"]


@dataclass(frozen=True)
class SwitchSpec:
    name: str
    kind: str
    default: str | int | None = None
    choices: tuple[str, ...] = ()
    minimum: int = 0


SWITCH_REGISTRY = (
    SwitchSpec(
        name="engine",
        kind="choice",
        default="vectorized",
        choices=("loop", "vectorized"),
    ),
    SwitchSpec(
        name="sampler",
        kind="choice",
        default="permutation",
        choices=("permutation", "batched"),
    ),
    SwitchSpec(name="min_reporters", kind="int", default=0, minimum=0),
)
'''

_CLI_REGISTRY_DRIVEN = '''\
"""CLI built from the switch registry (fixture)."""

from __future__ import annotations

import argparse

from repro.federated.switches import SWITCH_REGISTRY

__all__ = ["build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    for spec in SWITCH_REGISTRY:
        parser.add_argument(spec.cli_flag)
    return parser
'''

#: The clean tree plus a declarative switch registry: the rules must read
#: the switch surface from the registry (and anchor violations there).
REGISTRY_TREE: dict[str, str] = {
    **CLEAN_TREE,
    "src/repro/federated/switches.py": _SWITCH_REGISTRY,
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


def rules_hit(report: Report) -> set[str]:
    return {violation.rule for violation in report.violations}


def messages(report: Report) -> list[str]:
    return [violation.format() for violation in report.violations]


# Imported (not defined in a conftest.py: a `conftest` module here would
# shadow the benchmarks/ one in pytest's flat prepend-mode namespace) by the
# test modules that need a ready-made clean project.
@pytest.fixture
def clean_root(tmp_path: Path) -> Path:
    """A fixture project that lints clean."""
    return write_tree(tmp_path, CLEAN_TREE)
