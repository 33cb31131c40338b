"""The switch surface, checked on the imported objects.

Every protocol switch is declared once, as a ``SwitchSpec`` in
``SWITCH_REGISTRY``.  Three surfaces are still written by hand next to it:
the field defaults of ``FederatedConfig`` and ``ExperimentConfig``, the
CLI's parsed values, and the README switch table.  Each is compared with
the registry here.  The per-value obligations of a choice switch live with
the suites that hold them: the golden suite pins one seed history per
value (``tests/golden/test_golden_histories.py``), and
``tests/test_federation_dynamics.py`` parametrizes and dispatch-tests every
``straggler_policy``.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.config import ExperimentConfig
from repro.federated.config import FederatedConfig
from repro.federated.switches import SWITCH_REGISTRY, SwitchSpec

README = Path(__file__).resolve().parents[1] / "README.md"

#: A backticked value followed by a ``(default)`` marker.
_DEFAULT_MARKER = re.compile(r"`([^`]+)`\s*\(default\b")

each_switch = pytest.mark.parametrize(
    "spec", SWITCH_REGISTRY, ids=lambda spec: spec.name
)


def test_choice_switches_are_pinned():
    # A choice switch owes every value a dispatch branch, a golden case and
    # a parametrization in its suite.  The golden test reads the registry,
    # but the dispatch and suite tests are written per switch, so a new
    # choice switch fails here until it has its own.
    choice_switches = {spec.name for spec in SWITCH_REGISTRY if spec.kind == "choice"}
    assert choice_switches == {"straggler_policy"}


@each_switch
@pytest.mark.parametrize("config_class", (FederatedConfig, ExperimentConfig))
def test_dataclass_default_is_registry_default(spec, config_class):
    fields = {field.name: field for field in dataclasses.fields(config_class)}
    assert spec.name in fields, f"{config_class.__name__} has no field {spec.name!r}"
    assert fields[spec.name].default == spec.default, (
        f"{config_class.__name__}.{spec.name} defaults to "
        f"{fields[spec.name].default!r}, the registry to {spec.default!r}"
    )


def _non_default_value(spec: SwitchSpec) -> str:
    """A valid command-line value for ``spec`` other than its default."""
    if spec.kind == "choice":
        assert spec.choices is not None
        return next(choice for choice in spec.choices if choice != spec.default)
    if spec.kind == "int":
        return str(int(spec.default) + 3)
    return "0.25" if spec.default != 0.25 else "0.5"


@each_switch
@pytest.mark.parametrize("command", ("run", "serve"))
def test_cli_flag_parses_to_registry_default_and_type(spec, command):
    parser = build_parser()
    assert getattr(parser.parse_args([command]), spec.name) == spec.default
    value = _non_default_value(spec)
    parsed = getattr(parser.parse_args([command, spec.cli_flag, value]), spec.name)
    assert parsed == spec.cli_type(value)
    assert parsed != spec.default


def _first_cell_names(line: str) -> set[str]:
    """The code spans in the first cell of a markdown table row."""
    cells = line.strip().split("|")
    if len(cells) < 3 or cells[0]:
        return set()
    return set(re.findall(r"`([^`]+)`", cells[1]))


@each_switch
def test_readme_has_one_row_with_the_registry_default(spec):
    rows = [
        line
        for line in README.read_text(encoding="utf-8").splitlines()
        if {spec.name, spec.cli_flag} & _first_cell_names(line)
    ]
    assert len(rows) == 1, f"README has {len(rows)} switch-table rows for {spec.name!r}"
    [row] = rows
    assert {spec.name, spec.cli_flag} <= _first_cell_names(row), (
        f"the README row of {spec.name!r} must name both the field and {spec.cli_flag}"
    )
    assert _DEFAULT_MARKER.findall(row) == [str(spec.default)]
