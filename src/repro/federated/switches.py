"""Declarative registry of the user-facing protocol switches.

Every protocol switch used to be mirrored by hand across four surfaces:
:class:`~repro.federated.config.FederatedConfig` (declaration + a literal
membership check in ``validate``),
:class:`~repro.experiments.config.ExperimentConfig` (the experiment-layer
mirror field), ``repro.cli`` (the ``--flag``) and the README switch table.
This module is the consolidation: one :class:`SwitchSpec` per switch,
declaring its name, kind, default, choices and documentation, from which

* ``FederatedConfig.validate`` derives the per-switch value checks,
* ``ExperimentConfig.to_federated_config`` forwards the switch fields,
* the CLI builds its ``--flag`` arguments
  (:func:`repro.cli.add_switch_arguments`).

``tests/test_switch_registry.py`` imports the registry and checks the
surfaces it does not generate: both dataclass defaults, the parsed CLI
defaults and the README rows.

Every registered switch is independent of the others: any combination of
valid values is a valid configuration.  A constraint relating *several*
fields would not be a per-switch fact and would belong in
``FederatedConfig.validate``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["SwitchSpec", "SWITCH_REGISTRY"]


@dataclass(frozen=True)
class SwitchSpec:
    """One user-facing switch: declaration, validation and documentation.

    Attributes
    ----------
    name:
        The field name on both config dataclasses (``straggler_policy``,
        ``min_reporters``, ...).
    kind:
        ``"choice"`` (a string drawn from :attr:`choices`), ``"int"`` (an
        integer bounded below by :attr:`minimum`) or ``"rate"`` (a
        probability in ``[0, 1]``, zero allowed — the dynamics rates).
    default:
        The default value; must equal the dataclass field default on
        ``FederatedConfig`` and ``ExperimentConfig``.
    choices:
        The values of a ``"choice"`` switch (``None`` otherwise).  Each one
        needs a dispatch branch, a golden seed-history case and a
        parametrization in its suite.
    minimum:
        Inclusive lower bound of an ``"int"`` switch (``None`` otherwise).
    help:
        One-line CLI help text (also the registry's doc row).
    """

    name: str
    kind: str
    default: str | int | float
    choices: tuple[str, ...] | None = None
    minimum: int | None = None
    help: str = ""

    @property
    def cli_flag(self) -> str:
        """The CLI flag registered for this switch (``--min-reporters`` style)."""
        return "--" + self.name.replace("_", "-")

    @property
    def cli_type(self) -> type:
        """The argparse ``type`` callable parsing this switch's values."""
        if self.kind == "int":
            return int
        if self.kind == "rate":
            return float
        return str

    def validate_value(self, value: object) -> None:
        """Raise :class:`ConfigurationError` when ``value`` is invalid."""
        if self.kind == "choice":
            assert self.choices is not None
            if value not in self.choices:
                rendered = " or ".join(repr(choice) for choice in self.choices)
                raise ConfigurationError(
                    f"{self.name} must be {rendered}, got {value!r}"
                )
            return
        if self.kind == "int":
            assert self.minimum is not None
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"{self.name} must be an integer, got {value!r}"
                )
            if int(value) < self.minimum:
                raise ConfigurationError(
                    f"{self.name} must be at least {self.minimum}"
                )
            return
        if self.kind == "rate":
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{self.name} must be a number, got {value!r}")
            if not 0.0 <= float(value) <= 1.0:
                raise ConfigurationError(f"{self.name} must be in [0, 1]")
            return
        raise ConfigurationError(f"unknown switch kind {self.kind!r} for {self.name!r}")


#: The single source of truth for the switch surface.  Order matters only
#: for presentation (CLI flag order follows it).
SWITCH_REGISTRY: tuple[SwitchSpec, ...] = (
    SwitchSpec(
        name="dropout_rate",
        kind="rate",
        default=0.0,
        help="per-round probability that a sampled client drops out and never reports",
    ),
    SwitchSpec(
        name="crash_rate",
        kind="rate",
        default=0.0,
        help="per-round probability that a sampled client crashes mid-update (trains, upload lost)",
    ),
    SwitchSpec(
        name="straggler_rate",
        kind="rate",
        default=0.0,
        help="per-round probability that a sampled client straggles (reports late)",
    ),
    SwitchSpec(
        name="straggler_policy",
        kind="choice",
        default="wait",
        choices=("wait", "discard", "stale-merge"),
        help=(
            "what the round does with straggler reports: 'wait' (default, the "
            "round waits), 'discard' (late updates dropped) or 'stale-merge' "
            "(late updates merged in the round they arrive)"
        ),
    ),
    SwitchSpec(
        name="min_reporters",
        kind="int",
        default=0,
        minimum=0,
        help="reporter quorum: a round below it aborts and redraws its fault schedule (0: disabled)",
    ),
)
