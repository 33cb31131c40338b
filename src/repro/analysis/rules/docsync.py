"""R5 — config–CLI–docs sync.

A switch that exists only in ``FederatedConfig`` is invisible: users drive
experiments through :class:`~repro.experiments.config.ExperimentConfig`,
the ``fedrecattack`` CLI and the README's engine table.  This rule keeps
the surfaces in lock-step for every user-facing switch field.

When the tree declares the switch registry
(``src/repro/federated/switches.py``), the registry *is* the switch list —
every ``SwitchSpec`` entry is checked, and two extra legs apply:

* both config dataclasses must declare the field, and any literal dataclass
  default must equal the registry default (one default, stated once); a
  README row marking a value as the field's ``(default)`` must name that
  same registry default,
* the CLI leg is satisfied either by a literal ``--flag`` registration or
  by the registry idiom (``add_argument(spec.cli_flag, ...)``), which
  covers every registered switch at once.

Trees without a registry (the lint fixtures, historical checkouts) fall
back to the legacy switch list: the literal-realization switches extracted
for R2.

Always checked per switch:

* the field exists on ``ExperimentConfig`` (the experiment layer forwards
  it to the protocol layer),
* ``src/repro/cli.py`` exposes the matching ``--flag``,
* a README table row documents the field.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import project as model
from repro.analysis.core import Project, Rule, SourceFile, Violation, register

__all__ = ["ConfigCliDocsSyncRule"]


@register
class ConfigCliDocsSyncRule(Rule):
    id = "R5"
    name = "config-cli-docs-sync"
    summary = (
        "every user-facing switch field has an ExperimentConfig mirror, a CLI "
        "flag and a README engine-table row"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        config = project.source(model.FEDERATED_CONFIG)
        if config is None:
            return
        registry = project.source(model.SWITCH_REGISTRY_MODULE)
        registered = model.registry_switches(registry) if registry is not None else []
        if registered:
            assert registry is not None
            yield from self._check_with_registry(project, config, registry, registered)
            return
        yield from self._check_legacy(project, config)

    def _check_with_registry(
        self,
        project: Project,
        config: SourceFile,
        registry: SourceFile,
        registered: list[model.RegistrySwitch],
    ) -> Iterator[Violation]:
        federated_fields = model.class_field_names(config, "FederatedConfig")
        federated_defaults = model.class_field_defaults(config, "FederatedConfig")
        experiment = project.source(model.EXPERIMENT_CONFIG)
        experiment_fields = (
            model.class_field_names(experiment, "ExperimentConfig")
            if experiment is not None
            else None
        )
        experiment_defaults = (
            model.class_field_defaults(experiment, "ExperimentConfig")
            if experiment is not None
            else {}
        )
        cli = project.source(model.CLI_MODULE)
        flags = model.cli_flags(cli) if cli is not None else None
        cli_registry_driven = model.cli_uses_switch_registry(cli) if cli is not None else False
        readme_text = self._readme_text(project)

        for switch in registered:
            name, line = switch.name, switch.line
            if name not in federated_fields:
                yield self._violation(
                    registry,
                    line,
                    f"registry switch {name!r} is not declared as a "
                    "FederatedConfig field",
                )
            else:
                declared_default = federated_defaults.get(name, switch.default)
                if declared_default != switch.default:
                    yield self._violation(
                        registry,
                        line,
                        f"FederatedConfig default for {name!r} "
                        f"({declared_default!r}) disagrees with the registry "
                        f"default ({switch.default!r})",
                    )
            if experiment_fields is None:
                yield self._violation(
                    registry,
                    line,
                    f"cannot verify {name!r}: {model.EXPERIMENT_CONFIG} not found",
                )
            elif name not in experiment_fields:
                yield self._violation(
                    registry,
                    line,
                    f"switch field {name!r} has no ExperimentConfig mirror field",
                )
            else:
                mirror_default = experiment_defaults.get(name, switch.default)
                if mirror_default != switch.default:
                    yield self._violation(
                        registry,
                        line,
                        f"ExperimentConfig default for {name!r} "
                        f"({mirror_default!r}) disagrees with the registry "
                        f"default ({switch.default!r})",
                    )
            flag = "--" + name.replace("_", "-")
            if flags is None:
                yield self._violation(
                    registry, line, f"cannot verify {flag!r}: {model.CLI_MODULE} not found"
                )
            elif not cli_registry_driven and flag not in flags:
                yield self._violation(
                    registry,
                    line,
                    f"switch field {name!r} has no CLI flag {flag!r} in "
                    f"{model.CLI_MODULE} (and the CLI does not register flags "
                    "from the switch registry)",
                )
            yield from self._check_readme(registry, line, name, readme_text)
            yield from self._check_readme_default(registry, switch, readme_text)

    def _check_legacy(self, project: Project, config: SourceFile) -> Iterator[Violation]:
        switch_names = [field.name for field in model.extract_switch_fields(config)]
        if not switch_names:
            return
        lines = _field_lines(config)

        experiment = project.source(model.EXPERIMENT_CONFIG)
        experiment_fields = (
            model.class_field_names(experiment, "ExperimentConfig")
            if experiment is not None
            else None
        )
        cli = project.source(model.CLI_MODULE)
        flags = model.cli_flags(cli) if cli is not None else None
        readme_text = self._readme_text(project)

        for name in switch_names:
            line = lines.get(name, 1)
            if experiment_fields is None:
                yield self._violation(
                    config, line, f"cannot verify {name!r}: {model.EXPERIMENT_CONFIG} not found"
                )
            elif name not in experiment_fields:
                yield self._violation(
                    config,
                    line,
                    f"switch field {name!r} has no ExperimentConfig mirror field",
                )
            flag = "--" + name.replace("_", "-")
            if flags is None:
                yield self._violation(
                    config, line, f"cannot verify {flag!r}: {model.CLI_MODULE} not found"
                )
            elif flag not in flags:
                yield self._violation(
                    config,
                    line,
                    f"switch field {name!r} has no CLI flag {flag!r} in {model.CLI_MODULE}",
                )
            yield from self._check_readme(config, line, name, readme_text)

    def _check_readme(
        self, anchor: SourceFile, line: int, name: str, readme_text: str | None
    ) -> Iterator[Violation]:
        if readme_text is None:
            yield self._violation(
                anchor, line, f"cannot verify README row for {name!r}: README.md not found"
            )
        elif not model.readme_documents_field(readme_text, name):
            yield self._violation(
                anchor,
                line,
                f"switch field {name!r} has no README engine-table row "
                "(a markdown table line naming the field)",
            )

    def _check_readme_default(
        self, anchor: SourceFile, switch: model.RegistrySwitch, readme_text: str | None
    ) -> Iterator[Violation]:
        if readme_text is None:
            return
        for marked in model.readme_default_markers(readme_text, switch.name):
            if switch.default is None or marked != str(switch.default):
                yield self._violation(
                    anchor,
                    switch.line,
                    f"README row for {switch.name!r} marks {marked!r} as the "
                    f"default, but the registry default is {switch.default!r}",
                )

    def _readme_text(self, project: Project) -> str | None:
        readme_path = project.root / model.README
        return readme_path.read_text(encoding="utf-8") if readme_path.is_file() else None

    def _violation(self, anchor: SourceFile, line: int, message: str) -> Violation:
        return Violation(rule=self.id, path=anchor.rel, line=line, message=message)


def _field_lines(config: SourceFile) -> dict[str, int]:
    """Line numbers of ``FederatedConfig``'s annotated fields."""
    assert config.tree is not None
    for node in ast.walk(config.tree):
        if isinstance(node, ast.ClassDef) and node.name == "FederatedConfig":
            return {
                statement.target.id: statement.lineno
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            }
    return {}
