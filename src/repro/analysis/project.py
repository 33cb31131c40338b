"""Static extraction of the project's switch-contract model.

The switch-parity and config–CLI–docs rules both need the same facts,
extracted from the tree without importing it:

* which **switch fields** :class:`repro.federated.config.FederatedConfig`
  declares, with their literal realizations and defaults — read from the
  dataclass body (``engine: str = "vectorized"``) and the membership checks
  in ``validate`` (``if self.engine not in ("loop", "vectorized")``),
* which realizations each subsystem **dispatches** on (string comparisons
  against a matching name anywhere in the library),
* which realizations the **equivalence suites** parametrize over and the
  **golden case grid** pins,
* which ``--flags`` the CLI exposes and which fields the README's engine
  table documents.

Everything here is resilient to absence: a missing anchor file yields an
empty model, and the rules translate absence into violations only when a
contract actually demands the file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.core import SourceFile

__all__ = [
    "SwitchField",
    "RegistrySwitch",
    "extract_switch_fields",
    "registry_switches",
    "class_field_defaults",
    "cli_uses_switch_registry",
    "module_string_constants",
    "comparison_realizations",
    "golden_field_values",
    "cli_flags",
    "readme_documents_field",
    "readme_default_markers",
    "class_field_names",
]

#: Project-relative anchor files the cross-file contracts are rooted in.
FEDERATED_CONFIG = "src/repro/federated/config.py"
EXPERIMENT_CONFIG = "src/repro/experiments/config.py"
SWITCH_REGISTRY_MODULE = "src/repro/federated/switches.py"
GOLDEN_CASES = "tests/golden/golden_cases.py"
CLI_MODULE = "src/repro/cli.py"
README = "README.md"

#: Modules whose string comparisons are *definitions* of the realization
#: sets, not dispatch sites — excluded from dispatch evidence so the
#: registry cannot trivially prove itself.
CONFIG_MODULES = (FEDERATED_CONFIG, EXPERIMENT_CONFIG, SWITCH_REGISTRY_MODULE)


@dataclass(frozen=True)
class SwitchField:
    """One literal-realization switch declared by ``FederatedConfig``."""

    name: str
    realizations: tuple[str, ...]
    default: str | None
    line: int


def extract_switch_fields(source: SourceFile) -> list[SwitchField]:
    """The switch fields declared by ``FederatedConfig`` in ``source``.

    A field counts as a switch when ``validate`` checks it against a tuple
    (or list, or module-level constant) of string literals.
    """
    if source.tree is None:
        return []
    constants = module_string_constants(source.tree)
    fields: list[SwitchField] = []
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "FederatedConfig"):
            continue
        defaults: dict[str, tuple[str, int]] = {}
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                defaults[statement.target.id] = (statement.value.value, statement.lineno)
        for method in node.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "validate"):
                continue
            for compare in ast.walk(method):
                if not isinstance(compare, ast.Compare):
                    continue
                if len(compare.ops) != 1 or not isinstance(
                    compare.ops[0], (ast.In, ast.NotIn)
                ):
                    continue
                left = compare.left
                if not (
                    isinstance(left, ast.Attribute)
                    and isinstance(left.value, ast.Name)
                    and left.value.id == "self"
                ):
                    continue
                literals = _string_literals(compare.comparators[0], constants)
                if not literals:
                    continue
                default, line = defaults.get(left.attr, (None, compare.lineno))
                fields.append(
                    SwitchField(
                        name=left.attr,
                        realizations=tuple(literals),
                        default=default,
                        line=line,
                    )
                )
    return fields


@dataclass(frozen=True)
class RegistrySwitch:
    """One ``SwitchSpec(...)`` entry of the declarative switch registry.

    Extracted purely statically from the literal keyword arguments of each
    ``SwitchSpec`` call — which is exactly why the registry module requires
    them to be literals.
    """

    name: str
    kind: str
    default: str | int | float | None
    choices: tuple[str, ...]
    line: int


def registry_switches(source: SourceFile) -> list[RegistrySwitch]:
    """The switches declared by the ``SwitchSpec(...)`` registry in ``source``.

    Returns an empty list when the file is absent or declares no specs —
    the rules fall back to the legacy ``validate``-membership extraction
    (:func:`extract_switch_fields`) in that case, so fixture trees without a
    registry keep their historical behaviour.
    """
    if source.tree is None:
        return []
    switches: list[RegistrySwitch] = []
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SwitchSpec"
        ):
            continue
        keywords: dict[str, ast.expr] = {
            keyword.arg: keyword.value for keyword in node.keywords if keyword.arg
        }
        name_node = keywords.get("name")
        kind_node = keywords.get("kind")
        if not (
            isinstance(name_node, ast.Constant)
            and isinstance(name_node.value, str)
            and isinstance(kind_node, ast.Constant)
            and isinstance(kind_node.value, str)
        ):
            continue
        default: str | int | float | None = None
        default_node = keywords.get("default")
        if isinstance(default_node, ast.Constant) and isinstance(
            default_node.value, (str, int, float, type(None))
        ):
            default = default_node.value
        choices: tuple[str, ...] = ()
        choices_node = keywords.get("choices")
        if choices_node is not None:
            choices = tuple(_string_literals(choices_node, {}))
        switches.append(
            RegistrySwitch(
                name=name_node.value,
                kind=kind_node.value,
                default=default,
                choices=choices,
                line=node.lineno,
            )
        )
    return switches


def class_field_defaults(
    source: SourceFile, class_name: str
) -> dict[str, str | int | float | None]:
    """Literal defaults of the annotated fields in ``class_name``'s body.

    Only constant defaults (strings, ints, floats, ``None``) are recorded;
    fields with computed defaults (``field(default_factory=...)``) are
    simply absent — the parity rules only compare what is statically known.
    """
    if source.tree is None:
        return {}
    for node in ast.walk(source.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        defaults: dict[str, str | int | float | None] = {}
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, (str, int, float, type(None)))
                and not isinstance(statement.value.value, bool)
            ):
                defaults[statement.target.id] = statement.value.value
        return defaults
    return {}


def cli_uses_switch_registry(source: SourceFile) -> bool:
    """Whether the CLI registers its switch flags from the registry.

    The registry idiom is ``parser.add_argument(spec.cli_flag, ...)`` inside
    a loop over the registry — statically visible as an ``add_argument``
    call whose first positional argument is an attribute access ending in
    ``cli_flag``.
    """
    if source.tree is None:
        return False
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            continue
        if node.args and (
            isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "cli_flag"
        ):
            return True
    return False


def module_string_constants(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level names bound to string literals or tuples/lists of them.

    Used to resolve idioms like ``SAMPLERS = ("permutation", "batched")``
    and ``for _engine in ENGINES`` without executing the module.
    """
    constants: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        literals = _string_literals(value, {})
        if not literals:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = tuple(literals)
    return constants


def _string_literals(
    node: ast.expr, constants: dict[str, tuple[str, ...]]
) -> list[str]:
    """String literals contained in a constant, tuple/list, or known name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List)):
        out: list[str] = []
        for element in node.elts:
            out.extend(_string_literals(element, constants))
        return out
    if isinstance(node, ast.Name) and node.id in constants:
        return list(constants[node.id])
    return []


def _names_match(identifier: str, field_name: str) -> bool:
    """Whether a local/attribute name plausibly refers to a switch field.

    ``_sampler`` and ``sampler`` match ``sampler``; a bare ``engine`` local
    (e.g. an ``engine=`` parameter of the evaluation entry point) also
    matches ``eval_engine`` — dispatch evidence is deliberately a little
    generous, coverage requirements are not.
    """
    identifier = identifier.lstrip("_")
    return identifier == field_name or field_name.endswith("_" + identifier)


def comparison_realizations(
    sources: list[SourceFile], field_name: str
) -> set[str]:
    """Realization literals compared against ``field_name`` in ``sources``."""
    evidence: set[str] = set()
    for source in sources:
        if source.tree is None:
            continue
        constants = module_string_constants(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            named = any(
                (isinstance(side, ast.Attribute) and _names_match(side.attr, field_name))
                or (isinstance(side, ast.Name) and _names_match(side.id, field_name))
                for side in sides
            )
            if not named:
                continue
            for side in sides:
                evidence.update(_string_literals(side, constants))
    return evidence


def all_string_constants(source: SourceFile) -> set[str]:
    """Every string literal appearing anywhere in ``source``."""
    if source.tree is None:
        return set()
    return {
        node.value
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def golden_field_values(source: SourceFile, field_name: str) -> set[str]:
    """Values the golden case grid explicitly assigns to ``field_name``.

    Understands three idioms: literal dict entries (``"engine": "loop"``),
    keyword arguments (``ExperimentConfig(engine="loop")``) and loop
    variables ranging over literal tuples
    (``for _engine in ("loop", "vectorized"): ... {"engine": _engine}``).
    """
    if source.tree is None:
        return set()
    constants = module_string_constants(source.tree)
    loop_values: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            literals = _string_literals(node.iter, constants)
            if literals:
                loop_values[node.target.id] = tuple(literals)
    resolver = {**constants, **loop_values}

    values: set[str] = set()

    def resolve(value: ast.expr) -> None:
        values.update(_string_literals(value, resolver))

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == field_name
                    and value is not None
                ):
                    resolve(value)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == field_name:
                    resolve(keyword.value)
    return values


def cli_flags(source: SourceFile) -> set[str]:
    """Every ``--flag`` the CLI module registers via ``add_argument``."""
    if source.tree is None:
        return set()
    flags: set[str] = set()
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            continue
        for argument in node.args:
            if (
                isinstance(argument, ast.Constant)
                and isinstance(argument.value, str)
                and argument.value.startswith("--")
            ):
                flags.add(argument.value)
    return flags


def _field_token(field_name: str) -> re.Pattern[str]:
    """``field_name`` as a standalone token (not part of a longer name)."""
    return re.compile(r"(?<![\w-])" + re.escape(field_name) + r"(?![\w-])")


def readme_documents_field(text: str, field_name: str) -> bool:
    """Whether a README table row documents ``field_name``.

    A row is a markdown table line (starting with ``|``) containing the
    field name as a standalone token — ``engine`` does not match the
    ``eval_engine`` or ``--eval-engine`` rows.
    """
    pattern = _field_token(field_name)
    for line in text.splitlines():
        if line.lstrip().startswith("|") and pattern.search(line):
            return True
    return False


#: A backticked value followed by a ``(default)`` / ``(default: ...)`` marker.
_DEFAULT_MARKER = re.compile(r"`([^`]+)`\s*\(default\b")


def readme_default_markers(text: str, field_name: str) -> list[str]:
    """Values the README marks as ``field_name``'s default.

    Only the table rows *about* the field count — those whose first cell
    names it — so a row that merely mentions the field elsewhere (say, in
    its realization column) never contributes its own default.
    """
    pattern = _field_token(field_name)
    markers: list[str] = []
    for line in text.splitlines():
        cells = line.strip().split("|")
        if len(cells) > 2 and not cells[0] and pattern.search(cells[1]):
            markers.extend(_DEFAULT_MARKER.findall(line))
    return markers


def class_field_names(source: SourceFile, class_name: str) -> set[str]:
    """Names of the annotated fields in ``class_name``'s body."""
    if source.tree is None:
        return set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            }
    return set()


def iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """All call expressions in ``tree`` (shared by several rules)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
