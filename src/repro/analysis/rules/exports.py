"""R6 — export consistency.

Every module in this repository declares ``__all__``; with the ``py.typed``
marker the exported surface is also the typed surface, so a stale entry
(renamed function, deleted class) breaks ``from repro.x import *`` users
and type checkers alike.  This rule verifies, per module that declares
``__all__``:

* the declaration is a literal list/tuple of strings (a dynamically built
  ``__all__`` cannot be checked — or trusted — statically),
* every exported name is actually bound at module top level (definition,
  assignment or import; modules with a ``*`` re-export are skipped since
  their bindings are not statically knowable),
* no name is exported twice.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register

__all__ = ["ExportConsistencyRule"]


@register
class ExportConsistencyRule(Rule):
    id = "R6"
    name = "export-consistency"
    summary = "__all__ is a literal list of unique names that exist in the module"

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        declaration = _find_all_declaration(source.tree)
        if declaration is None:
            return
        node, value = declaration
        exported = _literal_names(value)
        if exported is None:
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    "__all__ must be a literal list/tuple of string names so the "
                    "exported surface is statically checkable"
                ),
            )
            return
        seen: set[str] = set()
        for name in exported:
            if name in seen:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=f"__all__ exports {name!r} more than once",
                )
            seen.add(name)
        defined, has_star = _module_bindings(source.tree)
        if has_star:
            return
        for name in exported:
            if name not in defined:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"__all__ exports {name!r} but the module defines no such "
                        "name"
                    ),
                )


def _find_all_declaration(
    tree: ast.Module,
) -> tuple[ast.stmt, ast.expr] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return node, node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
            and node.value is not None
        ):
            return node, node.value
    return None


def _literal_names(value: ast.expr) -> list[str] | None:
    if not isinstance(value, (ast.List, ast.Tuple)):
        return None
    names: list[str] = []
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


def _module_bindings(tree: ast.Module) -> tuple[set[str], bool]:
    """Names bound at module top level, and whether a ``*`` import exists.

    Top level includes the bodies of module-level ``if`` / ``try`` / ``with``
    / loop statements (e.g. ``if TYPE_CHECKING:`` imports), matching how the
    interpreter binds them.
    """
    names: set[str] = set()
    has_star = False

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                add_target(element)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    def visit(body: list[ast.stmt]) -> None:
        nonlocal has_star
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    add_target(target)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                add_target(node.target)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        names.add(alias.asname or alias.name)
            elif isinstance(node, ast.If):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                visit(node.orelse)
                visit(node.finalbody)
                for handler in node.handlers:
                    visit(handler.body)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                add_target(node.target)
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.While):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        add_target(item.optional_vars)
                visit(node.body)

    visit(tree.body)
    return names, has_star
