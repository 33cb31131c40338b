"""R7 — typed signatures.

``mypy --strict`` gates the library in CI, but mypy is a heavyweight,
sometimes-absent dependency; this rule enforces the *structural* half of
strictness with the stdlib so a bare checkout (and the pre-commit hook)
catches the common regressions instantly:

* every function in library code annotates every parameter and its return
  type (``self`` / ``cls`` receivers excepted) — mypy's
  ``disallow_untyped_defs`` / ``disallow_incomplete_defs``,
* no bare generic annotations (``dict`` for ``dict[str, Any]``, ``list``,
  ``tuple``, ``Callable``, ...) in signatures or field declarations —
  mypy's ``disallow_any_generics``.

What it deliberately does **not** re-implement: inference, assignment
compatibility, overload resolution.  That is mypy's job; this rule keeps
the annotation surface complete so mypy's strict run stays meaningful.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register

__all__ = ["TypedSignaturesRule"]

#: Generic types that must be parameterized when used as annotations.
_BARE_GENERICS = frozenset(
    {"dict", "list", "tuple", "set", "frozenset", "Callable", "Dict", "List",
     "Tuple", "Set", "FrozenSet", "Sequence", "Mapping", "Iterator", "Iterable"}
)


@register
class TypedSignaturesRule(Rule):
    id = "R7"
    name = "typed-signatures"
    summary = (
        "library functions annotate every parameter and return type, with no "
        "bare generics"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return not source.is_test_context

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        yield from self._visit(source, source.tree.body, inside_class=False)

    def _visit(
        self, source: SourceFile, body: list[ast.stmt], inside_class: bool
    ) -> Iterator[Violation]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node, inside_class)
                yield from self._visit(source, node.body, inside_class=False)
            elif isinstance(node, ast.ClassDef):
                yield from self._visit(source, node.body, inside_class=True)
            elif isinstance(node, ast.AnnAssign):
                yield from self._check_annotation(source, node.annotation)
            elif isinstance(node, (ast.If, ast.Try, ast.For, ast.While, ast.With)):
                yield from self._visit_nested(source, node, inside_class)

    def _visit_nested(
        self, source: SourceFile, node: ast.stmt, inside_class: bool
    ) -> Iterator[Violation]:
        for field_name in ("body", "orelse", "finalbody"):
            children = getattr(node, field_name, None)
            if children:
                yield from self._visit(source, children, inside_class)
        for handler in getattr(node, "handlers", []) or []:
            yield from self._visit(source, handler.body, inside_class)

    def _check_function(
        self,
        source: SourceFile,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        inside_class: bool,
    ) -> Iterator[Violation]:
        arguments = node.args
        positional = [*arguments.posonlyargs, *arguments.args]
        missing: list[str] = []
        for index, argument in enumerate(positional):
            if inside_class and index == 0 and argument.arg in ("self", "cls"):
                continue
            if argument.annotation is None:
                missing.append(argument.arg)
            else:
                yield from self._check_annotation(source, argument.annotation)
        for argument in arguments.kwonlyargs:
            if argument.annotation is None:
                missing.append(argument.arg)
            else:
                yield from self._check_annotation(source, argument.annotation)
        for vararg, prefix in ((arguments.vararg, "*"), (arguments.kwarg, "**")):
            if vararg is None:
                continue
            if vararg.annotation is None:
                missing.append(prefix + vararg.arg)
            else:
                yield from self._check_annotation(source, vararg.annotation)
        if missing:
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    f"{node.name}() leaves parameter(s) "
                    f"{', '.join(repr(name) for name in missing)} unannotated"
                ),
            )
        if node.returns is None:
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=f"{node.name}() has no return annotation",
            )
        else:
            yield from self._check_annotation(source, node.returns)

    def _check_annotation(
        self, source: SourceFile, annotation: ast.expr
    ) -> Iterator[Violation]:
        for bare in _bare_generics(annotation):
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=annotation.lineno,
                message=(
                    f"bare generic annotation {bare!r}: parameterize it "
                    f"(e.g. {bare}[...]) so mypy --strict keeps its precision"
                ),
            )


def _bare_generics(annotation: ast.expr) -> list[str]:
    """Bare generic names used inside ``annotation``.

    A generic name is *bare* when it is not the value of a ``Subscript``
    (``dict`` alone vs ``dict[str, int]``).  String annotations are parsed
    and inspected the same way.
    """
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return []
    subscripted: set[int] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Subscript):
            subscripted.add(id(node.value))
    bare: list[str] = []
    for node in ast.walk(annotation):
        name: str | None = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in _BARE_GENERICS and id(node) not in subscripted:
            bare.append(name)
    return bare
