"""R8 — protocol-dispatch.

Scoring models are consumed through the structural
:class:`~repro.models.base.ScorerProtocol` — an object that can ``score``
and ``score_block`` *is* a scorer, whatever its class.  An
``isinstance``/``issubclass`` check against a concrete model class outside
``models/`` re-introduces nominal dispatch: code starts branching per model
type, and it turns away any object that serves through the protocol without
being a :class:`~repro.models.mf.MatrixFactorizationModel`.  The protocol
tests serve exactly such an object (a structural stand-in that subclasses
nothing), so the library must keep accepting one.

This rule forbids ``isinstance``/``issubclass`` calls whose class argument
names a concrete model class (:data:`MODEL_CLASS_NAMES`) in library files
outside ``src/repro/models/``.  Checks against ``ScorerProtocol`` itself are
the sanctioned structural dispatch
(:func:`repro.metrics.evaluation.resolve_score_block` is the canonical
site) and are always allowed, as are the model classes' own modules (a
class may know itself) and test files (asserting concrete types is what
tests do).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register

__all__ = ["ProtocolDispatchRule", "MODEL_CLASS_NAMES"]

#: Concrete model classes that must never be nominally dispatched on
#: outside ``src/repro/models/``.  ``ScorerProtocol`` is deliberately
#: absent: structural checks against the protocol are the sanctioned form.
MODEL_CLASS_NAMES = (
    "Recommender",
    "MatrixFactorizationModel",
)

#: The directory whose files may check concrete model classes.
_MODELS_PREFIX = "src/repro/models/"


def _named_classes(node: ast.expr) -> Iterator[str]:
    """Class names referenced by an isinstance/issubclass class argument."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _named_classes(element)


@register
class ProtocolDispatchRule(Rule):
    id = "R8"
    name = "protocol-dispatch"
    summary = (
        "models are consumed through ScorerProtocol: no isinstance/issubclass "
        "against concrete model classes outside models/"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return (
            not source.is_test_context
            and source.rel.startswith("src/")
            and not source.rel.startswith(_MODELS_PREFIX)
        )

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
            ):
                continue
            for class_name in _named_classes(node.args[1]):
                if class_name in MODEL_CLASS_NAMES:
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            f"{node.func.id} against concrete model class "
                            f"{class_name!r}; dispatch through ScorerProtocol "
                            "(see repro.metrics.evaluation.resolve_score_block) "
                            "instead of nominal model checks"
                        ),
                    )
