"""R3 — densification guard.

The :class:`~repro.data.store.InteractionStore` and the sparse round-update
containers (:class:`~repro.federated.updates.SparseRoundUpdates`,
:class:`~repro.federated.updates.FactoredRoundUpdates`) exist so the hot
paths never materialize ``(num_users, num_items)`` or ``(nnz, k)`` dense
arrays.  A stray ``.toarray()`` or an ``np.stack`` over per-client mask rows
quietly reintroduces the quadratic allocations PRs 1–4 removed — the perf
gates only catch it when the regression is large enough to trip a ratio.

This rule flags, in library code outside the explicit allowlist:

* ``.toarray()`` / ``.todense()`` calls (scipy-style densification),
* ``.to_dense(...)`` calls (the round-update debugging escape hatch),
* ``np.stack`` / ``np.vstack`` / ``np.column_stack`` whose operand mentions
  a mask (``positive_mask``, ``mask_rows``, ...) — stacked mask copies are
  exactly what :meth:`InteractionStore.mask_rows` replaced.

The allowlist contains the modules whose *job* is materialization: the
store itself and the update containers' densify points.  Anything else
needs a per-line suppression with a reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register

__all__ = ["DensificationGuardRule"]

#: Modules allowed to materialize dense structures.
ALLOWED_FILES = (
    "src/repro/data/store.py",
    "src/repro/federated/updates.py",
)

_DENSIFY_METHODS = frozenset({"toarray", "todense", "to_dense"})
_STACK_FUNCTIONS = frozenset({"stack", "vstack", "column_stack"})


@register
class DensificationGuardRule(Rule):
    id = "R3"
    name = "densification-guard"
    summary = (
        "no dense materialization of store-backed masks or sparse round "
        "updates outside the store/updates modules"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return not source.is_test_context and source.rel not in ALLOWED_FILES

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _DENSIFY_METHODS:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f".{func.attr}() densifies a sparse structure; keep the "
                        "CSR/factored form or move the materialization into "
                        f"{' / '.join(ALLOWED_FILES)}"
                    ),
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _STACK_FUNCTIONS
                and node.args
                and _mentions_mask(node.args[0])
            ):
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"np.{func.attr} over mask rows copies what "
                        "InteractionStore already caches; gather views via "
                        "store.mask_rows / store.mask_block instead"
                    ),
                )


def _mentions_mask(node: ast.expr) -> bool:
    """Whether the stacked operand references a mask by name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and "mask" in child.attr:
            return True
        if isinstance(child, ast.Name) and "mask" in child.id:
            return True
    return False
