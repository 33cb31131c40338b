"""R4 — bit-exactness lint.

The equivalence suites and the golden seed-history harness are the proof
of the repository's central claim: fast engines replay the *same* histories
as their loop oracles under a pinned RNG contract.  An
``assert_allclose`` in one of those suites weakens the proof to "roughly
the same" — default tolerances (``rtol=1e-7``) happily absorb a real
stream drift for a while, which is exactly the silent decay the golden
harness exists to prevent.

This rule flags every approximate comparison (``assert_allclose``,
``np.allclose`` / ``np.isclose``, ``pytest.approx``,
``assert_array_almost_equal``, ...) in the equivalence and golden test
modules.  Where a suite genuinely pins a *tolerance* contract (the batched
training round and its per-client reference in ``tests/oracles`` differ by
floating-point summation order), the site keeps the approximate assert
under a suppression whose reason states the contract.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register

__all__ = ["BitExactnessRule"]

_APPROX_FUNCTIONS = frozenset(
    {
        "assert_allclose",
        "allclose",
        "isclose",
        "approx",
        "assert_almost_equal",
        "assert_array_almost_equal",
        "assert_approx_equal",
    }
)


def _in_scope(rel: str) -> bool:
    if rel.startswith("tests/golden/"):
        return True
    name = Path(rel).name
    return rel.startswith("tests/") and "equivalence" in name


@register
class BitExactnessRule(Rule):
    id = "R4"
    name = "bit-exactness"
    summary = (
        "equivalence/golden suites assert exact equality; approximate "
        "comparisons need an explicit tolerance-contract suppression"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return _in_scope(source.rel)

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute) and func.attr in _APPROX_FUNCTIONS:
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in _APPROX_FUNCTIONS:
                name = func.id
            if name is None:
                continue
            yield Violation(
                rule=self.id,
                path=source.rel,
                line=node.lineno,
                message=(
                    f"{name} in an exactness suite: assert exact equality "
                    "(assert_array_equal / ==), or suppress with the documented "
                    "tolerance contract as the reason"
                ),
            )
