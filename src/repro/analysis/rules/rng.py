"""R1 — RNG discipline.

The reproducibility story of this repository is "one master seed, named
:class:`~repro.rng.SeedSequenceFactory` streams, explicit generators
everywhere".  A single naked ``np.random.default_rng()`` (fresh OS entropy)
or legacy ``np.random.seed`` / module-level distribution call silently
breaks it.  This rule enforces:

* **library code** (under ``src/``) never constructs generators directly —
  it accepts ``rng: np.random.Generator | int | None`` and routes it
  through :func:`repro.rng.ensure_rng`; only :mod:`repro.rng` itself may
  call ``np.random.default_rng``,
* **test / benchmark / example code** may build seeded generators
  (``np.random.default_rng(7)``), but implicit entropy
  (``default_rng()`` / ``default_rng(None)``) is flagged everywhere,
* the legacy global-state API (``np.random.seed``, ``np.random.rand``,
  ``np.random.RandomState``, ...) is flagged everywhere,
* library parameters named ``rng`` / ``seed`` carry annotations naming
  ``Generator`` / ``int``, so the explicit-stream contract is visible in
  every signature.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Rule, SourceFile, Violation, register

__all__ = ["RngDisciplineRule"]

#: The one module allowed to touch ``np.random`` constructors directly.
EXEMPT_SUFFIX = "repro/rng.py"

#: Legacy module-level functions that draw from (or mutate) the hidden
#: global ``RandomState`` — never acceptable in a pinned-seed codebase.
LEGACY_FUNCTIONS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "binomial",
        "poisson",
        "beta",
        "gamma",
        "RandomState",
    }
)


@register
class RngDisciplineRule(Rule):
    id = "R1"
    name = "rng-discipline"
    summary = (
        "randomness routes through repro.rng: no direct np.random constructors "
        "in library code, no implicit entropy anywhere, no legacy global-state API"
    )

    def applies_to(self, source: SourceFile) -> bool:
        return not source.rel.endswith(EXEMPT_SUFFIX)

    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        numpy_aliases, random_aliases = _numpy_aliases(source.tree)
        library = not source.is_test_context

        call_targets = {
            id(node.func) for node in ast.walk(source.tree) if isinstance(node, ast.Call)
        }
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name == "default_rng" or alias.name in LEGACY_FUNCTIONS:
                        yield Violation(
                            rule=self.id,
                            path=source.rel,
                            line=node.lineno,
                            message=(
                                f"do not import numpy.random.{alias.name} directly; "
                                "route randomness through repro.rng"
                            ),
                        )
                continue
            if isinstance(node, ast.Attribute) and id(node) not in call_targets:
                referenced = _numpy_random_function(node, numpy_aliases, random_aliases)
                if referenced == "default_rng" or (
                    referenced in LEGACY_FUNCTIONS and referenced != "RandomState"
                ):
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            f"bare reference to np.random.{referenced} (e.g. as a "
                            "default_factory / callback) constructs implicit-entropy "
                            "streams; route through repro.rng.ensure_rng"
                        ),
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = _numpy_random_function(node.func, numpy_aliases, random_aliases)
            if name is None:
                continue
            if name == "default_rng":
                implicit = not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if implicit:
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            "implicit-entropy np.random.default_rng() breaks "
                            "reproducibility; pass an explicit seed or use "
                            "repro.rng.ensure_rng"
                        ),
                    )
                elif library:
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            "library code must not construct generators directly; "
                            "accept rng: np.random.Generator | int | None and route "
                            "it through repro.rng.ensure_rng"
                        ),
                    )
            elif name in LEGACY_FUNCTIONS:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"np.random.{name} uses the hidden legacy global state; "
                        "draw from an explicit np.random.Generator stream instead"
                    ),
                )

        if library:
            yield from self._check_signatures(source)

    def _check_signatures(self, source: SourceFile) -> Iterator[Violation]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            for argument in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            ):
                if argument.annotation is None:
                    continue  # R7 owns missing annotations
                annotation = ast.unparse(argument.annotation)
                if argument.arg == "rng" and "Generator" not in annotation:
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=argument.lineno,
                        message=(
                            f"parameter 'rng' of {node.name}() is annotated "
                            f"{annotation!r}; the stream contract wants "
                            "np.random.Generator (optionally | int | None via "
                            "ensure_rng)"
                        ),
                    )
                if argument.arg == "seed" and not (
                    "int" in annotation or "Seed" in annotation
                ):
                    yield Violation(
                        rule=self.id,
                        path=source.rel,
                        line=argument.lineno,
                        message=(
                            f"parameter 'seed' of {node.name}() is annotated "
                            f"{annotation!r}; seeds are ints (or SeedSequence "
                            "factories)"
                        ),
                    )


def _numpy_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Local names bound to ``numpy`` and to ``numpy.random``."""
    numpy_aliases: set[str] = set()
    random_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    numpy_aliases.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or alias.name)
    return numpy_aliases, random_aliases


def _numpy_random_function(
    func: ast.expr, numpy_aliases: set[str], random_aliases: set[str]
) -> str | None:
    """The ``numpy.random.<name>`` a call expression resolves to, if any."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in numpy_aliases
    ):
        return func.attr
    if isinstance(value, ast.Name) and value.id in random_aliases:
        return func.attr
    return None
