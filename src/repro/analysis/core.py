"""Core machinery of ``repro-lint``: files, rules, registry, runner.

The analyzer is deliberately dependency-free (stdlib ``ast`` + ``tokenize``)
so it can run in every environment the library runs in — CI, pre-commit, a
bare checkout — without installing anything.

Every rule is a :class:`Rule`: it visits one parsed source file at a time
(RNG discipline, densification guard, export consistency, ...).  Contracts
that span several files — the switch registry against the config
dataclasses, the CLI and the README — are ordinary tests on the imported
surface, not lint rules.

Rules register themselves in :data:`RULES` through the :func:`register`
decorator; :func:`run_analysis` runs them, applies suppression comments and
reports suppression hygiene (unexplained, unknown-rule and unused
suppressions) as violations of the pseudo-rule ``SUP``.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

from repro.analysis.suppressions import FileSuppressions, parse_suppressions

__all__ = [
    "RULES",
    "Project",
    "Report",
    "Rule",
    "SourceFile",
    "Violation",
    "register",
    "run_analysis",
]

#: Violations of these pseudo-rules cannot be suppressed: a file that does
#: not parse cannot be reasoned about, and suppression hygiene guarding
#: itself would be circular.
UNSUPPRESSIBLE = ("SYNTAX", "SUP")

#: Directory names never scanned for sources.
_SKIPPED_DIRS = {"__pycache__", ".git", ".venv", "build", "dist", "node_modules"}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule id, a location and a human-readable message."""

    rule: str
    path: str
    line: int
    message: str

    def sort_key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class SourceFile:
    """One source file: text, parse tree (if it parses) and suppressions."""

    path: Path
    rel: str
    text: str
    tree: ast.Module | None
    syntax_error: str | None
    suppressions: FileSuppressions

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree: ast.Module | None = None
        error: str | None = None
        try:
            tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            error = f"{exc.msg} (line {exc.lineno})"
        return cls(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            syntax_error=error,
            suppressions=parse_suppressions(text),
        )

    @property
    def is_test_context(self) -> bool:
        """Whether the file lives in a test/benchmark/example tree.

        Library contracts (RNG routing, densification, typed signatures)
        apply only outside these trees; the test trees get the looser
        variants (e.g. seeded ``default_rng`` construction is fine there).
        """
        parts = Path(self.rel).parts
        return any(part in ("tests", "benchmarks", "examples") for part in parts)


@dataclass
class Project:
    """The tree under analysis: the files the command line asked to scan."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)

    @classmethod
    def load(cls, root: Path, paths: Sequence[str]) -> "Project":
        root = root.resolve()
        project = cls(root=root)
        seen: set[str] = set()
        for raw in paths:
            target = (root / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
            for path in _iter_python_files(target):
                rel = _relative(path, root)
                if rel in seen:
                    continue
                seen.add(rel)
                project.files.append(SourceFile.load(path, rel))
        project.files.sort(key=lambda source: source.rel)
        return project


def _iter_python_files(target: Path) -> Iterator[Path]:
    if target.is_file():
        if target.suffix == ".py":
            yield target
        return
    if not target.is_dir():
        return
    for path in sorted(target.rglob("*.py")):
        parts = path.parts
        if any(part in _SKIPPED_DIRS or part.startswith(".") for part in parts):
            continue
        yield path


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.resolve().as_posix()


class Rule(ABC):
    """A named contract check applied file by file to the scanned sources."""

    id: ClassVar[str]
    name: ClassVar[str]
    summary: ClassVar[str]

    def check(self, files: Iterable[SourceFile]) -> Iterator[Violation]:
        """Yield every violation of this rule in ``files``."""
        for source in files:
            if source.tree is None or not self.applies_to(source):
                continue
            yield from self.check_file(source)

    def applies_to(self, source: SourceFile) -> bool:
        return True

    @abstractmethod
    def check_file(self, source: SourceFile) -> Iterator[Violation]:
        """Yield every violation of this rule in one file."""


RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULES[cls.id] = cls
    return cls


@dataclass
class Report:
    """Outcome of one analysis run."""

    violations: list[Violation]
    suppressed: list[Violation]
    files_checked: int

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def run_analysis(
    root: Path,
    paths: Sequence[str] = ("src", "tests"),
    select: Iterable[str] | None = None,
) -> Report:
    """Run every (selected) rule over ``paths`` and apply suppressions.

    Suppression hygiene is enforced here rather than in a rule so it sees
    the complete picture: a suppression must carry a reason, must name a
    known rule, and — when all rules ran — must actually suppress something.
    """
    project = Project.load(root, paths)
    selected = set(select) if select is not None else None
    unknown_selected = (selected or set()) - set(RULES)
    if unknown_selected:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown_selected))}")

    raw: list[Violation] = []
    for source in project.files:
        if source.syntax_error is not None:
            raw.append(
                Violation(
                    rule="SYNTAX",
                    path=source.rel,
                    line=1,
                    message=f"file does not parse: {source.syntax_error}",
                )
            )
    for rule_id, rule_cls in sorted(RULES.items()):
        if selected is not None and rule_id not in selected:
            continue
        raw.extend(rule_cls().check(project.files))

    violations: list[Violation] = []
    suppressed: list[Violation] = []
    used: set[tuple[str, int]] = set()
    suppression_files = {source.rel: source for source in project.files}
    for violation in raw:
        source = suppression_files.get(violation.path)
        match = (
            None
            if source is None or violation.rule in UNSUPPRESSIBLE
            else source.suppressions.match(violation.rule, violation.line)
        )
        if match is None:
            violations.append(violation)
        else:
            suppressed.append(violation)
            used.add((violation.path, match.line))

    for source in project.files:
        for suppression in source.suppressions.suppressions:
            if not suppression.reason:
                violations.append(
                    Violation(
                        rule="SUP",
                        path=source.rel,
                        line=suppression.line,
                        message=(
                            "unexplained suppression: add a reason, e.g. "
                            "# repro-lint: disable="
                            f"{','.join(suppression.rules)} — <why this is safe>"
                        ),
                    )
                )
            for rule_id in suppression.rules:
                if rule_id not in RULES:
                    violations.append(
                        Violation(
                            rule="SUP",
                            path=source.rel,
                            line=suppression.line,
                            message=f"suppression names unknown rule {rule_id!r}",
                        )
                    )
            if (
                selected is None
                and suppression.reason
                and all(rule_id in RULES for rule_id in suppression.rules)
                and (source.rel, suppression.line) not in used
            ):
                violations.append(
                    Violation(
                        rule="SUP",
                        path=source.rel,
                        line=suppression.line,
                        message=(
                            "unused suppression for "
                            f"{','.join(suppression.rules)}: nothing is reported "
                            "here — delete the comment"
                        ),
                    )
                )

    violations.sort(key=Violation.sort_key)
    suppressed.sort(key=Violation.sort_key)
    return Report(
        violations=violations,
        suppressed=suppressed,
        files_checked=len(project.files),
    )
