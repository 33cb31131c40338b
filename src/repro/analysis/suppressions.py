"""Suppression comments for ``repro-lint``.

A violation can be silenced in two scopes::

    x = np.stack(masks)  # repro-lint: disable=R3 — loop-engine fallback, no store available

    # repro-lint: disable-file=R4 — this suite pins a tolerance contract, not bit-equality

``disable`` applies to violations reported on the same physical line; when
the comment stands on a line of its own it instead covers the next source
line (continuation comment lines and blanks in between are skipped, so a
multi-line justification block works).  ``disable-file`` covers the whole
file.  Several rules may be listed separated by commas.  The reason after the ``—`` separator (``--`` and ``:`` are also
accepted) is **mandatory**: the suppression hygiene rule reports any
suppression without one, so every exception to a contract is documented at
the site where it is made.

Comments are extracted with :mod:`tokenize`, so the marker text inside a
string literal is never mistaken for a suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Suppression", "FileSuppressions", "parse_suppressions"]

#: ``disable=R1,R3`` or ``disable-file=R4`` followed by an optional
#: ``— reason`` tail.  The rule list deliberately excludes the separator
#: characters so the reason never bleeds into the rule ids.
_MARKER = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-file|disable)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s*(?:—|--|:)\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One ``repro-lint: disable`` comment."""

    line: int
    kind: str  # "line" | "file"
    rules: tuple[str, ...]
    reason: str | None
    #: The source line the suppression attaches to — the comment's own line
    #: for trailing comments, the next code line for standalone ones.
    target: int = 0

    def __post_init__(self) -> None:
        if self.target == 0:
            object.__setattr__(self, "target", self.line)

    def covers(self, rule: str, line: int) -> bool:
        """Whether this suppression silences ``rule`` reported at ``line``."""
        if rule not in self.rules:
            return False
        return self.kind == "file" or line in (self.line, self.target)


@dataclass
class FileSuppressions:
    """All suppression comments of one source file."""

    suppressions: list[Suppression] = field(default_factory=list)

    def match(self, rule: str, line: int) -> Suppression | None:
        """The first suppression covering ``rule`` at ``line``, if any."""
        for suppression in self.suppressions:
            if suppression.covers(rule, line):
                return suppression
        return None


def parse_suppressions(text: str) -> FileSuppressions:
    """Extract every suppression comment from ``text``.

    Tokenization errors (the file may not even be Python) degrade to a
    line-by-line scan so suppressions still work in partially broken files.
    """
    lines = text.splitlines()
    found: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for lineno, line in enumerate(lines, start=1):
            if "#" in line:
                suppression = _parse_comment(line[line.index("#"):], lineno)
                if suppression is not None:
                    found.append(_anchor(suppression, lines))
        return FileSuppressions(found)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            suppression = _parse_comment(token.string, token.start[0])
            if suppression is not None:
                found.append(_anchor(suppression, lines))
    return FileSuppressions(found)


def _anchor(suppression: Suppression, lines: list[str]) -> Suppression:
    """Attach a standalone ``disable`` comment to the next source line.

    Trailing comments keep their own line.  A standalone comment (nothing but
    whitespace before the ``#``) covers the first following line that is not
    blank and not itself a comment, so a multi-line reason block between the
    marker and the code it excuses still works.
    """
    if suppression.kind != "line":
        return suppression
    own = lines[suppression.line - 1] if suppression.line <= len(lines) else ""
    before_hash = own.split("#", 1)[0]
    if before_hash.strip():
        return suppression  # trailing comment — same-line scope
    target = suppression.line
    for lineno in range(suppression.line + 1, len(lines) + 1):
        stripped = lines[lineno - 1].strip()
        if not stripped or stripped.startswith("#"):
            continue
        target = lineno
        break
    return Suppression(
        line=suppression.line,
        kind=suppression.kind,
        rules=suppression.rules,
        reason=suppression.reason,
        target=target,
    )


def _parse_comment(comment: str, lineno: int) -> Suppression | None:
    match = _MARKER.search(comment)
    if match is None:
        return None
    rules = tuple(part.strip() for part in match.group("rules").split(","))
    kind = "file" if match.group("kind") == "disable-file" else "line"
    return Suppression(line=lineno, kind=kind, rules=rules, reason=match.group("reason"))
