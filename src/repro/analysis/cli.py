"""Command-line front end of ``repro-lint``.

Usage::

    python -m repro.analysis [paths ...]          # default: src tests
    python -m repro.analysis --format json src
    python -m repro.analysis --select R1,R3 src
    python -m repro.analysis --list-rules

Exit codes: ``0`` clean, ``1`` violations found, ``2`` usage error — the
semantics CI and pre-commit expect.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.core import RULES, Report, run_analysis

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project-specific static analysis: RNG discipline, densification, "
            "bit-exactness, exports, typed signatures, protocol dispatch."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to scan (default: src tests)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="directory the scanned paths are relative to (and reported against)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_cls in sorted(RULES.items()):
            print(f"{rule_id}  {rule_cls.name}: {rule_cls.summary}")
        return 0

    select = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        report = run_analysis(Path(args.root), args.paths, select=select)
    except ValueError as error:
        parser.error(str(error))

    if args.format == "json":
        print(json.dumps(_as_json(report), indent=2))
    else:
        for violation in report.violations:
            print(violation.format())
        summary = (
            f"{len(report.violations)} violation(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{report.files_checked} file(s) checked"
        )
        if report.violations:
            print(summary, file=sys.stderr)
        else:
            print(f"repro-lint: clean — {summary}")
    return report.exit_code


def _as_json(report: Report) -> dict[str, object]:
    return {
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "message": violation.message,
            }
            for violation in report.violations
        ],
        "suppressed": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "message": violation.message,
            }
            for violation in report.suppressed
        ],
        "files_checked": report.files_checked,
        "exit_code": report.exit_code,
    }


if __name__ == "__main__":
    sys.exit(main())
