#!/usr/bin/env python
"""Regenerate the committed golden seed-history fixtures.

Usage (from the repository root)::

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python tests/golden/regenerate.py
    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python tests/golden/regenerate.py --only mf-attack

Overwriting an existing fixture requires ``REPRO_GOLDEN_REGEN=1`` in the
environment: the committed histories are the repository's drift alarm, and
an accidental regeneration (a reflexive re-run after a test failure, a CI
misconfiguration) would silently re-baseline exactly the change the harness
exists to catch.  Writing *missing* fixtures for newly added cases needs no
flag — there is no history to destroy.

Run this **only** when a contract change is intentional — a new stream, a
documented realization change, a fixed bug that legitimately moves metrics —
and commit the fixture diff together with the code change and a line in the
commit message saying *why* the histories moved.  For every overwritten
fixture the script prints a summary of which metrics actually moved, so the
commit message can cite it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_cases import FIXTURES_DIR, GOLDEN_CASES, run_case  # noqa: E402

#: Environment flag gating fixture overwrites.
REGEN_FLAG = "REPRO_GOLDEN_REGEN"


def _flatten_metrics(result: dict[str, Any]) -> dict[str, float]:
    """``{"epoch 2 training_loss": value, ...}`` for diffing two payloads."""
    flat: dict[str, float] = {}
    for record in result["history"]:
        prefix = f"epoch {record['epoch']}"
        flat[f"{prefix} training_loss"] = record["training_loss"]
        for group in ("accuracy", "exposure"):
            block = record.get(group)
            if block is not None:
                for metric, value in block.items():
                    flat[f"{prefix} {group}.{metric}"] = value
    return flat


def _diff_summary(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    """Human-readable lines for every metric that changed between payloads."""
    before = _flatten_metrics(old["result"])
    after = _flatten_metrics(new["result"])
    lines = []
    for key in sorted(before.keys() | after.keys()):
        old_value, new_value = before.get(key), after.get(key)
        if old_value != new_value:
            lines.append(f"    {key}: {old_value!r} -> {new_value!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(GOLDEN_CASES),
        help="regenerate just the named case (repeatable)",
    )
    args = parser.parse_args(argv)
    names = args.only or sorted(GOLDEN_CASES)
    regen_allowed = os.environ.get(REGEN_FLAG) == "1"

    existing = [name for name in names if (FIXTURES_DIR / f"{name}.json").exists()]
    if existing and not regen_allowed:
        print(
            "refusing to overwrite committed fixture(s): "
            + ", ".join(sorted(existing)),
            file=sys.stderr,
        )
        print(
            f"set {REGEN_FLAG}=1 to re-baseline intentionally "
            "(and say why in the commit message)",
            file=sys.stderr,
        )
        return 2

    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        payload = {
            "case": name,
            "config": GOLDEN_CASES[name],
            "result": run_case(name),
        }
        path = FIXTURES_DIR / f"{name}.json"
        previous = None
        if path.exists():
            previous = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        final = payload["result"]["history"][-1]
        print(f"{name}: wrote {path.name} "
              f"(final loss {final['training_loss']:.6f})")
        if previous is not None:
            if previous.get("config") != payload["config"]:
                print("  case config changed")
            changed = _diff_summary(previous, payload)
            if changed:
                print(f"  {len(changed)} metric(s) moved:")
                for line in changed[:20]:
                    print(line)
                if len(changed) > 20:
                    print(f"    ... and {len(changed) - 20} more")
            else:
                print("  histories unchanged (bit-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
