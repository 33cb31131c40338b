"""The repro-lint command line: output formats, selection, exit codes."""

from __future__ import annotations

import json

import pytest

from lint_fixtures import CLEAN_TREE, clean_root, write_tree  # noqa: F401
from repro.analysis.cli import main


def test_clean_tree_exits_zero(clean_root, capsys) -> None:
    code = main(["--root", str(clean_root), "src", "tests"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro-lint: clean" in out


def test_violations_exit_one_with_locations(tmp_path, capsys) -> None:
    write_tree(
        tmp_path,
        {"src/repro/foo.py": "def densify(m):\n    return m.toarray()\n"},
    )
    code = main(["--root", str(tmp_path), "--select", "R3", "src"])
    assert code == 1
    out = capsys.readouterr().out
    assert "src/repro/foo.py:2: R3" in out


def test_json_format(tmp_path, capsys) -> None:
    write_tree(
        tmp_path,
        {"src/repro/foo.py": "def densify(m):\n    return m.toarray()\n"},
    )
    code = main(["--root", str(tmp_path), "--select", "R3", "--format", "json", "src"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == 1
    [violation] = payload["violations"]
    assert violation["rule"] == "R3"
    assert violation["path"] == "src/repro/foo.py"
    assert violation["line"] == 2


def test_select_restricts_rules(tmp_path) -> None:
    # The file violates R3 and R7; selecting only R7 must hide R3.
    write_tree(
        tmp_path,
        {"src/repro/foo.py": "def densify(m):\n    return m.toarray()\n"},
    )
    assert main(["--root", str(tmp_path), "--select", "R7", "src"]) == 1
    assert main(["--root", str(tmp_path), "--select", "R6", "src"]) == 0


def test_unknown_rule_is_usage_error(tmp_path) -> None:
    write_tree(tmp_path, {"src/repro/foo.py": "x = 1\n"})
    with pytest.raises(SystemExit) as excinfo:
        main(["--root", str(tmp_path), "--select", "R99", "src"])
    assert excinfo.value.code == 2


def test_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == {"R1", "R3", "R4", "R6", "R7", "R8"}


def test_default_paths_cover_src_and_tests(tmp_path, capsys) -> None:
    write_tree(tmp_path, CLEAN_TREE)
    code = main(["--root", str(tmp_path)])
    assert code == 0
    assert "repro-lint: clean" in capsys.readouterr().out
