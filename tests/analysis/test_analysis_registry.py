"""Registry-aware R2/R5: the switch registry is the extraction source.

When a tree declares ``src/repro/federated/switches.py``, the parity and
docs-sync rules must read the switch surface from the ``SwitchSpec`` entries
(anchoring violations there) instead of the legacy ``validate`` membership
checks — otherwise consolidating the switch surface into the registry would
silently blind both rules.
"""

from __future__ import annotations

from lint_fixtures import (  # noqa: F401
    CLEAN_TREE,
    REGISTRY_TREE,
    _CLI_REGISTRY_DRIVEN,
    fixture_equivalence_suites,
    lint,
    messages,
    write_tree,
)


def test_registry_tree_clean(tmp_path) -> None:
    root = write_tree(tmp_path, REGISTRY_TREE)
    assert messages(lint(root, select=["R2", "R5"])) == []


def test_registry_is_the_extraction_source(tmp_path) -> None:
    # Strip the legacy membership checks from validate(): with a registry
    # present the rules must still see every switch.
    config = REGISTRY_TREE["src/repro/federated/config.py"].replace(
        '        if self.engine not in ("loop", "vectorized"):\n'
        "            raise ValueError(self.engine)\n"
        '        if self.sampler not in ("permutation", "batched"):\n'
        "            raise ValueError(self.sampler)\n",
        "",
    )
    assert "not in" not in config
    cli = REGISTRY_TREE["src/repro/cli.py"].replace(
        '    parser.add_argument("--sampler")\n', ""
    )
    root = write_tree(
        tmp_path,
        {
            **REGISTRY_TREE,
            "src/repro/federated/config.py": config,
            "src/repro/cli.py": cli,
        },
    )
    found = messages(lint(root, select=["R5"]))
    assert any("'--sampler'" in m for m in found)


def test_registry_violations_anchor_at_registry_file(tmp_path) -> None:
    cli = REGISTRY_TREE["src/repro/cli.py"].replace(
        '    parser.add_argument("--sampler")\n', ""
    )
    root = write_tree(tmp_path, {**REGISTRY_TREE, "src/repro/cli.py": cli})
    found = messages(lint(root, select=["R5"]))
    assert found and all(m.startswith("src/repro/federated/switches.py:") for m in found)


def test_registry_default_parity_checked(tmp_path) -> None:
    # A dataclass default drifting from the registry default is a violation
    # on either config class.
    config = REGISTRY_TREE["src/repro/federated/config.py"].replace(
        'sampler: str = "permutation"', 'sampler: str = "batched"'
    )
    root = write_tree(tmp_path, {**REGISTRY_TREE, "src/repro/federated/config.py": config})
    found = messages(lint(root, select=["R5"]))
    assert any("disagrees with the registry default" in m for m in found)

    experiment = REGISTRY_TREE["src/repro/experiments/config.py"].replace(
        "min_reporters: int = 0", "min_reporters: int = 2"
    )
    root2 = write_tree(
        tmp_path / "mirror", {**REGISTRY_TREE, "src/repro/experiments/config.py": experiment}
    )
    found2 = messages(lint(root2, select=["R5"]))
    assert any(
        "ExperimentConfig default" in m and "'min_reporters'" in m for m in found2
    )


def test_registry_switch_missing_from_config_fails(tmp_path) -> None:
    config = REGISTRY_TREE["src/repro/federated/config.py"].replace(
        '    sampler: str = "permutation"\n', ""
    )
    root = write_tree(tmp_path, {**REGISTRY_TREE, "src/repro/federated/config.py": config})
    found = messages(lint(root, select=["R5"]))
    assert any("not declared as a FederatedConfig field" in m for m in found)


def test_registry_missing_anchor_files_reported(tmp_path) -> None:
    files = {
        k: v
        for k, v in REGISTRY_TREE.items()
        if k not in ("src/repro/cli.py", "src/repro/experiments/config.py")
    }
    root = write_tree(tmp_path, files)
    found = messages(lint(root, select=["R5"]))
    assert found and all(m.startswith("src/repro/federated/switches.py:") for m in found)
    assert any("cannot verify" in m and "cli.py" in m for m in found)
    assert any("cannot verify" in m and "experiments/config.py" in m for m in found)


def test_registry_driven_cli_satisfies_flag_leg(tmp_path) -> None:
    # The CLI may register every switch flag through the registry idiom
    # (add_argument(spec.cli_flag)) instead of one literal per switch.
    root = write_tree(
        tmp_path, {**REGISTRY_TREE, "src/repro/cli.py": _CLI_REGISTRY_DRIVEN}
    )
    assert messages(lint(root, select=["R5"])) == []


def test_registry_choice_needs_equivalence_coverage(tmp_path) -> None:
    # Adding a realization to a registry spec without touching the suite is
    # a red build, same as the legacy extraction guaranteed.
    registry = REGISTRY_TREE["src/repro/federated/switches.py"].replace(
        'choices=("permutation", "batched")',
        'choices=("permutation", "batched", "antithetic")',
    )
    engine = REGISTRY_TREE["src/repro/federated/engine.py"].replace(
        '    if sampler == "batched":\n        return "round stream"\n',
        '    if sampler == "batched":\n        return "round stream"\n'
        '    if sampler == "antithetic":\n        return "mirrored stream"\n',
    )
    root = write_tree(
        tmp_path,
        {
            **REGISTRY_TREE,
            "src/repro/federated/switches.py": registry,
            "src/repro/federated/engine.py": engine,
        },
    )
    found = messages(lint(root, select=["R2"]))
    assert any("'antithetic'" in m and "equivalence" in m for m in found)
    assert any("'antithetic'" in m and "golden" in m for m in found)
    assert found and all(m.startswith("src/repro/federated/switches.py:") for m in found)


def test_clean_tree_without_registry_still_legacy(tmp_path) -> None:
    # No registry file -> the legacy extraction path must keep working.
    root = write_tree(tmp_path, CLEAN_TREE)
    assert messages(lint(root, select=["R2", "R5"])) == []


def _readme_with_rows(sampler_values: str, min_reporters_values: str) -> str:
    readme = REGISTRY_TREE["README.md"].replace(
        "| `sampler` | `--sampler` | `permutation`, `batched` |",
        f"| `sampler` | `--sampler` | {sampler_values} |",
    )
    return readme.replace(
        "| `min_reporters` | `--min-reporters` | non-negative int |",
        f"| `min_reporters` | `--min-reporters` | {min_reporters_values} |",
    )


def test_readme_default_marker_matching_registry_passes(tmp_path) -> None:
    # The row of a field may also mention other switches: a row that merely
    # names `sampler` outside its first cell never contributes a default.
    readme = _readme_with_rows(
        "`permutation` (default), `batched`",
        "`0` (default, disabled), `N > 0`; applies to every engine/sampler",
    )
    root = write_tree(tmp_path, {**REGISTRY_TREE, "README.md": readme})
    assert messages(lint(root, select=["R5"])) == []


def test_readme_default_marker_must_name_registry_default(tmp_path) -> None:
    # Flipping a registry default without the README row is a violation.
    readme = _readme_with_rows("`batched` (default), `permutation`", "`0` (default)")
    root = write_tree(tmp_path, {**REGISTRY_TREE, "README.md": readme})
    found = messages(lint(root, select=["R5"]))
    assert found and all(m.startswith("src/repro/federated/switches.py:") for m in found)
    assert any(
        "'sampler'" in m and "'batched'" in m and "registry default is 'permutation'" in m
        for m in found
    )

    readme = _readme_with_rows("`permutation` (default), `batched`", "`2` (default: two)")
    root = write_tree(tmp_path / "int", {**REGISTRY_TREE, "README.md": readme})
    found = messages(lint(root, select=["R5"]))
    assert any("'min_reporters'" in m and "registry default is 0" in m for m in found)
