"""R2 switch-parity: every realization needs dispatch, equivalence, golden.

The deletion tests are the point of the rule: removing any single leg of
the contract for an existing realization must turn lint red.
"""

from __future__ import annotations

from lint_fixtures import (  # noqa: F401
    CLEAN_TREE,
    clean_root,
    lint,
    messages,
    rules_hit,
    write_tree,
)


class TestCleanTree:
    def test_clean_tree_has_no_violations(self, clean_root) -> None:
        report = lint(clean_root)
        assert messages(report) == []
        assert report.exit_code == 0

    def test_clean_tree_r2_alone_is_clean(self, clean_root) -> None:
        assert messages(lint(clean_root, select=["R2"])) == []


class TestDeletions:
    def test_deleting_dispatch_branch_fails(self, tmp_path) -> None:
        engine = CLEAN_TREE["src/repro/federated/engine.py"].replace(
            '    if engine == "vectorized":\n        return "vectorized path"\n', ""
        )
        root = write_tree(tmp_path, {**CLEAN_TREE, "src/repro/federated/engine.py": engine})
        found = messages(lint(root, select=["R2"]))
        assert any("engine='vectorized'" in m and "dispatch" in m for m in found)
        assert not any("engine='loop'" in m for m in found)

    def test_deleting_equivalence_parametrization_fails(self, tmp_path) -> None:
        suite = CLEAN_TREE["tests/test_federated_engine_equivalence.py"].replace(
            'ENGINES = ("loop", "vectorized")', 'ENGINES = ("loop",)'
        )
        root = write_tree(
            tmp_path,
            {**CLEAN_TREE, "tests/test_federated_engine_equivalence.py": suite},
        )
        found = messages(lint(root, select=["R2"]))
        assert any(
            "engine='vectorized'" in m and "not parametrized" in m for m in found
        )

    def test_deleting_equivalence_suite_fails(self, tmp_path) -> None:
        files = {
            k: v
            for k, v in CLEAN_TREE.items()
            if k != "tests/test_federated_engine_equivalence.py"
        }
        root = write_tree(tmp_path, files)
        found = messages(lint(root, select=["R2"]))
        assert any(
            "'engine'" in m and "equivalence suites" in m and "exist" in m
            for m in found
        )

    def test_deleting_golden_case_fails(self, tmp_path) -> None:
        grid = CLEAN_TREE["tests/golden/golden_cases.py"].replace(
            '    "vec-batched": {"engine": "vectorized", "sampler": "batched"},\n',
            "",
        )
        root = write_tree(
            tmp_path, {**CLEAN_TREE, "tests/golden/golden_cases.py": grid}
        )
        found = messages(lint(root, select=["R2"]))
        assert any(
            "sampler='batched'" in m and "golden" in m for m in found
        )
        # The surviving cases' realizations stay covered — including
        # engine='vectorized', which "vec-perm" still pins.
        assert not any("engine='loop'" in m for m in found)
        assert not any("engine='vectorized'" in m for m in found)

    def test_deleting_whole_golden_grid_fails(self, tmp_path) -> None:
        files = {k: v for k, v in CLEAN_TREE.items() if k != "tests/golden/golden_cases.py"}
        root = write_tree(tmp_path, files)
        found = messages(lint(root, select=["R2"]))
        assert any("cannot verify golden coverage" in m for m in found)


class TestRegistry:
    def test_new_switch_without_registered_suite_fails(self, tmp_path) -> None:
        config = CLEAN_TREE["src/repro/federated/config.py"].replace(
            '    min_reporters: int = 0\n',
            '    min_reporters: int = 0\n    eval_mode: str = "fast"\n',
        ).replace(
            "        if self.sampler not in",
            '        if self.eval_mode not in ("fast", "slow"):\n'
            "            raise ValueError(self.eval_mode)\n"
            "        if self.sampler not in",
        )
        root = write_tree(
            tmp_path, {**CLEAN_TREE, "src/repro/federated/config.py": config}
        )
        found = messages(lint(root, select=["R2"]))
        assert any(
            "eval_mode" in m and "EQUIVALENCE_SUITES" in m for m in found
        )

    def test_loop_variable_golden_grid_is_understood(self, tmp_path) -> None:
        # The real grid builds cases via ``for _engine in ("loop", ...)``;
        # the extractor must resolve the loop variable, not demand literals.
        grid = (
            '"""Grid via loop variables."""\n\n'
            "GOLDEN_CASES = {}\n"
            'for _engine in ("loop", "vectorized"):\n'
            '    for _sampler in ("permutation", "batched"):\n'
            "        GOLDEN_CASES[f\"{_engine}-{_sampler}\"] = {\n"
            '            "engine": _engine,\n'
            '            "sampler": _sampler,\n'
            "        }\n"
        )
        root = write_tree(
            tmp_path, {**CLEAN_TREE, "tests/golden/golden_cases.py": grid}
        )
        assert messages(lint(root, select=["R2"])) == []

    def test_missing_config_anchor_disables_rule(self, tmp_path) -> None:
        files = {
            k: v for k, v in CLEAN_TREE.items() if k != "src/repro/federated/config.py"
        }
        root = write_tree(tmp_path, files)
        assert rules_hit(lint(root, select=["R2"])) == set()

