"""R8 protocol-dispatch: no isinstance on concrete model classes."""

from __future__ import annotations

from lint_fixtures import CLEAN_TREE, lint, messages, write_tree

_NOMINAL_DISPATCH = '''\
"""Library module dispatching nominally on a model class (fixture)."""

from __future__ import annotations

__all__ = ["score_any"]


def score_any(model: object) -> str:
    if isinstance(model, MatrixFactorizationModel):
        return "mf path"
    return "generic path"
'''

_PROTOCOL_DISPATCH = '''\
"""Library module dispatching structurally (fixture)."""

from __future__ import annotations

__all__ = ["score_any"]


def score_any(model: object) -> str:
    if isinstance(model, ScorerProtocol):
        return "protocol path"
    return "callback path"
'''


def test_isinstance_on_model_class_fails(tmp_path) -> None:
    root = write_tree(
        tmp_path, {**CLEAN_TREE, "src/repro/metrics/serve.py": _NOMINAL_DISPATCH}
    )
    found = messages(lint(root, select=["R8"]))
    assert any(
        "MatrixFactorizationModel" in m and "ScorerProtocol" in m for m in found
    )


def test_scorer_protocol_check_allowed(tmp_path) -> None:
    root = write_tree(
        tmp_path, {**CLEAN_TREE, "src/repro/metrics/serve.py": _PROTOCOL_DISPATCH}
    )
    assert messages(lint(root, select=["R8"])) == []


def test_models_package_may_know_itself(tmp_path) -> None:
    root = write_tree(
        tmp_path, {**CLEAN_TREE, "src/repro/models/helpers.py": _NOMINAL_DISPATCH}
    )
    assert messages(lint(root, select=["R8"])) == []


def test_tests_may_assert_concrete_types(tmp_path) -> None:
    root = write_tree(
        tmp_path, {**CLEAN_TREE, "tests/test_models.py": _NOMINAL_DISPATCH}
    )
    assert messages(lint(root, select=["R8"])) == []


def test_issubclass_and_tuple_classinfo_flagged(tmp_path) -> None:
    module = _NOMINAL_DISPATCH.replace(
        "isinstance(model, MatrixFactorizationModel)",
        "issubclass(type(model), (MatrixFactorizationModel, Recommender))",
    )
    root = write_tree(tmp_path, {**CLEAN_TREE, "src/repro/metrics/serve.py": module})
    found = messages(lint(root, select=["R8"]))
    assert any("issubclass" in m and "'MatrixFactorizationModel'" in m for m in found)
    assert any("'Recommender'" in m for m in found)


def test_attribute_reference_flagged(tmp_path) -> None:
    module = _NOMINAL_DISPATCH.replace(
        "isinstance(model, MatrixFactorizationModel)",
        "isinstance(model, models.MatrixFactorizationModel)",
    )
    root = write_tree(tmp_path, {**CLEAN_TREE, "src/repro/metrics/serve.py": module})
    found = messages(lint(root, select=["R8"]))
    assert any("'MatrixFactorizationModel'" in m for m in found)


def test_clean_tree_has_no_r8_violations(tmp_path) -> None:
    root = write_tree(tmp_path, CLEAN_TREE)
    assert messages(lint(root, select=["R8"])) == []
