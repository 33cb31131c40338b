"""R4 bit-exactness: equivalence/golden suites assert exact equality."""

from __future__ import annotations

from lint_fixtures import lint, messages, write_tree


def _lint_file(tmp_path, rel: str, code: str):
    write_tree(tmp_path, {rel: code})
    return messages(lint(tmp_path, select=["R4"]))


def test_allclose_flagged_in_golden_suite(tmp_path) -> None:
    found = _lint_file(
        tmp_path,
        "tests/golden/test_histories.py",
        "import numpy as np\n\n\n"
        "def test_history(a, b):\n"
        "    np.testing.assert_allclose(a, b)\n",
    )
    assert len(found) == 1
    assert "assert_allclose" in found[0]


def test_approx_flagged_in_equivalence_suite(tmp_path) -> None:
    found = _lint_file(
        tmp_path,
        "tests/test_engine_equivalence.py",
        "import pytest\n\n\n"
        "def test_losses(a, b):\n"
        "    assert a == pytest.approx(b)\n",
    )
    assert len(found) == 1
    assert "approx" in found[0]


def test_exact_asserts_clean(tmp_path) -> None:
    found = _lint_file(
        tmp_path,
        "tests/test_engine_equivalence.py",
        "import numpy as np\n\n\n"
        "def test_history(a, b):\n"
        "    np.testing.assert_array_equal(a, b)\n"
        "    assert a.tolist() == b.tolist()\n",
    )
    assert found == []


def test_ordinary_test_module_out_of_scope(tmp_path) -> None:
    found = _lint_file(
        tmp_path,
        "tests/test_metrics.py",
        "import numpy as np\n\n\n"
        "def test_metric(a, b):\n"
        "    np.testing.assert_allclose(a, b)\n",
    )
    assert found == []


def test_library_code_out_of_scope(tmp_path) -> None:
    found = _lint_file(
        tmp_path,
        "src/repro/foo.py",
        "import numpy as np\n\n\n"
        "def near(a, b):\n"
        "    return bool(np.allclose(a, b))\n",
    )
    assert found == []
