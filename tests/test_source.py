"""Checks over the package's own source files and the test configuration."""

import ast
import subprocess
import sys
from pathlib import Path

import biscount

SOURCES = sorted(Path(biscount.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every identity the package
    # relies on must be an explicit check that raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def test_failing_hypothesis_test_reports_as_a_failure(tmp_path):
    # the configured warning filters make warnings errors; a failing @given
    # test must still end as an ordinary failure (exit code 1) that shows its
    # falsifying example, not as an INTERNALERROR raised while the
    # hypothesis plugin builds the report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(max_examples=5, derandomize=True, database=None)\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "INTERNALERROR" not in output
