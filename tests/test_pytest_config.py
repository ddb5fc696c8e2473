"""The pytest settings in pyproject.toml report a failing property test by its assertion.

Warnings are errors there, and the hypothesis plugin's report hook raises a
``DeprecationWarning`` of ``mypy_extensions``; unless that one warning is
ignored, pytest reports the failure as an ``INTERNALERROR`` and hides the
falsifying example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert 0 > 0
"""


def test_failing_property_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY_TEST, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert any(
        line.startswith("FAILED ") and line.endswith("::test_fails - assert 0 > 0")
        for line in output.splitlines()
    )
    assert result.returncode == 1
