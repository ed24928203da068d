"""The repository's pytest settings report a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_below_five(x):
    assert x < 5
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # Every warning is an error under these settings; a warning raised while
    # hypothesis reports a failure must not turn it into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "Falsifying example: test_below_five(" in output
    assert "FAILED test_property.py::test_below_five" in output
