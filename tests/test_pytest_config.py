"""The pytest settings in pyproject.toml must still report failures normally."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # with warnings as errors, the import hypothesis makes to report a
    # failure used to abort the session with INTERNALERROR
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout
