"""The repository's pytest configuration, run on a suite of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SUITE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_ends_only_itself(tmp_path):
    # filterwarnings = error must not turn a warning raised while hypothesis
    # reports the failure into an INTERNALERROR that ends the run.
    (tmp_path / "test_suite.py").write_text(_SUITE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
