"""Every narrative demo runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothgate

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgate.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
