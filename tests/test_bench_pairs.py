"""The pairs tool (bench_pairs.py) on one short pair of HEAD against itself."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_of_head_against_itself_reports_every_end_to_end_metric():
    inside = shutil.which("git") and subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT, capture_output=True, text=True)
    if not inside or inside.stdout.strip() != "true":
        pytest.skip("not a git work tree")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "bench_pairs.py"), "HEAD", "HEAD",
         "--workload", "gate_inline", "--pairs", "1", "--seconds", "0.2", "--seed", "3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["correct"]
    assert report["revisions"]["parent"]["commit"] == report["revisions"]["change"]["commit"]
    [run] = report["runs"]
    assert (run["seed"], run["first"]) == (3, "parent")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(report["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}
    for metric in report["metrics"].values():
        assert metric["pairs"] == 1
        assert metric["parent_quartiles"][1] == metric["parent_median"]
