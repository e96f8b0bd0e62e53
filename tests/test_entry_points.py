"""The package's public names, and the entry points the benchmark's span
shims (``perfbench/tracing.py``) patch by name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import smoothgate
from smoothgate import forecast, gate, intsmooth, sim

ROOT = Path(__file__).resolve().parents[1]


def test_star_import_binds_exactly_the_public_names():
    names = smoothgate.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(
        ["UnprimedError", *forecast.__all__, *intsmooth.__all__, *gate.__all__, *sim.__all__]
    )
    namespace = {}
    exec("from smoothgate import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    assert {"GENERATOR_KINDS", "JITTER_KINDS"} <= set(names)


# Runs the CLI in a fresh interpreter, with the benchmark's shims installed
# when asked, and writes the number of spans per shim next to the CSVs.
_SCRIPT = """
import json, sys
from pathlib import Path
traced, workdir, data = sys.argv[1] == "traced", Path(sys.argv[2]), sys.argv[3]
from smoothgate import cli, gate, intsmooth, sim
tracer = None
if traced:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install(intsmooth, gate, sim, cli)
assert cli.main(["smooth", "--sim-clock", "-n", "5", "-r", "11",
                 "-w", str(workdir / "smooth.csv"), data]) == 0
assert cli.main(["simulate", "--kind", "replay", "--replay-file", data,
                 "--pause-after", "12", "--pause-gap", "10", "--threshold", "600",
                 "--mode", "delay", "--delay-amount", "2"]) == 0
try:
    cli.main(["simulate", "-h"])  # the flag list, built after the shims went in
except SystemExit as exit:
    assert exit.code == 0
if tracer is not None:
    totals = tracer.totals()
    (workdir / "calls.json").write_text(json.dumps({k: v["calls"] for k, v in totals.items()}))
"""


def _run(mode, workdir):
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(smoothgate.__file__).parents[1]), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode, str(workdir),
         str(ROOT / "tests" / "data" / "canonical_input.txt")],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, proc.stderr, (workdir / "smooth.csv").read_bytes()


def test_benchmark_shims_leave_the_cli_output_byte_identical(tmp_path):
    plain = _run("plain", tmp_path / "plain")
    traced = _run("traced", tmp_path / "traced")
    assert traced == plain
    assert b"admitted=" in plain[1]
    # Every patched entry point is still the one its callers look up.
    calls = json.loads((tmp_path / "traced" / "calls.json").read_text())
    assert calls and all(n > 0 for n in calls.values()), calls
