"""What importing the package loads: its public names come from the
submodules on first use, so the gate's names load only what the gate runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smoothgate
from smoothgate import errors, forecast, gate, intsmooth, sim

GATE_IMPORT = "from smoothgate import DENY, CongestionGate, GatePolicy, IntSmoother, ManualClock"
GATE_MODULES = {"smoothgate", "smoothgate.errors", "smoothgate.intsmooth", "smoothgate.gate"}


def _run(code: str) -> str:
    """Run code in a fresh interpreter that finds this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgate.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(code: str) -> set:
    """The modules a fresh interpreter holds after code, less a bare one's."""
    report = "\nimport sys\nprint(*sys.modules)"
    return set(_run(code + report).split()) - set(_run(report).split())


def test_the_gate_names_load_only_the_gate_modules():
    added = _loaded_by(GATE_IMPORT)
    assert not added & {"dataclasses", "inspect", "argparse",
                        "smoothgate.forecast", "smoothgate.sim"}
    assert {m for m in added if m.partition(".")[0] == "smoothgate"} == GATE_MODULES


def test_a_smooth_run_loads_only_the_kernel_and_the_reader(tmp_path):
    source = tmp_path / "empty.txt"
    source.write_text("")
    added = _loaded_by(
        "import io, sys\n"
        "from smoothgate.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        f"rc = main(['smooth', '--sim-clock', {str(source)!r}])\n"
        "sys.stdout = sys.__stdout__\n"
        "assert rc == 0\n")
    assert not added & {"argparse", "inspect", "dataclasses",
                        "smoothgate.sim", "smoothgate.gate", "smoothgate.forecast"}
    assert {m for m in added if m.partition(".")[0] == "smoothgate"} == {
        "smoothgate", "smoothgate.errors", "smoothgate.intsmooth", "smoothgate.records",
        "smoothgate.cli"}


def test_a_simulate_run_loads_neither_dataclasses_nor_inspect():
    data = Path(__file__).parent / "data" / "canonical_input.txt"
    added = _loaded_by(
        "import io, sys\n"
        "from smoothgate.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        f"rc = main(['simulate', '--kind', 'replay', '--replay-file', {str(data)!r},\n"
        "           '--threshold', '600'])\n"
        "sys.stdout = sys.__stdout__\n"
        "assert rc == 0\n")
    assert "smoothgate.sim" in added
    assert not added & {"dataclasses", "inspect"}


def test_importing_the_package_loads_no_submodule():
    assert {m for m in _loaded_by("import smoothgate")
            if m.partition(".")[0] == "smoothgate"} == {"smoothgate"}


def test_probing_an_absent_private_name_loads_no_submodule():
    # inspect.unwrap and unittest.mock probe __wrapped__ this way.
    assert {m for m in _loaded_by("import smoothgate\n"
                                  "assert not hasattr(smoothgate, '__wrapped__')")
            if m.partition(".")[0] == "smoothgate"} == {"smoothgate"}


def test_a_submodule_attribute_loads_that_submodule():
    _run("import sys, smoothgate\n"
         "assert 'smoothgate.sim' not in sys.modules\n"
         "assert smoothgate.sim is sys.modules['smoothgate.sim']\n")


def test_every_public_name_is_listed_and_is_the_defining_modules_object():
    names = dir(smoothgate)
    for module in (errors, forecast, intsmooth, gate, sim):
        for name in module.__all__:
            assert name in names
            assert getattr(smoothgate, name) is getattr(module, name)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        smoothgate.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        from smoothgate import no_such_name  # noqa: F401
