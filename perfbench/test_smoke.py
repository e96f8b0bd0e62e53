"""Smoke test of the benchmark: every workload, its oracle check and the
traced run on a tiny input, and proof that the checks bite.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import worker  # noqa: E402
from inputs import SIZES, write_inputs  # noqa: E402
from run import SMOKE_DIVISOR, WORK  # noqa: E402

from smoothgate.cli import main as cli_main  # noqa: E402


def test_smoke_mode_runs_every_workload_correctly():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    for workload in ("smooth_replay", "gate_inline", "simulate_trace"):
        for name in ("setup_s", "events_per_s", "decide_p50_ns", "peak_rss_mb"):
            assert metrics[f"{workload}.{name}"]["value"] > 0
        # The code's branch costs: clamp (2) + s1 in startup, + s2 and slope in trend.
        assert metrics[f"{workload}.intsmooth.cdiv.calls_per_update.trend"]["value"] == 5
    assert metrics["gate_inline.intsmooth.cdiv.calls_per_update.startup"]["value"] == 3
    assert metrics["gate_inline.intsmooth.clamped"]["value"] > 0
    assert metrics["gate_inline.gate.refused_share"]["value"] > 0


@pytest.fixture
def workdir():
    path = WORK / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tiny(workload, workdir):
    return write_inputs(workload, 7, SIZES[workload] // SMOKE_DIVISOR, workdir)


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


def _perturb_row(text: str, row: int) -> str:
    """Change the last digit on one line."""
    lines = text.split("\n")
    line = lines[row]
    i = max(i for i, ch in enumerate(line) if ch.isdigit())
    lines[row] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    return "\n".join(lines)


def test_smooth_check_catches_a_perturbed_report_and_csv(workdir):
    spec = _tiny("smooth_replay", workdir)
    stdout = _run_cli(spec["argv"])
    csv = Path(spec["csv"]).read_text()
    expected = check.smooth_expected(check.read_values(spec["input"]), spec["n_alpha"])
    exe = check.c_reference(workdir / "c_reference")
    c_ref = None if exe is None else check.run_c_reference(exe, Path(spec["input"]), workdir)

    assert check.check_smooth(expected, stdout, csv, c_ref) == 0
    assert check.check_smooth(expected, _perturb_row(stdout, 10), csv, c_ref) == 1
    assert check.check_smooth(expected, stdout, _perturb_row(csv, 10), c_ref) == 1
    assert check.check_smooth(expected, stdout[:-1], csv, c_ref) == len(expected)
    # A run that drops its last rows from both outputs fails those events.
    dropped_out = "".join(stdout.splitlines(keepends=True)[:-3])
    dropped_csv = "".join(csv.splitlines(keepends=True)[:-3])
    assert check.check_smooth(expected, dropped_out, dropped_csv, c_ref) == 3
    assert check.check_smooth(expected, dropped_out, csv, c_ref) == 3
    assert check.check_smooth(expected, stdout, dropped_csv, c_ref) == 3


def test_gate_check_catches_a_perturbed_verdict_or_forecast(workdir):
    spec = _tiny("gate_inline", workdir)
    import smoothgate.gate

    events = worker.load_gate_events(spec["input"], smoothgate.gate)
    end_path, verdict_path, forecast_path = worker.gate_pass(spec, events, workdir, {})
    end_state = end_path.read_text()
    verdicts = verdict_path.read_bytes()
    forecasts = array("q", forecast_path.read_bytes())
    expected = check.gate_expected(check.read_gate_events(spec["input"]), spec["n_alpha"],
                                   spec["reset_interval"], spec["threshold"])

    assert check.check_gate_end(expected, end_state) == 0
    admitted, denied, delayed, forecast = end_state.split()
    for wrong in (f"{int(admitted) + 1} {int(denied) - 1} {delayed} {forecast}",
                  f"{admitted} {denied} {delayed} {int(forecast) + 1}"):
        assert check.check_gate_end(expected, wrong) == len(expected)
    assert check.check_gate(expected, verdicts, forecasts) == 0
    flipped = bytearray(verdicts)
    flipped[3] ^= 1
    assert check.check_gate(expected, bytes(flipped), forecasts) == 1
    bumped = array("q", forecasts)
    bumped[5] += 1
    assert check.check_gate(expected, verdicts, bumped) == 1
    assert check.check_gate(expected, verdicts[:-2], forecasts) == 2


def test_simulate_check_catches_a_perturbed_row_or_summary(workdir):
    spec = _tiny("simulate_trace", workdir)
    stdout = _run_cli(spec["argv"])
    csv = Path(spec["csv"]).read_text()
    expected = check.simulate_expected(
        check.read_values(spec["input"]), spec["n_alpha"], spec["reset_interval"],
        spec["pause_after"], spec["pause_gap"], spec["threshold"],
    )

    assert check.check_simulate(expected, stdout, csv) == 0
    assert check.check_simulate(expected, stdout, _perturb_row(csv, 10)) == 1
    wrong_verdict = csv.replace(",admit\n", ",delay\n", 1)
    assert check.check_simulate(expected, stdout, wrong_verdict) == 1
    assert check.check_simulate(expected, stdout.replace("denied=0", "denied=1"), csv) \
        == len(expected[0])
