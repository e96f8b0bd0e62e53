"""The smoothgate benchmark.

    python3 perfbench/run.py --workload smooth_replay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py              # every workload, one after another
    python3 perfbench/run.py --smoke      # every workload on a tiny input, traced too

Run from anywhere inside a source checkout: the program is taken from the
checkout's ``src/`` and the oracles from its ``tests/``.  Each workload runs
in its own interpreter (``worker.py``), closed loop with one caller; this
process only generates the seeded inputs, spawns and times the workers,
checks every output against the oracles and prints the metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric by name with its unit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
untraced run, then makes one extra pass with span shims around the
package's public functions, and reports the per-layer metrics.  See
``NOTES.md`` for what each metric means and why the workloads were chosen.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REQUIRED = (
    ROOT / "src" / "smoothgate" / "__init__.py",
    ROOT / "tests" / "oracles.py",
    ROOT / "tests" / "reference" / "time_series_smooth.c",
)

SETUP_SAMPLES = 6  # fresh interpreters before and again after the timed run
SMOKE_DIVISOR = 25
SMOKE_SECONDS = 0.2
CHILD_TIMEOUT = 150  # seconds beyond --seconds before a worker is killed

# Set-up as a user pays it: a fresh interpreter importing the package and
# building what the first event needs, with an empty input.  The child
# reports the instant it is ready on stderr.
READY = "\nimport sys, time\nsys.stderr.write(f'READY {time.monotonic_ns()}\\n')\n"
SETUP_CODE = {
    "gate_inline": (
        "import sys\n"
        "from smoothgate import DENY, CongestionGate, GatePolicy, IntSmoother, ManualClock\n"
        "n_alpha, reset_interval, threshold = map(int, sys.argv[1:])\n"
        "gate = CongestionGate(\n"
        "    IntSmoother(n_alpha=n_alpha, reset_interval=reset_interval, clock=ManualClock()),\n"
        "    GatePolicy(threshold=threshold, mode=DENY),\n"
        ")\n"
    ),
    # The `smoothgate` console script, run on an empty (or two-event) input.
    "cli": "import sys\nfrom smoothgate.cli import main\nif main(sys.argv[1:]) != 0:\n"
           "    sys.exit(1)\n",
}

END_TO_END = {  # name: unit
    "setup_s": "s",
    "events_per_s": "1/s",
    "decide_p50_ns": "ns",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "intsmooth.update.calls": "count",
    "intsmooth.update.busy_ns_per_event": "ns",
    "intsmooth.update.self_ns_per_event": "ns",
    "intsmooth.cdiv.calls_per_update": "calls/update",
    "intsmooth.cdiv.calls_per_update.startup": "calls/update",
    "intsmooth.cdiv.calls_per_update.trend": "calls/update",
    "intsmooth.cdiv.busy_ns_per_event": "ns",
    "intsmooth.clamp_observation.busy_ns_per_event": "ns",
    "intsmooth.trend.busy_ns_per_event": "ns",
    "intsmooth.startup_share": "share",
    "intsmooth.resets": "count",
    "intsmooth.clamped": "count",
    "gate.observe_and_decide.self_ns_per_event": "ns",
    "gate.decide.busy_ns_per_event": "ns",
    "gate.record.busy_ns_per_event": "ns",
    "gate.refused_share": "share",
    "gate.in_progress_share": "share",
    "sim.read_pairs.busy_ns_per_event": "ns",
    "sim.generate.busy_ns_per_event": "ns",
    "sim.run.self_ns_per_event": "ns",
    "sim.to_csv.busy_ns_per_event": "ns",
    "sim.to_csv.bytes": "bytes",
    "cli.smooth.self_ns_per_event": "ns",
    "cli.simulate.self_ns_per_event": "ns",
    "cli.bytes_out": "bytes",
    "gc.gen2_collections": "count",
    "trace.overhead_share": "share",
}

sys.path.insert(0, str(HERE))
from inputs import SIZES, WORKLOADS, save_spec, write_inputs  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap the child and return its resource usage (for its own peak RSS)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError(f"{proc.args[:3]} did not finish within {timeout:.0f} s")
        time.sleep(0.01)


def run_child(args: list[str], workdir: Path, tag: str, timeout: float):
    err_path = workdir / f"{tag}.stderr"
    with open(workdir / f"{tag}.stdout", "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        usage = wait_child(proc, timeout)
    stderr = err_path.read_text()
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{stderr[-2000:]}")
    return start, usage, stderr


def measure_setup(spec: dict, workdir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to its READY line; the
    first spawn (which may write bytecode caches) is not counted."""
    if spec["workload"] == "gate_inline":
        code = SETUP_CODE["gate_inline"]
        argv = [str(spec["n_alpha"]), str(spec["reset_interval"]), str(spec["threshold"])]
    else:
        code = SETUP_CODE["cli"]
        argv = spec["setup_argv"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start, _, stderr = run_child(["-c", code + READY, *argv], workdir, "setup", 60)
        ready = int(stderr.rsplit("READY ", 1)[1])
        if i:
            samples.append((ready - start) / 1e9)
    return samples


def timed_run(spec: dict, spec_path: Path, workdir: Path, seconds: float):
    """The untraced passes of one worker, and its peak RSS in KiB."""
    _, usage, _ = run_child([str(HERE / "worker.py"), "timed", str(spec_path), str(seconds)],
                            workdir, "timed", seconds + CHILD_TIMEOUT)
    # ru_maxrss is in KiB on Linux.
    return json.loads((workdir / "result-timed.json").read_text()), usage.ru_maxrss


def fastest_pass(result: dict, key: str = "ns") -> dict:
    """The pass with the shortest wall time (``key``: of which sweep).

    On a shared host, passes of the same code differ by up to 2x with the
    load of other tenants, in phases of seconds; the fastest of many short
    passes is the least disturbed one, as timeit reports it."""
    timed = [p for p in result["passes"] if p["digest"] is not None]
    if not timed:
        raise BenchError("no pass completed")
    return min(timed, key=lambda p: p[key])


def events_per_s(result: dict) -> float:
    return result["events_per_pass"] / (fastest_pass(result)["ns"] / 1e9)


def decide_p50_ns(spec: dict, timed: dict) -> float:
    """Median wall time of one decision, in the fastest pass.

    gate_inline times every observe_and_decide call in a sweep of its own;
    the median is taken from the fastest of those sweeps.  The CLI workloads
    decide inside one command run, with no per-call view short of tracing;
    every end-to-end metric is reported on every workload, so there it is
    the run's time per event (1e9 / events_per_s)."""
    if spec["workload"] == "gate_inline":
        return fastest_pass(timed, "call_sweep_ns")["call_p50_ns"]
    return fastest_pass(timed)["ns"] / timed["events_per_pass"]


# --- checks ---------------------------------------------------------------------

class Checker:
    """Counts the failed events of every kept output against the oracles."""

    def __init__(self, spec: dict, workdir: Path):
        import check

        self.check = check
        self.spec = spec
        self.c_reference = "not used"
        self.failures: dict[str, int] = {}
        w = spec["workload"]
        if w == "smooth_replay":
            self.expected = check.smooth_expected(check.read_values(spec["input"]),
                                                  spec["n_alpha"])
            self.c_ref = None
            exe = check.c_reference(WORK / "c_reference")
            if exe is None:
                self.c_reference = "skipped (no C compiler found)"
            else:
                self.c_ref = check.run_c_reference(exe, Path(spec["input"]), workdir)
                self.c_reference = "ran (report compared byte for byte)"
        elif w == "gate_inline":
            self.expected = check.gate_expected(
                check.read_gate_events(spec["input"]), spec["n_alpha"],
                spec["reset_interval"], spec["threshold"],
            )
        else:
            self.expected = check.simulate_expected(
                check.read_values(spec["input"]), spec["n_alpha"], spec["reset_interval"],
                spec["pause_after"], spec["pause_gap"], spec["threshold"],
            )

    def failed_in(self, kept: dict[str, list[str]]) -> None:
        check = self.check
        for digest, paths in kept.items():
            if digest in self.failures:
                continue
            w = self.spec["workload"]
            if w == "gate_inline":
                failed = check.check_gate_end(self.expected, Path(paths[0]).read_text())
                if len(paths) > 1:  # the per-call sweep's verdicts and forecasts
                    verdicts = Path(paths[1]).read_bytes()
                    forecasts = array("q", Path(paths[2]).read_bytes())
                    failed += check.check_gate(self.expected, verdicts, forecasts)
            else:
                stdout, csv = (Path(p).read_text() for p in paths)
                if w == "smooth_replay":
                    failed = check.check_smooth(self.expected, stdout, csv, self.c_ref)
                else:
                    failed = check.check_simulate(self.expected, stdout, csv)
            self.failures[digest] = failed

    def count(self, result: dict) -> tuple[int, int]:
        """(attempted, failed) events over all passes of one worker run; a
        gate_inline pass makes one or two sweeps over its events."""
        self.failed_in(result["kept"])
        n = result["events_per_pass"]
        attempted = failed = 0
        for p in result["passes"]:
            events = n * p.get("sweeps", 1)
            attempted += events
            failed += events if p["digest"] is None else self.failures[p["digest"]]
        return attempted, failed


# --- metrics --------------------------------------------------------------------

def per_layer_metrics(spec: dict, timed: dict, traced: dict) -> dict:
    n = traced["events_per_pass"]
    totals = traced["totals"]
    counts = traced["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_event(name, kind="busy_ns"):
        return totals[name][kind] / n

    updates = totals["intsmooth.update"]["calls"]
    cli_bytes = traced["passes"][0]["bytes"] if spec["workload"] != "gate_inline" else 0
    return {
        "intsmooth.update.calls": updates,
        "intsmooth.update.busy_ns_per_event": per_event("intsmooth.update"),
        "intsmooth.update.self_ns_per_event": per_event("intsmooth.update", "self_ns"),
        "intsmooth.cdiv.calls_per_update": ratio(
            counts["cdiv_in_startup"] + counts["cdiv_in_trend"], updates),
        "intsmooth.cdiv.calls_per_update.startup": ratio(
            counts["cdiv_in_startup"], counts["startup"]),
        "intsmooth.cdiv.calls_per_update.trend": ratio(counts["cdiv_in_trend"], counts["trend"]),
        "intsmooth.cdiv.busy_ns_per_event": per_event("intsmooth.cdiv"),
        "intsmooth.clamp_observation.busy_ns_per_event": per_event(
            "intsmooth.clamp_observation"),
        "intsmooth.trend.busy_ns_per_event": per_event("intsmooth.trend"),
        "intsmooth.startup_share": ratio(counts["startup"], updates),
        "intsmooth.resets": counts["resets"],
        "intsmooth.clamped": counts["clamped"],
        "gate.observe_and_decide.self_ns_per_event": per_event(
            "gate.observe_and_decide", "self_ns"),
        "gate.decide.busy_ns_per_event": per_event("gate.decide"),
        "gate.record.busy_ns_per_event": per_event("gate.record"),
        "gate.refused_share": ratio(counts["refused"], counts["new_sessions"]),
        "gate.in_progress_share": ratio(counts["in_progress"], counts["decisions"]),
        "sim.read_pairs.busy_ns_per_event": per_event("sim.read_pairs"),
        "sim.generate.busy_ns_per_event": per_event("sim.generate"),
        "sim.run.self_ns_per_event": per_event("sim.run", "self_ns"),
        "sim.to_csv.busy_ns_per_event": per_event("sim.to_csv"),
        "sim.to_csv.bytes": counts["csv_bytes"],
        "cli.smooth.self_ns_per_event": per_event("cli.smooth", "self_ns"),
        "cli.simulate.self_ns_per_event": per_event("cli.simulate", "self_ns"),
        "cli.bytes_out": cli_bytes,
        "gc.gen2_collections": traced["gc_gen2"],
        # Share of the traced pass's time per event that the shims added.
        "trace.overhead_share": 1 - events_per_s(traced) / events_per_s(timed),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    size = SIZES[workload] // (SMOKE_DIVISOR if smoke else 1)
    spec = write_inputs(workload, seed, size, workdir)
    spec_path = save_spec(spec, workdir)
    report = [f"workload {workload}: seed {seed}, {size} events per pass"]

    # Set-up is sampled on both sides of the timed run, seconds apart, so
    # that one phase of host load does not decide its median.
    setup = [] if trace else measure_setup(spec, workdir)
    timed, peak_kb = timed_run(spec, spec_path, workdir, seconds)
    setup += [] if trace else measure_setup(spec, workdir)
    checker = Checker(spec, workdir)
    attempted, failed = checker.count(timed)

    if trace:
        run_child([str(HERE / "worker.py"), "traced", str(spec_path)],
                  workdir, "traced", CHILD_TIMEOUT)
        traced = json.loads((workdir / "result-traced.json").read_text())
        more_attempted, more_failed = checker.count(traced)
        attempted += more_attempted
        failed += more_failed
        metrics = per_layer_metrics(spec, timed, traced)
        units = PER_LAYER
        report.append(f"  traced pass: {len(traced['passes'])} pass, spans in {workdir}; "
                      f"{traced['shim_outside_ns']:.0f} ns per child shim taken off self times")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "events_per_s": events_per_s(timed),
            "decide_p50_ns": decide_p50_ns(spec, timed),
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
        report.append(f"  fastest of {len(timed['passes'])} timed passes; "
                      f"setup_s: median of {len(setup)} fresh interpreters")
    report.append(f"  C reference: {checker.c_reference}")
    report.append(f"  failed_share = {failed / attempted:.6g} share ({failed} of {attempted} events)")
    for name, value in metrics.items():
        report.append(f"  {name} = {value:.6g} {units[name]}")
    return failed == 0, attempted, failed, {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()
    }, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and short runs; both untraced and traced")
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"not a smoothgate checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    traces = (False, True) if args.smoke else (bool(args.trace),)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            for trace in traces:
                ok, att, fail, m, report = run_workload(
                    workload, args.seed, seconds, trace, args.smoke)
                print("\n".join(report), flush=True)
                correct &= ok
                attempted += att
                failed += fail
                prefix = "" if len(workloads) == 1 else f"{workload}."
                metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
