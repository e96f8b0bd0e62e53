"""One workload inside its own interpreter.

    python3 perfbench/worker.py timed  SPEC SECONDS
    python3 perfbench/worker.py traced SPEC

``timed`` repeats passes over the workload's input until SECONDS have gone
by; ``traced`` makes a single pass with span shims installed.  A pass is
one CLI command run (smooth_replay, simulate_trace) or, on gate_inline, one
sweep of a fresh gate over the event list timed as a whole, followed (when
timed) by a second sweep that times every call.  The gate's event list is parsed
before the first pass; a CLI pass reads its input file itself.  Set-up is
measured separately, by the parent process.

Every pass's outputs are hashed after its timed region.  One copy of each
distinct output is kept on disk for the parent to check against the
oracles, so each pass is checked without holding outputs in memory.
"""

import gc
import hashlib
import json
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter_ns

VERDICT_CODES = {"admit": 0, "deny": 1, "delay": 2}


class KeptOutputs:
    def __init__(self):
        self.kept: dict[str, list[str]] = {}

    def add(self, paths: list[Path]) -> tuple[str, int]:
        """Hash the files of one pass; keep them if this output is new."""
        h = hashlib.sha256()
        size = 0
        for path in paths:
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    h.update(chunk)
                    size += len(chunk)
        digest = h.hexdigest()[:16]
        if digest not in self.kept:
            kept = []
            for path in paths:
                target = path.with_name(f"{digest}.{path.name}")
                path.replace(target)
                kept.append(str(target))
            self.kept[digest] = kept
        return digest, size


def cli_pass(main, argv, stdout_path: Path) -> tuple[int, int]:
    """Run one CLI command with stdout going to a file, as in a shell
    redirect; the timed region ends once the output is closed."""
    out = open(stdout_path, "w")
    saved = sys.stdout
    sys.stdout = out
    start = perf_counter_ns()
    try:
        rc = main(argv)
    finally:
        out.close()
        elapsed = perf_counter_ns() - start
        sys.stdout = saved
    return elapsed, rc


def load_gate_events(path, gate_module):
    kinds = (gate_module.NEW_SESSION, gate_module.IN_PROGRESS)
    events = []
    with open(path) as fh:
        for line in fh:
            t, x, k = line.split()
            events.append((int(t), int(x), kinds[int(k)]))
    return events


def new_gate(spec):
    from smoothgate import DENY, CongestionGate, GatePolicy, IntSmoother, ManualClock

    clock = ManualClock()
    smoother = IntSmoother(
        n_alpha=spec["n_alpha"], reset_interval=spec["reset_interval"], clock=clock
    )
    return clock, CongestionGate(smoother, GatePolicy(threshold=spec["threshold"], mode=DENY))


def gate_pass(spec, events, workdir: Path, entry: dict, per_call: bool = True) -> list[Path]:
    """Sweep a fresh gate over the events as a caller would, timing the
    sweep as a whole, and write the gate's end state (decision counts and
    final forecast) out.  With ``per_call``, then sweep a second fresh gate
    timing every call, record that sweep's time and median call time, and
    write its verdicts and forecasts out.  The whole sweep keeps nothing
    per event, so the harness adds no work to its time."""
    clock, gate = new_gate(spec)
    observe = gate.observe_and_decide
    start = perf_counter_ns()
    for t, x, kind in events:
        clock.now = t
        observe(x, kind)
    entry["ns"] = perf_counter_ns() - start
    stats = gate.stats
    end_path = workdir / "end_state.txt"
    end_path.write_text(
        f"{stats.admitted} {stats.denied} {stats.delayed} {gate.smoother.forecast}\n")
    entry["sweeps"] = 1
    if not per_call:
        return [end_path]

    clock, gate = new_gate(spec)
    observe = gate.observe_and_decide
    n = len(events)
    latency = array("q", bytes(8 * n))
    verdicts = [None] * n
    forecasts = [0] * n
    start = perf_counter_ns()
    for i, (t, x, kind) in enumerate(events):
        clock.now = t
        t0 = perf_counter_ns()
        decision = observe(x, kind)
        latency[i] = perf_counter_ns() - t0
        verdicts[i] = decision.verdict
        forecasts[i] = decision.forecast_at_decision
    entry["call_sweep_ns"] = perf_counter_ns() - start
    entry["call_p50_ns"] = statistics.median(latency)
    entry["sweeps"] = 2
    verdict_path = workdir / "verdicts.bin"
    forecast_path = workdir / "forecasts.bin"
    verdict_path.write_bytes(bytes(VERDICT_CODES[v] for v in verdicts))
    with open(forecast_path, "wb") as fh:
        array("q", forecasts).tofile(fh)
    return [end_path, verdict_path, forecast_path]


def run_passes(spec, seconds: float | None) -> dict:
    """Repeat passes until ``seconds`` have gone by (one pass if None)."""
    workdir = Path(spec["input"]).parent
    kept = KeptOutputs()
    passes = []
    if spec["workload"] == "gate_inline":
        import smoothgate.gate

        events = load_gate_events(spec["input"], smoothgate.gate)
    else:
        from smoothgate.cli import main

        stdout_path = workdir / "stdout.txt"
        csv_path = Path(spec["csv"])

    gen2_before = gc.get_stats()[2]["collections"]
    deadline = perf_counter_ns() + int((seconds or 0) * 1e9)
    while True:
        entry = {"ns": None, "digest": None, "bytes": 0, "error": None}
        try:
            if spec["workload"] == "gate_inline":
                files = gate_pass(spec, events, workdir, entry, per_call=seconds is not None)
            else:
                entry["ns"], rc = cli_pass(main, spec["argv"], stdout_path)
                files = [stdout_path, csv_path]
                if rc != 0:
                    entry["error"] = f"exit code {rc}"
        except Exception:
            entry["error"] = traceback.format_exc()
            print(entry["error"], file=sys.stderr)
        if entry["error"] is None:
            entry["digest"], entry["bytes"] = kept.add(files)
        passes.append(entry)
        if perf_counter_ns() >= deadline:
            break
    return {
        "events_per_pass": spec["events"],
        "passes": passes,
        "kept": kept.kept,
        "gc_gen2": gc.get_stats()[2]["collections"] - gen2_before,
    }


def main(argv) -> int:
    mode, spec_path = argv[0], Path(argv[1])
    spec = json.loads(spec_path.read_text())
    workdir = spec_path.parent
    if mode == "timed":
        result = run_passes(spec, float(argv[2]))
    elif mode == "traced":
        import smoothgate.cli
        import smoothgate.gate
        import smoothgate.intsmooth
        import smoothgate.sim

        from tracing import Tracer, shim_outside_ns

        tracer = Tracer()
        tracer.install(smoothgate.intsmooth, smoothgate.gate, smoothgate.sim, smoothgate.cli)
        result = run_passes(spec, None)
        tracer.write(workdir)
        result["shim_outside_ns"] = shim_outside_ns()
        result["totals"] = tracer.totals(result["shim_outside_ns"])
        result["counts"] = tracer.counts
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    (workdir / f"result-{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
