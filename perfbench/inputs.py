"""Seeded inputs for the three workloads.

Everything here is a pure function of (workload, seed, size): the same seed
always gives byte-identical files.  The program under test only ever sees
the files written by ``write_inputs``.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = ("smooth_replay", "gate_inline", "simulate_trace")

# Full-size event counts; --smoke divides them (see run.py).
SIZES = {"smooth_replay": 5_000, "gate_inline": 5_000, "simulate_trace": 5_000}

N_ALPHA = 10
RESET_INTERVAL = 5

# Latency streams for the two CLI workloads, in microseconds: a lognormal
# base (median 2 ms) with overload bursts of 4-12x lasting 40-400 events,
# about three per 5,000 events (an eighth of the stream).
# Every value stays far below INT32_MAX / N_ALPHA, so the C reference never
# clamps, and the report's diffsum stays a small random walk (checked
# against the C program, which would overflow a 32-bit int otherwise).
STREAM_MEDIAN = 2_000
STREAM_SIGMA = 0.5
BURST_RATE = 1 / 1_600
BURST_LEN = (40, 400)
BURST_FACTOR = (4.0, 12.0)
SIM_THRESHOLD = 3 * STREAM_MEDIAN
SIM_PAUSE_GAP = 10  # > RESET_INTERVAL: the smoother resets once, mid-run
SIM_DELAY_AMOUNT = 2

# gate_inline, in milliseconds: clusters of 20-40 events, 0 or 1 s apart,
# separated by idle gaps of 6-30 s (> RESET_INTERVAL), so each cluster
# restarts the smoother and its first N_ALPHA updates take the startup
# branch (about a third of all updates).  About 24% of clusters are
# overloaded (2.5-4x the base level), which refuses roughly a quarter of
# new sessions at GATE_THRESHOLD.  Six values per input lie outside the
# clamp bounds.
GATE_MEDIAN = 400
GATE_SIGMA = 0.35
GATE_CLUSTER = (20, 40)
GATE_IDLE = (6, 30)
GATE_OVERLOAD_RATE = 0.24
GATE_OVERLOAD_FACTOR = (2.5, 4.0)
GATE_IN_PROGRESS_RATE = 0.2
GATE_THRESHOLD = 2 * GATE_MEDIAN
GATE_OUTLIERS = (2**31 - 1, -(2**31), 10**10, -(10**10), 3 * 2**30, -3 * 2**30)

IN_PROGRESS, NEW_SESSION = 1, 0  # request-kind codes in gate_events.txt


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def latency_stream(rng: random.Random, n: int) -> list[int]:
    values = []
    burst_left = 0
    factor = 1.0
    mu = math.log(STREAM_MEDIAN)
    for _ in range(n):
        if burst_left == 0 and rng.random() < BURST_RATE:
            burst_left = rng.randint(*BURST_LEN)
            factor = rng.uniform(*BURST_FACTOR)
        scale = 1.0
        if burst_left:
            burst_left -= 1
            scale = factor
        values.append(max(1, int(rng.lognormvariate(mu, STREAM_SIGMA) * scale)))
    return values


def gate_events(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """(clock_seconds, latency, kind) triples, kind in {NEW_SESSION, IN_PROGRESS}."""
    events = []
    now = 0
    while len(events) < n:
        level = GATE_MEDIAN
        if rng.random() < GATE_OVERLOAD_RATE:
            level *= rng.uniform(*GATE_OVERLOAD_FACTOR)
        mu = math.log(level)
        for _ in range(min(rng.randint(*GATE_CLUSTER), n - len(events))):
            x = max(1, int(rng.lognormvariate(mu, GATE_SIGMA)))
            kind = IN_PROGRESS if rng.random() < GATE_IN_PROGRESS_RATE else NEW_SESSION
            events.append((now, x, kind))
            now += rng.random() < 0.3
        now += rng.randint(*GATE_IDLE)
    for value, i in zip(GATE_OUTLIERS, rng.sample(range(n), len(GATE_OUTLIERS))):
        t, _, kind = events[i]
        events[i] = (t, value, kind)
    return events


def _write_pairs(path: Path, values) -> None:
    path.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values, start=1)))


def write_inputs(workload: str, seed: int, size: int, workdir: Path) -> dict:
    """Write the workload's input files into workdir and return its spec:
    what the worker runs, plus what the checker needs to rebuild the oracle."""
    rng = _rng(workload, seed)
    if workload == "gate_inline":
        events = gate_events(rng, size)
        path = workdir / "gate_events.txt"
        path.write_text("".join(f"{t} {x} {k}\n" for t, x, k in events))
        return {
            "workload": workload,
            "events": size,
            "input": str(path),
            "threshold": GATE_THRESHOLD,
            "n_alpha": N_ALPHA,
            "reset_interval": RESET_INTERVAL,
        }

    values = latency_stream(rng, size)
    path = workdir / "latency.txt"
    _write_pairs(path, values)
    setup_input = workdir / "setup_input.txt"
    spec = {
        "workload": workload,
        "events": size,
        "input": str(path),
        "csv": str(workdir / "out.csv"),
        "n_alpha": N_ALPHA,
        "reset_interval": RESET_INTERVAL,
    }
    if workload == "smooth_replay":
        _write_pairs(setup_input, [])
        spec["argv"] = _smooth_argv(path, spec["csv"])
        spec["setup_argv"] = _smooth_argv(setup_input, workdir / "setup.csv")
    else:
        # A replay scenario needs at least two events to hold a pause.
        _write_pairs(setup_input, [STREAM_MEDIAN, STREAM_MEDIAN])
        spec["pause_after"] = size // 2
        spec["pause_gap"] = SIM_PAUSE_GAP
        spec["threshold"] = SIM_THRESHOLD
        spec["argv"] = _simulate_argv(path, size // 2, spec["csv"])
        spec["setup_argv"] = _simulate_argv(setup_input, 1, workdir / "setup.csv")
    return spec


def _smooth_argv(input_path, csv_path) -> list[str]:
    return ["smooth", "--sim-clock", "-w", str(csv_path), str(input_path)]


def _simulate_argv(input_path, pause_after: int, csv_path) -> list[str]:
    return [
        "simulate", "--kind", "replay", "--replay-file", str(input_path),
        "--pause-after", str(pause_after), "--pause-gap", str(SIM_PAUSE_GAP),
        "--threshold", str(SIM_THRESHOLD), "--mode", "delay",
        "--delay-amount", str(SIM_DELAY_AMOUNT), "--output", str(csv_path),
    ]


def save_spec(spec: dict, workdir: Path) -> Path:
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec))
    return path
