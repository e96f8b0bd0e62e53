"""Event-by-event checks of the program's outputs against the oracles.

The expected values come from ``tests/oracles.py`` (imported as it is, an
independent rational-arithmetic re-implementation of the integer
recurrences) and, for the reference-compatible ``smooth`` report, from the
C program ``tests/reference/time_series_smooth.c``.  Each check returns the
number of events whose output disagrees; an output whose header or summary
disagrees fails every event.
"""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_C = ROOT / "tests" / "reference" / "time_series_smooth.c"
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402  (tests/ is not a package)
from inputs import IN_PROGRESS  # noqa: E402
from worker import VERDICT_CODES  # noqa: E402

ADMIT, DENY = VERDICT_CODES["admit"], VERDICT_CODES["deny"]
SIM_COLUMNS = "count,observe,forecast,diff,diffsum,n,stx1,stx2,at,bt,decision"


def read_values(path) -> list[int]:
    return [int(line.split()[1]) for line in Path(path).read_text().splitlines()]


def read_gate_events(path) -> list[tuple[int, int, int]]:
    return [tuple(map(int, line.split())) for line in Path(path).read_text().splitlines()]


def _ints(line: str, sep=None):
    try:
        return tuple(int(v) for v in line.split(sep))
    except ValueError:
        return None


def _count_bad(expected: list, got: list) -> int:
    """Rows of ``expected`` that ``got`` does not reproduce at the same index."""
    bad = sum(1 for e, g in zip(expected, got) if e != g)
    return min(len(expected), bad + abs(len(expected) - len(got)))


# --- C reference --------------------------------------------------------------

def c_reference(cache_dir: Path) -> Path | None:
    """Compile the C reference once per source version; None without a compiler."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    digest = hashlib.sha256(REFERENCE_C.read_bytes()).hexdigest()[:16]
    exe = cache_dir / f"time_series_smooth-{digest}"
    if not exe.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = exe.with_suffix(".tmp")
        subprocess.run([cc, str(REFERENCE_C), "-Wall", "-o", str(tmp)],
                       check=True, capture_output=True, timeout=120)
        tmp.replace(exe)
    return exe


def run_c_reference(exe: Path, input_path: Path, workdir: Path) -> tuple[str, str]:
    """The C program's stdout report and -w CSV for one input file."""
    csv_path = workdir / "c_reference.csv"
    proc = subprocess.run([str(exe), "-w", str(csv_path), str(input_path)],
                          check=True, capture_output=True, text=True, timeout=120)
    return proc.stdout, csv_path.read_text()


# --- smooth_replay --------------------------------------------------------------

def smooth_expected(values: list[int], n_alpha: int) -> list[tuple]:
    """(count, observe, forecast, diff, diffsum, n, stx1, stx2) per event.

    The run has no -r and uses the simulated clock, so no reset fires."""
    rows = []
    diffsum = 0
    for count, (x, st) in enumerate(zip(values, oracles.integer_trace(values, n_alpha)), 1):
        diff = x - st["ft"]
        diffsum += diff
        rows.append((count, x, st["ft"], diff, diffsum, st["n"], st["s1"], st["s2"]))
    return rows


def check_smooth(expected: list[tuple], stdout: str, csv: str, c_ref=None) -> int:
    """Failed events of one `smooth -w` run.

    Report rows are compared numerically with the oracle and, when the C
    reference ran, byte for byte with its report; CSV rows are compared with
    the oracle, and the header lines with the C program's."""
    n = len(expected)
    if not (stdout.endswith("\n") and csv.endswith("\n")):
        return n
    report = stdout.split("\n")[:-1]
    rows = csv.split("\n")[:-1]
    c_report = None
    if c_ref is not None:
        c_report = c_ref[0].split("\n")[:-1]
        if report[:4] != c_report[:4] or rows[:3] != c_ref[1].split("\n")[:3]:
            return n
        c_report = c_report[4:]
    report, rows = report[4:], rows[3:]
    bad = max(0, max(len(report), len(rows)) - n)  # rows the oracle has no event for
    for i, want in enumerate(expected):
        line = report[i] if i < len(report) else None
        ok = (
            line is not None
            and _ints(line) == want[:5]
            and i < len(rows)
            and _ints(rows[i], ",") == want
            and (c_report is None or c_report[i:i + 1] == [line])
        )
        bad += not ok
    return min(n, bad)


# --- gate_inline ---------------------------------------------------------------

def gate_expected(events, n_alpha: int, reset_interval: int, threshold: int):
    """(verdict code, forecast) per event: in-progress always admits, a new
    session is denied when the forecast strictly exceeds the threshold."""
    trace = oracles.integer_trace(
        [x for _, x, _ in events], n_alpha,
        event_times=[t for t, _, _ in events], reset_interval=reset_interval,
    )
    return [
        (ADMIT if kind == IN_PROGRESS or st["ft"] <= threshold else DENY, st["ft"])
        for (_, _, kind), st in zip(events, trace)
    ]


def check_gate(expected, verdicts: bytes, forecasts) -> int:
    return _count_bad(expected, list(zip(verdicts, forecasts)))


def check_gate_end(expected, end_state: str) -> int:
    """Failed events of a sweep known only by its end state: the decision
    counts (admitted, denied, delayed) and the final forecast."""
    verdicts = [v for v, _ in expected]
    want = (verdicts.count(ADMIT), verdicts.count(DENY), 0, expected[-1][1])
    return 0 if _ints(end_state) == want else len(expected)


# --- simulate_trace ------------------------------------------------------------

def simulate_expected(values: list[int], n_alpha: int, reset_interval: int,
                      pause_after: int, pause_gap: int, threshold: int):
    """Expected CSV rows and summary counts of a gated delay-mode replay.

    Events are 1 s apart except for a ``pause_gap`` before event
    ``pause_after + 1``; every event is a new session."""
    times = []
    now = 0
    for t in range(1, len(values) + 1):
        if t > 1:
            now += pause_gap if t == pause_after + 1 else 1
        times.append(now)
    trace = oracles.integer_trace(values, n_alpha, event_times=times,
                                  reset_interval=reset_interval)
    rows = []
    diffsum = 0
    delayed = 0
    for count, (x, st) in enumerate(zip(values, trace), 1):
        ft, s1, s2 = st["ft"], st["s1"], st["s2"]
        diff = x - ft
        diffsum += diff
        slope = oracles.trunc_div(s1 - s2, n_alpha - 1) if n_alpha > 1 else 0
        verdict = "delay" if ft > threshold else "admit"
        delayed += verdict == "delay"
        rows.append((count, x, ft, diff, diffsum, st["n"], s1, s2, 2 * s1 - s2, slope, verdict))
    summary = {"admitted": len(values) - delayed, "denied": 0, "delayed": delayed,
               "decisions": len(values)}
    return rows, summary


def _sim_row(line: str):
    *numbers, verdict = line.split(",")
    ints = _ints(",".join(numbers), ",")
    return None if ints is None else (*ints, verdict)


def check_simulate(expected, stdout: str, csv: str) -> int:
    rows, summary = expected
    n = len(rows)
    try:
        got_summary = {k: int(v) for k, v in (f.split("=") for f in stdout.split())}
    except ValueError:
        return n
    lines = csv.split("\n")
    if got_summary != summary or lines[0] != SIM_COLUMNS or lines[-1] != "":
        return n
    return _count_bad(rows, [_sim_row(line) for line in lines[1:-1]])
