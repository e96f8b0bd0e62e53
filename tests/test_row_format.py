"""Byte identity of the CLI's report and CSV rows with f-string rendering.

The expected text is rendered here with f-strings, row by row, from values
taken elsewhere: the `smooth` rows from the straight-line oracle, the
`SimTrace.to_csv` rows from the trace's own fields.  Inputs cover negative
values and a negative running diffsum, counts and values wider than the
10-character report column, observations beyond the clamp bounds and, on
`smooth`, a `-r` reset mid-stream.  Long inputs cover rows formatted a block
at a time: `smooth` over many read buffers, with its reset in a middle one,
and `to_csv` over blocks of `_CSV_BLOCK` rows, the last holding one row.
"""

import random

import pytest

from smoothgate import DELAY, DENY, GatePolicy, Scenario, run
from smoothgate.cli import main
from smoothgate.sim import _CSV_BLOCK

from oracles import smooth_rows

N_ALPHA = 3
RESET_TIME = 4


def _values():
    rng = random.Random(4242)
    xs = [rng.randint(-5_000, 5_000) for _ in range(30)]
    xs += [10**12, -(10**12), 2**31, -(2**31) - 1, 123_456_789_012, -9_876_543_210]
    xs += [rng.randint(-(10**11), 10**11) for _ in range(10)]
    xs += [-rng.randint(10**6, 10**9) for _ in range(20)]
    return xs


VALUES = _values()
# Counts: ordinary, then wider than the 10-character report column.
COUNTS = list(range(1, 41)) + [10**10 + i for i in range(len(VALUES) - 41)] + [12_345_678_901]
RESET_COUNT = 17
# Over 40 KB of records, more than five 4,096-byte read1() buffers of a file;
# LONG_RESET_COUNT's record lies in a middle buffer.
LONG_RECORDS = [(i, VALUES[i % len(VALUES)] + i) for i in range(1, 4_001)]
LONG_RESET_COUNT = 2_001
READ1_SIZE = 4_096


def _smooth_expected(records, *, reset_count):
    """The report and CSV text, rendered with f-strings from the oracle's
    rows."""
    times, now = [], 0
    for count, _ in records:
        times.append(now)
        if reset_count and count == reset_count:
            now += RESET_TIME + 1
    rows = smooth_rows(records, N_ALPHA, event_times=times, reset_interval=RESET_TIME)
    header = f"n_alpha = {N_ALPHA} reset_time = {RESET_TIME}"
    csv_header = f"n_alpha = {N_ALPHA},,reset_t = {RESET_TIME}"
    if reset_count:
        header += f" reset_count = {reset_count}"
        csv_header += f",,reset_c = {reset_count}"
    out = ["", "-----Time Series Smoothing Algorithm-----", header,
           "_____count_____observe_____forecast_____diff_____diffsum"]
    csv = ["Time Series Smoothing Algorithm", csv_header,
           "count,observe,forecast,diff,diffsum,n,stx1,stx2"]
    for count, xt, ft, diff, diffsum, n, s1, s2 in rows:
        out.append(f"{count:10d}{xt:10d}{ft:10d}{diff:10d}{diffsum:10d}")
        csv.append(f"{count},{xt},{ft},{diff},{diffsum},{n},{s1},{s2}")
    return "\n".join(out) + "\n", "\n".join(csv) + "\n"


@pytest.mark.parametrize("reset_count", [None, RESET_COUNT])
def test_smooth_report_and_csv_match_f_string_rows(capsys, tmp_path, reset_count):
    # The short input fits one read buffer; the long one spans many.
    for records, reset in [(list(zip(COUNTS, VALUES)), reset_count),
                           (LONG_RECORDS, reset_count and LONG_RESET_COUNT)]:
        path = tmp_path / "input.txt"
        path.write_text("".join(f"{c} {x}\n" for c, x in records))
        csv_path = tmp_path / "verbose.csv"
        argv = ["smooth", "--sim-clock", "-n", str(N_ALPHA), "-t", str(RESET_TIME),
                "-w", str(csv_path), str(path)]
        if reset:
            argv[1:1] = ["-r", str(reset)]
        assert main(argv) == 0

        expected_out, expected_csv = _smooth_expected(records, reset_count=reset)
        assert capsys.readouterr().out == expected_out
        assert csv_path.read_text() == expected_csv


def test_smooth_inputs_reach_the_cases_they_name():
    _, csv = _smooth_expected(list(zip(COUNTS, VALUES)), reset_count=RESET_COUNT)
    rows = [[int(field) for field in line.split(",")] for line in csv.splitlines()[3:]]
    hi = (2**31 - 1) // N_ALPHA
    assert min(row[4] for row in rows) < 0  # diffsum
    assert any(len(str(c)) > 10 for c in COUNTS)
    assert any(len(str(x)) > 10 for x in VALUES)
    assert any(abs(x) > hi for x in VALUES)
    # The reset restarts the recursive mean right after the flagged record.
    assert rows[RESET_COUNT][5] == 1 and rows[RESET_COUNT - 1][5] == N_ALPHA

    lines = [f"{c} {x}\n".encode() for c, x in LONG_RECORDS]
    assert sum(map(len, lines)) > 10 * READ1_SIZE
    reset_at = sum(map(len, lines[:LONG_RESET_COUNT]))
    assert 5 * READ1_SIZE < reset_at < sum(map(len, lines)) - 5 * READ1_SIZE
    _, csv = _smooth_expected(LONG_RECORDS, reset_count=LONG_RESET_COUNT)
    rows = [[int(field) for field in line.split(",")] for line in csv.splitlines()[3:]]
    assert rows[LONG_RESET_COUNT][5] == 1 and rows[LONG_RESET_COUNT - 1][5] == N_ALPHA


@pytest.mark.parametrize("policy", [
    None,
    GatePolicy(threshold=1_000, mode=DENY),
    GatePolicy(threshold=1_000, mode=DELAY, delay_amount=7),
], ids=["ungated", "deny", "delay"])
def test_to_csv_matches_f_string_rows(policy):
    # The long replay fills two blocks of rows and leaves one row for a third.
    long_values = tuple(VALUES[i % len(VALUES)] for i in range(2 * _CSV_BLOCK + 1))
    for values in (tuple(VALUES), long_values):
        scenario = Scenario(kind="replay", values=values, pause_after=20, pause_gap=9)
        trace = run(scenario, n_alpha=N_ALPHA, reset_interval=RESET_TIME, policy=policy)
        gated = policy is not None
        header = "count,observe,forecast,diff,diffsum,n,stx1,stx2,at,bt"
        if gated:
            header += ",decision"
        lines = [header]
        diffsum = min_diffsum = 0
        for row in trace.rows:
            diff = row.observe - row.forecast
            diffsum += diff
            min_diffsum = min(min_diffsum, diffsum)
            line = (f"{row.t},{row.observe},{row.forecast},{diff},{diffsum},"
                    f"{row.n},{row.s1},{row.s2},{row.a},{row.b}")
            if gated:
                line += f",{row.decision.verdict}"
            lines.append(line)
        assert trace.to_csv() == "\n".join(lines) + "\n"
        assert min_diffsum < 0
        if gated:
            verdicts = {row.decision.verdict for row in trace.rows}
            assert verdicts == {"admit", policy.mode}
