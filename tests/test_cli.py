import contextlib
import ctypes
import inspect
import io
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothgate
from smoothgate import INT32_MAX, INT32_MIN, GatePolicy, Scenario, run
from smoothgate import cli
from smoothgate.cli import main

from oracles import smooth_rows
from tables import (
    CANONICAL_REPORT,
    DECAY_WEIGHT_ROWS,
    RESET_TRACE,
    STARTUP_WEIGHT_ROWS,
)


# The library parameters that simulate takes as flags of the same name: all
# of Scenario's, GatePolicy's and run's but the three the CLI builds itself.
SIMULATE_PARAMS = [
    name
    for target in (Scenario, GatePolicy, run)
    for name in inspect.signature(target).parameters
    if name not in ("values", "scenario", "policy")
]
# One valid value of each simulate flag that takes a name, not an int.
SIMULATE_CHOICE_PARAMS = {"kind": "ramp", "jitter": "uniform", "mode": "delay"}


def long_flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def parse_report_rows(stdout: str):
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and all(p.lstrip("-").isdigit() for p in parts):
            rows.append(tuple(int(p) for p in parts))
    return rows


@pytest.mark.parametrize("argv", [
    ["weights", "--alpha", "0.1", "--rows", "0"],
    ["trace", "--model", "ma", "--series", "ramp", "--window", "0"],
    ["trace", "--model", "double", "--series", "step", "--length", "0"],
    ["simulate", "--kind", "constant", "--n-alpha", "0"],
    ["simulate", "--kind", "constant", "--reset-interval", "-1"],
    ["trace", "--model", "single", "--series", "ramp", "--intercept", "-5"],
    ["trace", "--model", "single", "--series", "step", "--switch-at", "0"],
    ["simulate", "--kind", "constant", "--spacing", "-1"],
    ["simulate", "--kind", "constant", "--pause-after", "3", "--pause-gap", "-1"],
    ["simulate", "--kind", "step", "--high", "-1"],
    ["simulate", "--kind", "burst", "--high", "-1", "--burst-len", "2"],
    ["simulate", "--kind", "burst", "--burst-len", "0"],
])
def test_constructor_errors_exit_one_without_output(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()


@pytest.mark.parametrize("argv", [
    ["weights", "--alpha", "5e-324", "--rows", "2"],
    ["trace", "--model", "double", "--series", "ramp", "--alpha", "1e-310"],
    ["trace", "--model", "single", "--series", "ramp", "--alpha", "1e-310"],
])
def test_an_alpha_too_small_to_invert_exits_one_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Invalid alpha = ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["weights", "--alpha", "0.1"],
    ["trace", "--model", "double", "--series", "ramp"],
    ["simulate", "--kind", "constant"],
])
def test_an_unopenable_output_exits_one_with_c_style_message(capsys, argv):
    assert main([*argv, "--output", "/no/such/dir/x.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "Error opening output file = /no/such/dir/x.csv\n"


def test_a_rejected_command_leaves_its_output_file_untouched(capsys, tmp_path):
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    assert main(["weights", "--alpha", "0.1", "--rows", "0", "--output", str(out)]) == 1
    capsys.readouterr()
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["smooth", "--sim-clock"],
    ["simulate", "--kind", "replay", "--threshold", "600", "--replay-file"],
], ids=["smooth", "simulate"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, argv, unbuffered):
    # C is ended by SIGPIPE without a word; the port exits 1 just as quietly.
    # Under python -u stdout's binary layer is the raw file, whose write may
    # take only part of the bytes.
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{i} {i % 997}\n" for i in range(1, 20001)))
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgate.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "smoothgate.cli", *argv, str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().endswith(b"\n")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (1, b"")


@pytest.mark.parametrize("argv,output,rc", [
    (["smooth", "IN"], None, 1),
    (["smooth", "-w", "OUT", "IN"], None, 1),
    (["simulate", "--kind", "constant", "--length", "3"], None, 1),
    (["simulate", "--kind", "constant", "--length", "3", "--output", "OUT"], "OUT", 1),
    (["weights", "--alpha", "0.5", "--rows", "2"], None, 1),
    (["weights", "--alpha", "0.5", "--rows", "2", "--output", "OUT"], "OUT", 0),
    (["trace", "--model", "single", "--series", "step"], None, 1),
    (["trace", "--model", "single", "--series", "step", "--output", "OUT"], "OUT", 0),
])
def test_a_stdout_closed_at_start_fails_only_the_commands_that_write_to_it(
        tmp_path, argv, output, rc):
    # Python starts with sys.stdout None when file descriptor 1 is closed.
    # The file a command writes is still written whole.
    (tmp_path / "IN").write_text("1 100\n2 200\n")
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgate.__file__).parents[1]))
    command = [sys.executable, "-m", "smoothgate.cli", *argv]
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command],
                          cwd=tmp_path, capture_output=True, env=env, timeout=60)
    message = b"Error writing output: Bad file descriptor\n" if rc else b""
    assert (proc.returncode, proc.stderr) == (rc, message)
    if output:
        written = (tmp_path / output).read_bytes()
        subprocess.run(command, cwd=tmp_path, capture_output=True, env=env, timeout=60)
        assert written == (tmp_path / output).read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,stdout_full", [
    (["smooth", "--sim-clock", "-w", "/dev/full"], False),
    (["smooth", "--sim-clock"], True),
    (["simulate", "--kind", "replay", "--threshold", "600", "--replay-file"], True),
    (["simulate", "--kind", "replay", "--output", "/dev/full", "--replay-file"], False),
])
def test_a_failed_write_exits_one_with_one_line(tmp_path, argv, stdout_full):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{i} {i % 997}\n" for i in range(1, 20001)))
    env = dict(os.environ, PYTHONPATH=str(Path(smoothgate.__file__).parents[1]))
    command = [sys.executable, "-m", "smoothgate.cli", *argv, str(path)]
    with open("/dev/full", "wb") if stdout_full else contextlib.nullcontext() as full:
        proc = subprocess.run(command, stdout=full or subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, b"Error writing output: No space left on device\n")
    if not stdout_full:
        # The rows written to a healthy stdout before the failure are kept.
        whole = subprocess.run([a for a in command if a not in ("-w", "--output", "/dev/full")],
                               capture_output=True, env=env, timeout=60).stdout
        assert whole.startswith(proc.stdout)


class TestSmoothCommand:
    def test_default_run_is_byte_identical_to_the_fixture(self, capsys, data_dir):
        assert main(["smooth", str(data_dir / "canonical_input.txt")]) == 0
        expected = (data_dir / "smooth_default_stdout.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_default_run_report_rows(self, capsys, data_dir):
        main(["smooth", str(data_dir / "canonical_input.txt")])
        rows = parse_report_rows(capsys.readouterr().out)
        assert rows == CANONICAL_REPORT

    def test_header_without_reset_count(self, capsys, data_dir):
        main(["smooth", str(data_dir / "canonical_input.txt")])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ""
        assert lines[1] == "-----Time Series Smoothing Algorithm-----"
        assert lines[2] == "n_alpha = 10 reset_time = 5"
        assert lines[3] == "_____count_____observe_____forecast_____diff_____diffsum"

    def test_reset_run_matches_the_golden_trace(self, capsys, data_dir, tmp_path):
        csv_path = tmp_path / "verbose.csv"
        rc = main(["smooth", "--sim-clock", "-n", "5", "-r", "11",
                   "-w", str(csv_path), str(data_dir / "ramp_input.txt")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "n_alpha = 5 reset_time = 5 reset_count = 11"

        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "Time Series Smoothing Algorithm"
        assert csv_lines[1] == "n_alpha = 5,,reset_t = 5,,reset_c = 11"
        assert csv_lines[2] == "count,observe,forecast,diff,diffsum,n,stx1,stx2"
        for row, line in zip(RESET_TRACE, csv_lines[3:]):
            t, observe, forecast, n, s1, s2, _, _ = row
            count, obs, ft, _, _, n_csv, stx1, stx2 = (int(v) for v in line.split(","))
            assert (count, obs, ft, n_csv, stx1, stx2) == (t, observe, forecast, n, s1, s2)

    def test_verbose_csv_roundtrip(self, capsys, data_dir, tmp_path):
        csv_path = tmp_path / "verbose.csv"
        main(["smooth", "-w", str(csv_path), str(data_dir / "canonical_input.txt")])
        capsys.readouterr()
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[3:]]
        replay = tmp_path / "replay.txt"
        replay.write_text("".join(f"{r[0]} {r[1]}\n" for r in rows))
        main(["smooth", str(replay)])
        got = parse_report_rows(capsys.readouterr().out)
        assert [row[2] for row in got] == [int(r[2]) for r in rows]

    @pytest.mark.parametrize("flag,value,name", [
        ("-n", "-3", "n_alpha"),
        ("-r", "0", "reset_count"),
        ("-t", "-1", "reset_time"),
    ])
    def test_non_positive_flags_rejected(self, capsys, data_dir, flag, value, name):
        rc = main(["smooth", flag, value, str(data_dir / "canonical_input.txt")])
        assert rc == 1
        assert f"Invalid {name} = " in capsys.readouterr().err

    def test_a_csv_path_open_refuses_is_reported_and_the_option_loop_goes_on(self, capsys,
                                                                              data_dir):
        # open() refuses a NUL byte with ValueError, not OSError; like any
        # unopenable -w file, it fails the command once the loop is done.
        rc = main(["smooth", "-w", "a\0b", "-h", str(data_dir / "canonical_input.txt")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "embedded null byte\n"
        assert captured.out.startswith("usage: smoothgate smooth [-h]")

    def test_missing_input_file(self, capsys):
        rc = main(["smooth", "/no/such/file.txt"])
        assert rc == 1
        assert "Error opening input file = /no/such/file.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        [], ["-w", "out.csv"], ["-n", "3", "-r", "2", "-w", "out.csv"],
    ])
    def test_a_directory_input_reads_as_empty_as_the_c_oracle_does(
        self, capsys, monkeypatch, tmp_path, c_oracle, flags
    ):
        # fopen(dir, "r") succeeds on Linux and the first fscanf fails, so
        # C prints its header (and the -w CSV header) and exits 0.
        source = tmp_path / "input_dir"
        source.mkdir()
        oracle_dir = tmp_path / "oracle"
        oracle_dir.mkdir()
        proc = subprocess.run([str(c_oracle), *flags, str(source)],
                              capture_output=True, text=True, cwd=oracle_dir)
        mine_dir = tmp_path / "mine"
        mine_dir.mkdir()
        monkeypatch.chdir(mine_dir)
        rc = main(["smooth", *flags, str(source)])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
        assert rc == 0
        assert captured.out.count("\n") == 4  # blank, title, parameters, columns
        assert {p.name: p.read_bytes() for p in mine_dir.iterdir()} == {
            p.name: p.read_bytes() for p in oracle_dir.iterdir()}

    def test_trailing_garbage_stops_the_read(self, capsys, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("1 100\n2 200\nnot-a-number 5\n")
        main(["smooth", str(path)])
        assert len(parse_report_rows(capsys.readouterr().out)) == 2

    def test_diff_and_diffsum_past_int32_print_the_exact_value(self, capsys, tmp_path):
        # The C program's int diffsum overflows at record 2, where its
        # behaviour is undefined; the port prints the exact integers.
        values = [INT32_MAX] * 20 + [INT32_MIN]
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{i} {x}\n" for i, x in enumerate(values, start=1)))
        csv_path = tmp_path / "out.csv"
        assert main(["smooth", "--sim-clock", "-n", "10", "-w", str(csv_path), str(path)]) == 0
        report = capsys.readouterr().out.splitlines()[4:]
        expected = smooth_rows(list(enumerate(values, start=1)), 10)
        rows = [tuple(map(int, line.split(",")))
                for line in csv_path.read_text().splitlines()[3:]]
        assert rows == expected
        assert report == ["%10d%10d%10d%10d%10d" % row[:5] for row in expected]
        assert rows[1][4] == 3865470566
        assert rows[20][3:5] == (-2276332667, 36378372993)

    def test_an_over_long_literal_in_one_buffer_exits_1_after_the_rows_before_it(
            self, capsys, monkeypatch):
        # A file's 4,096-byte buffers would split the literal: this input
        # is read in one buffer, pairs and literal together.
        data = b"1 2 3 4 " + b"9" * 4400 + b" 5 6"
        monkeypatch.setattr(cli, "_open",
                            lambda path, mode: io.BufferedReader(io.BytesIO(data), 1 << 16))
        assert main(["smooth", "--sim-clock", "in.txt"]) == 1
        captured = capsys.readouterr()
        assert [row[0] for row in parse_report_rows(captured.out)] == [1, 3]
        assert captured.out.endswith("\n") and "digits" in captured.err

    def test_a_reset_pause_comes_after_the_flagged_row_is_written(
            self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("1 100\n2 200\n3 300\n")
        snapshots = []
        monkeypatch.setattr(time, "sleep", lambda seconds: snapshots.append(capsys.readouterr()))
        assert main(["smooth", "-r", "2", str(path)]) == 0
        [snapshot] = snapshots
        assert [row[0] for row in parse_report_rows(snapshot.out)] == [1, 2]
        assert snapshot.out.endswith("\n")
        assert [row[0] for row in parse_report_rows(capsys.readouterr().out)] == [3]

    def test_c_oracle_is_built_with_the_overflow_sanitizer(self, c_oracle, tmp_path):
        # The records that overflow the C program's int diffsum at record 2.
        values = [INT32_MAX] * 20 + [INT32_MIN]
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{i} {x}\n" for i, x in enumerate(values, start=1)))
        proc = subprocess.run([str(c_oracle), "-n", "10", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode != 0
        assert "time_series_smooth.c:157" in proc.stderr
        assert "signed integer overflow" in proc.stderr

    @pytest.mark.slow
    def test_reset_run_matches_the_c_oracle_sleeping_for_real(
        self, capsys, data_dir, tmp_path, c_oracle
    ):
        oracle_csv = tmp_path / "oracle.csv"
        proc = subprocess.run(
            [str(c_oracle), "-n", "5", "-r", "11", "-t", "5",
             "-w", str(oracle_csv), str(data_dir / "ramp_input.txt")],
            capture_output=True, text=True, check=True,
        )
        my_csv = tmp_path / "mine.csv"
        main(["smooth", "--sim-clock", "-n", "5", "-r", "11",
              "-w", str(my_csv), str(data_dir / "ramp_input.txt")])
        assert capsys.readouterr().out == proc.stdout
        assert my_csv.read_text() == oracle_csv.read_text()


# Byte streams for the differential test against the C program.  Integers
# stay within +-10**6, so every diff and diffsum fits in int32, where C's
# behaviour is defined; longer literals are left to the read_pairs tests.
_C_INTS = st.integers(-10**6, 10**6).map(lambda v: b"%d" % v)
_C_TOKENS = st.one_of(
    _C_INTS,
    _C_INTS,
    _C_INTS,
    st.integers(0, 10**6).map(lambda v: b"+%d" % v),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3).map(str.encode),
    st.sampled_from([b"12abc", b"0x10", b"1_0", b"1.5", b"12-5", b"+", b"-", b"--1",
                     b"\xff", b"\xc3", b"7\xe9", b"\x80"]),
)
_C_SEPARATORS = st.sampled_from([
    b" ", b" ", b"\n", b"\n", b"\t", b"\r\n", b"\x0b\x0c", b" \n",
    b"\x1c", b"\xa0", b"\xc2\xa0", b"\x85", "\u2003".encode(), b"\x00",
])


@st.composite
def c_input_streams(draw):
    tokens = draw(st.lists(_C_TOKENS, max_size=16))
    seps = draw(st.lists(_C_SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + b"".join(tok + sep for tok, sep in zip(tokens, seps[1:]))


class TestSmoothReadsInputAsTheCOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=c_input_streams())
    @example(data=b"1 5\n2 12abc 3 4")
    @example(data=b"1 0x10\n")
    @example(data=b"1 1_0 2 3")
    @example(data=b"1 12-5 7")
    @example(data="1 2 \u0663 4".encode())
    @example(data=b"1 2\n3 \xff4 5")
    @example(data=b"1 2\x003 4")
    @example(data=b"1 2\xa03 4")
    def test_same_stdout_and_csv(self, c_oracle, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("stream")
        path = work / "in.txt"
        path.write_bytes(data)
        proc = subprocess.run([str(c_oracle), "-w", str(work / "c.csv"), str(path)],
                              capture_output=True, check=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["smooth", "--sim-clock", "-w", str(work / "port.csv"), str(path)])
        assert rc == 0
        assert out.getvalue().encode() == proc.stdout
        assert (work / "port.csv").read_bytes() == (work / "c.csv").read_bytes()


    @pytest.mark.parametrize("data", [b"-", b"+", b"- 1 2", b"+\n1 2", b"-\n3 4"])
    def test_a_leading_bare_sign_ends_the_read_as_in_the_c_oracle(self, c_oracle, tmp_path,
                                                                  data):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        proc = subprocess.run([str(c_oracle), "-w", str(tmp_path / "c.csv"), str(path)],
                              capture_output=True, check=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["smooth", "-w", str(tmp_path / "port.csv"), str(path)])
        assert rc == 0
        assert out.getvalue().encode() == proc.stdout
        assert out.getvalue().count("\n") == 4  # the header only
        assert (tmp_path / "port.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()


def smooth_and_c(c_oracle, workdir: Path, argv, files: dict) -> list:
    """Run ``smooth`` in process and the C program on argv, each in a
    directory of its own under workdir that holds ``files``.

    C is given argv less ``--sim-clock``, the port's addition.  Returns,
    for each, the exit status, stdout and stderr (C's argv[0] read as the
    port's program name) and the directory's files afterwards.
    """
    results = []
    for side in ("c", "port"):
        cwd = workdir / side
        cwd.mkdir()
        for name, data in files.items():
            (cwd / name).write_bytes(data)
        if side == "c":
            env = {k: v for k, v in os.environ.items() if k != "POSIXLY_CORRECT"}
            proc = subprocess.run([str(c_oracle), *(a for a in argv if a != "--sim-clock")],
                                  cwd=cwd, env=env, capture_output=True, timeout=60)
            prog = str(c_oracle).encode()
            rc = proc.returncode
            out, err = (stream.replace(prog, b"smoothgate smooth")
                        for stream in (proc.stdout, proc.stderr))
        else:
            out, err = io.StringIO(), io.StringIO()
            here = os.getcwd()
            os.chdir(cwd)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(["smooth", *argv])
            finally:
                os.chdir(here)
            out, err = out.getvalue().encode(), err.getvalue().encode()
        results.append((rc, out, err, {p.name: p.read_bytes() for p in cwd.iterdir()}))
    return results


# strtol(s, 0, 0) edge cases: octal, hex, leading space, trailing junk, a
# sign, past int and past long.  Among them -r selects count 3, 5, 7, 8 or
# 31, which ARGV_INPUT does not hold: a record it selects would make C sleep.
STRTOL_EDGES = ["010", "0x1F", " 7", "5abc", "+3", "-0", "2147483648", "4294967301",
                "99999999999999999999", ""]
ARGV_INPUT = {"in.txt": b"10 5\n20 7\n40 900\n"}


@st.composite
def smooth_argvs(draw):
    """smooth's flags with strtol edge-case values, operands and "--", and
    --sim-clock put where an option may start (before any "--")."""
    argv = []
    starts = [0]
    for _ in range(draw(st.integers(0, 6))):
        item = draw(st.sampled_from(
            ["-n", "-r", "-t", "-w", "-h", "-x", "--x", "in.txt", "extra", "--"]))
        if item in ("-n", "-r", "-t", "-w"):
            extra = ["out.csv", "in.txt", "no/such.csv"] if item == "-w" else []
            value = draw(st.sampled_from(STRTOL_EDGES + extra))
            argv += [item + value] if value and draw(st.booleans()) else [item, value]
        else:
            argv.append(item)
        if "--" not in argv:
            starts.append(len(argv))
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["-n", "-r", "-t", "-w"])))  # its value is missing
    argv.insert(draw(st.sampled_from(starts)), "--sim-clock")
    return argv


# Argvs whose C behaviour the port once missed or that show a getopt rule.
SMOOTH_ARGVS = {
    "unparseable-n": ["-n", "ten", "in.txt"],
    "help": ["-h"],
    "invalid-n-creates-w": ["-n", "0", "-w", "never.csv", "in.txt"],
    "octal": ["-n", "010", "in.txt"],
    "long-to-int": ["-n", "4294967301", "-w", "out.csv", "in.txt"],
    "hex": ["-n0x10", "in.txt"],
    "trailing-junk": ["-n", "5abc", "in.txt"],
    "every-bad-flag": ["-n", "0", "-r", "0", "-t", "0", "in.txt"],
    "every-bad-flag-negative": ["-n", "0", "-t", "-1", "in.txt"],
    "command-line-order": ["-t", "0", "-n", "0", "in.txt"],
    "each-occurrence": ["-n", "0", "-n", "-2", "in.txt"],
    "invalid-option": ["-x", "-n", "0", "in.txt"],
    "last-operand": ["in.txt", "extra"],
    "operands-permuted": ["in.txt", "-w", "out.csv"],
    "two-w": ["-w", "first.csv", "-w", "out.csv", "in.txt"],
    "bad-w": ["-w", "/no/such/dir/x.csv", "in.txt"],
    "bad-w-and-input": ["-w", "/no/such/dir/x.csv", "/no/such/file.txt"],
    "bad-input-after-w": ["-w", "out.csv", "/no/such/file.txt"],
    "missing-value": ["-w", "out.csv", "-n"],
    "no-operand": ["-w", "out.csv"],
    "double-dash": ["--", "-n", "in.txt"],
    "trailing-double-dash": ["in.txt", "--"],
    "cluster": ["-hn", "3", "-", "in.txt"],
    # getopt has no long options: "--foo" is a cluster of "-", "f", "o", "o".
    "long-option": ["--foo", "in.txt"],
    "long-option-takes-a-value": ["--n", "in.txt"],
    "three-dashes": ["---", "in.txt"],
    "sim-clock-misspelt": ["--sim-clockx", "in.txt"],
    # 1 is the least value each int flag takes; ARGV_INPUT holds no count 1.
    "smallest-valid-values": ["-n", "1", "-r", "1", "-t", "1", "-w", "out.csv", "in.txt"],
}


class TestSmoothReadsArgvAsTheCOracle:
    @pytest.mark.parametrize("argv", SMOOTH_ARGVS.values(), ids=SMOOTH_ARGVS.keys())
    def test_same_exit_output_and_files(self, c_oracle, tmp_path, argv):
        c_side, port_side = smooth_and_c(c_oracle, tmp_path, ["--sim-clock", *argv],
                                         ARGV_INPUT)
        assert port_side == c_side

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.sampled_from(" \t\n\v\f\r+-0123456789abcdefABCDEFxXg"), max_size=24))
    @example(text="")
    @example(text="99999999999999999999")
    @example(text="-9223372036854775808")
    @example(text="0x")
    @example(text="09")
    @example(text="9223372036854775809")  # saturates at the long's end: -1
    @example(text="-9223372041149743103")  # saturates, not wraps: 0
    def test_a_value_converts_as_libc_strtol_stored_in_an_int(self, text):
        strtol = ctypes.CDLL(None).strtol
        strtol.restype = ctypes.c_long
        strtol.argtypes = (ctypes.c_char_p, ctypes.c_void_p, ctypes.c_int)
        assert cli._c_int(text) == ctypes.c_int(strtol(text.encode(), None, 0)).value

    @settings(max_examples=150, deadline=None)
    @given(argv=smooth_argvs())
    def test_same_exit_output_and_files_on_generated_argvs(
        self, c_oracle, tmp_path_factory, argv
    ):
        c_side, port_side = smooth_and_c(c_oracle, tmp_path_factory.mktemp("argv"), argv,
                                         ARGV_INPUT)
        assert port_side == c_side


class TestWeightsCommand:
    def test_table_rows_match_the_golden_schedules(self, capsys):
        assert main(["weights", "--alpha", "0.10", "--rows", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,weight,cum_weight,initial_weight,startup_weight"
        table = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        for i, (weight, cum, initial) in DECAY_WEIGHT_ROWS.items():
            assert table[i][1] == f"{weight:.6f}"
            assert table[i][2] == f"{cum:.6f}"
            assert table[i][3] == f"{initial:.6f}"
        for i, startup in STARTUP_WEIGHT_ROWS.items():
            assert table[i][4] == f"{startup:.6f}"

    def test_single_row_table(self, capsys):
        main(["weights", "--alpha", "0.5", "--rows", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "1,0.500000,0.500000,0.500000,1.000000"

    def test_invalid_alpha_rejected(self, capsys):
        assert main(["weights", "--alpha", "1.5"]) == 1
        assert "Invalid alpha = 1.5" in capsys.readouterr().err

    def test_zero_rows_names_the_option(self, capsys):
        assert main(["weights", "--alpha", "0.1", "--rows", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rows must be >= 1, got 0\n"

    def test_twenty_rows_by_default(self, capsys):
        assert main(["weights", "--alpha", "0.1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 20

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "weights.csv"
        main(["weights", "--alpha", "0.10", "--output", str(out)])
        assert out.read_text().startswith("i,weight,")


class TestTraceCommand:
    def _value(self, capsys, argv, t):
        main(argv)
        lines = capsys.readouterr().out.splitlines()
        return lines, float(lines[t].split(",")[2])

    def test_double_ramp_value(self, capsys):
        _, v = self._value(capsys, ["trace", "--model", "double", "--series", "ramp"], 8)
        assert v == pytest.approx(63.22, abs=0.005)

    def test_single_step_value(self, capsys):
        _, v = self._value(capsys, ["trace", "--model", "single", "--series", "step"], 20)
        assert v == pytest.approx(198.20, abs=0.005)

    def test_single_ramp_has_bias_column_and_footer(self, capsys):
        lines, _ = self._value(capsys, ["trace", "--model", "single", "--series", "ramp"], 20)
        assert lines[0] == "t,observe,forecast,bias"
        assert float(lines[20].split(",")[3]) == pytest.approx(39.42, abs=0.005)
        assert lines[-1] == "bias_limit,40.00"

    def test_moving_average_trace(self, capsys):
        main(["trace", "--model", "ma", "--window", "5", "--series", "ramp", "--length", "10"])
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[10].split(",")[2]) == pytest.approx(70.0)

    def test_twenty_rows_numbered_from_one_by_default(self, capsys):
        assert main(["trace", "--model", "double", "--series", "ramp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [str(t) for t in range(1, 21)]

    def test_the_moving_average_window_is_twenty_by_default(self, capsys):
        # The ramp is 0, 10, ..., 240: row 25 averages values 6 to 25.
        main(["trace", "--model", "ma", "--series", "ramp", "--length", "25"])
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[25].split(",")[2]) == pytest.approx(sum(range(50, 250, 10)) / 20)

    def test_a_window_past_sys_maxsize_averages_the_whole_series(self, capsys):
        argv = ["trace", "--model", "ma", "--series", "step"]
        assert main([*argv, "--window", "9223372036854775808"]) == 0
        huge = capsys.readouterr()
        assert main([*argv, "--window", "1000000"]) == 0
        assert huge == capsys.readouterr()

    def test_invalid_alpha_rejected(self, capsys):
        rc = main(["trace", "--model", "single", "--series", "ramp", "--alpha", "2"])
        assert rc == 1
        assert "Invalid alpha" in capsys.readouterr().err


class TestSimulateCommand:
    def test_canonical_replay_with_gate(self, capsys, data_dir, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["simulate", "--kind", "replay",
                   "--replay-file", str(data_dir / "canonical_input.txt"),
                   "--threshold", "600", "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "admitted=16 denied=9 delayed=0 decisions=25"
        lines = out.read_text().splitlines()
        assert lines[0].endswith(",decision")
        assert len(lines) == 26

    def test_a_replay_peaks_below_four_and_a_half_times_the_csv_it_writes(self, capsys, tmp_path):
        # The replay is read a block at a time, only its values outlive the
        # read, and the rows are joined a block at a time: ~3.8x, where
        # holding every token, pair and row string came to ~6.8x.
        rng = random.Random(5)
        replay = tmp_path / "replay.txt"
        replay.write_text("".join(f"{i} {int(rng.lognormvariate(6, 0.5))}\n"
                                  for i in range(1, 20_001)))
        out = tmp_path / "trace.csv"
        argv = ["simulate", "--kind", "replay", "--replay-file", str(replay),
                "--pause-after", "10000", "--pause-gap", "9", "--threshold", "600",
                "--output", str(out)]
        assert main(argv) == 0  # loads every module the command needs
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert out.read_text().count("\n") == 20_001
        assert peak < 4.5 * out.stat().st_size

    def test_constant_load_under_threshold_denies_nothing(self, capsys):
        rc = main(["simulate", "--kind", "constant", "--level", "100",
                   "--length", "30", "--threshold", "600"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "denied=0" in captured.err
        assert "admitted=30" in captured.err

    def test_reset_scenario_matches_the_smooth_command_csv(self, capsys, data_dir, tmp_path):
        sim_out = tmp_path / "sim.csv"
        main(["simulate", "--kind", "ramp", "--slope", "10", "--length", "25",
              "--pause-after", "11", "--pause-gap", "6",
              "--n-alpha", "5", "--output", str(sim_out)])
        capsys.readouterr()
        smooth_csv = tmp_path / "smooth.csv"
        main(["smooth", "--sim-clock", "-n", "5", "-r", "11",
              "-w", str(smooth_csv), str(data_dir / "ramp_input.txt")])
        capsys.readouterr()
        sim_rows = [line.split(",")[:8] for line in sim_out.read_text().splitlines()[1:]]
        smooth_csv_rows = [line.split(",") for line in smooth_csv.read_text().splitlines()[3:]]
        assert sim_rows == smooth_csv_rows

    # 3,000 lognormal latencies, and 200 values with |x| in [2**30, 2**31)
    # at n_alpha 1, where a forecast formed as 2 * s1 - s2 leaves int32.
    REPLAYS = {
        "lognormal": ("10", 3000, lambda rng: int(rng.lognormvariate(6, 0.6))),
        "past-2**30": ("1", 200, lambda rng: rng.choice((1, -1)) * rng.randrange(2**30, 2**31)),
    }

    @pytest.mark.parametrize("spacing", ["0", "1"])
    @pytest.mark.parametrize("replay", REPLAYS)
    def test_smooth_csv_rows_are_a_replays_first_eight_columns(
            self, capsys, tmp_path, replay, spacing):
        n_alpha, length, draw = self.REPLAYS[replay]
        rng = random.Random(11)
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{i} {draw(rng)}\n" for i in range(1, length + 1)))
        smooth_csv = tmp_path / "smooth.csv"
        assert main(["smooth", "--sim-clock", "-n", n_alpha, "-w", str(smooth_csv),
                     str(path)]) == 0
        sim_csv = tmp_path / "sim.csv"
        assert main(["simulate", "--kind", "replay", "--replay-file", str(path),
                     "--n-alpha", n_alpha, "--spacing", spacing, "--output", str(sim_csv)]) == 0
        capsys.readouterr()
        smooth_csv_rows = [line.split(",") for line in smooth_csv.read_text().splitlines()[3:]]
        sim_rows = [line.split(",")[:8] for line in sim_csv.read_text().splitlines()[1:]]
        assert len(smooth_csv_rows) == length
        assert sim_rows == smooth_csv_rows

    @pytest.mark.parametrize("argv,scenario", [
        (["--kind", "constant"], Scenario(kind="constant")),
        (["--kind", "step"], Scenario(kind="step")),
        (["--kind", "ramp"], Scenario(kind="ramp")),
        (["--kind", "burst", "--burst-len", "3"], Scenario(kind="burst", burst_len=3)),
    ])
    def test_left_out_options_take_the_library_defaults(self, capsys, argv, scenario):
        assert main(["simulate", *argv]) == 0
        captured = capsys.readouterr()
        trace = run(scenario)
        assert captured.out == trace.to_csv()
        assert captured.err == f"events={len(trace.rows)}\n"

    def test_threshold_alone_takes_the_policy_defaults(self, capsys):
        assert main(["simulate", "--kind", "step", "--high", "900", "--threshold", "400"]) == 0
        captured = capsys.readouterr()
        trace = run(Scenario(kind="step", high=900), policy=GatePolicy(threshold=400))
        assert captured.out == trace.to_csv()
        assert captured.err == trace.stats.summary() + "\n"
        assert "deny" in captured.out

    def test_ungated_run_prints_an_event_summary(self, capsys):
        rc = main(["simulate", "--kind", "constant", "--level", "5", "--length", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err.strip() == "events=4"
        assert captured.out.splitlines()[0].startswith("count,observe,forecast")

    def test_invalid_scenario_fails_fast(self, capsys):
        rc = main(["simulate", "--kind", "ramp", "--slope", "-10", "--length", "5"])
        assert rc == 1
        assert "ramp" in capsys.readouterr().err

    def test_replay_requires_a_file(self, capsys):
        rc = main(["simulate", "--kind", "replay"])
        assert rc == 1
        assert "replay" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "", "7\n"], ids=["directory", "empty", "unpaired"])
    def test_a_replay_file_without_a_pair_names_the_flag_and_the_path(
        self, capsys, tmp_path, content
    ):
        path = tmp_path
        if content is not None:
            path = tmp_path / "replay.txt"
            path.write_text(content)
        rc = main(["simulate", "--kind", "replay", "--replay-file", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"--replay-file {path} holds no '<count> <value>' pair\n"

    @pytest.mark.parametrize("options", [
        ["--mode", "delay"],
        ["--delay-amount", "3"],
        ["--mode", "delay", "--delay-amount", "-1"],
    ])
    def test_gate_options_need_a_threshold(self, capsys, options):
        assert main(["simulate", "--kind", "constant", *options]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--mode and --delay-amount need --threshold\n"

    @pytest.mark.parametrize("replay_file", ["canonical_input.txt", "missing.txt"])
    def test_replay_file_needs_the_replay_kind(self, capsys, data_dir, replay_file):
        argv = ["simulate", "--kind", "constant", "--replay-file", str(data_dir / replay_file)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--replay-file needs --kind replay, got --kind constant\n"

    def test_every_library_parameter_is_a_flag_of_the_same_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "-h"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {long_flag(n) for n in SIMULATE_PARAMS} | {
            "--help", "--replay-file", "--output"}
        for name in SIMULATE_PARAMS:
            value = SIMULATE_CHOICE_PARAMS.get(name, "7")
            args = cli.build_parser().parse_args(
                ["simulate", "--kind", "constant", long_flag(name), value])
            assert getattr(args, name) == (value if name in SIMULATE_CHOICE_PARAMS else 7)

    @pytest.mark.parametrize("argv,scenario,options", [
        # Each given value changes the trace: spacing 6 outlasts the default
        # reset interval of 5, and the seed moves the jitter.
        (["--kind", "ramp", "--slope", "3", "--spacing", "6", "--seed", "3",
          "--jitter", "uniform", "--jitter-scale", "40"],
         Scenario(kind="ramp", slope=3, spacing=6, seed=3, jitter="uniform", jitter_scale=40),
         {}),
        (["--kind", "burst", "--length", "30", "--level", "40", "--high", "900",
          "--switch-at", "5", "--burst-len", "6", "--pause-after", "12", "--pause-gap", "9"],
         Scenario(kind="burst", length=30, level=40, high=900, switch_at=5, burst_len=6,
                  pause_after=12, pause_gap=9),
         {}),
        # The pause resets at reset interval 3 but not at the default 5.
        (["--kind", "ramp", "--level", "10", "--slope", "7", "--jitter", "exponential",
          "--jitter-scale", "20", "--seed", "5", "--pause-after", "10", "--pause-gap", "4",
          "--n-alpha", "4", "--reset-interval", "3"],
         Scenario(kind="ramp", level=10, slope=7, jitter="exponential", jitter_scale=20, seed=5,
                  pause_after=10, pause_gap=4),
         {"n_alpha": 4, "reset_interval": 3}),
        (["--kind", "step", "--high", "900", "--threshold", "300", "--mode", "delay",
          "--delay-amount", "4"],
         Scenario(kind="step", high=900),
         {"policy": GatePolicy(threshold=300, mode="delay", delay_amount=4)}),
    ])
    def test_each_given_value_reaches_the_library(self, capsys, argv, scenario, options):
        assert main(["simulate", *argv]) == 0
        captured = capsys.readouterr()
        trace = run(scenario, **options)
        assert captured.out == trace.to_csv()
        summary = trace.stats.summary() if trace.stats else f"events={len(trace.rows)}"
        assert captured.err == summary + "\n"

    def test_an_exponential_jitter_scale_past_the_float_range_exits_1(self, capsys):
        scale = "1" + "0" * 400
        argv = ["simulate", "--kind", "constant", "--jitter", "exponential",
                "--jitter-scale", scale]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"jitter_scale must be <= 2**1018 for exponential jitter, got {scale}\n")

    def test_delay_amount_reaches_the_policy(self, capsys):
        # A delay's retry_after is not in the trace; the policy's own check is.
        argv = ["simulate", "--kind", "constant", "--threshold", "5", "--delay-amount", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "delay_amount must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "name", [n for n in SIMULATE_PARAMS if n not in SIMULATE_CHOICE_PARAMS])
    def test_a_non_integer_value_exits_2_with_usage(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "constant", long_flag(name), "1.5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: smoothgate simulate ")
        assert f"argument {long_flag(name)}: invalid int value: '1.5'" in captured.err


def test_parser_is_built_once_and_commands_are_looked_up_at_call_time(
    capsys, monkeypatch
):
    assert cli.build_parser() is cli.build_parser()
    assert main(["weights", "--alpha", "0.5", "--rows", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "cmd_weights", lambda args: 7)
    assert main(["weights", "--alpha", "0.5", "--rows", "1"]) == 7
    assert capsys.readouterr().out == ""
