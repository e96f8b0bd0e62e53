import subprocess

import pytest

from smoothgate import INT32_MAX, INT32_MIN, GatePolicy, Scenario, run
from smoothgate.cli import main

from oracles import integer_trace
from tables import (
    CANONICAL_REPORT,
    DECAY_WEIGHT_ROWS,
    RESET_TRACE,
    STARTUP_WEIGHT_ROWS,
)


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
])
def test_constructor_errors_exit_one_without_output(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()


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

    def test_invalid_n_alpha_rejected_without_partial_output(self, capsys, tmp_path, data_dir):
        csv_path = tmp_path / "never.csv"
        rc = main(["smooth", "-n", "0", "-w", str(csv_path),
                   str(data_dir / "canonical_input.txt")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Invalid n_alpha = 0" in captured.err
        assert not csv_path.exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("-n", "-3", "n_alpha"),
        ("-r", "0", "reset_count"),
        ("-t", "-1", "reset_time"),
    ])
    def test_non_positive_flags_rejected(self, capsys, data_dir, flag, value, name):
        rc = main(["smooth", flag, value, str(data_dir / "canonical_input.txt")])
        assert rc == 1
        assert f"Invalid {name} = " in capsys.readouterr().err

    def test_unparseable_flag_exits_nonzero_with_usage(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["smooth", "-n", "ten", str(data_dir / "canonical_input.txt")])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        rc = main(["smooth", "/no/such/file.txt"])
        assert rc == 1
        assert "Error opening input file = /no/such/file.txt" in capsys.readouterr().err

    def test_help_lists_the_five_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["smooth", "-h"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for token in ("-h", "-n", "-r", "-t", "-w"):
            assert token in text

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
        expected = []
        diffsum = 0
        for i, (x, st) in enumerate(zip(values, integer_trace(values, 10)), start=1):
            diff = x - st["ft"]
            diffsum += diff
            expected.append((i, x, st["ft"], diff, diffsum, st["n"], st["s1"], st["s2"]))
        rows = [tuple(map(int, line.split(",")))
                for line in csv_path.read_text().splitlines()[3:]]
        assert rows == expected
        assert report == ["%10d%10d%10d%10d%10d" % row[:5] for row in expected]
        assert rows[1][4] == 3865470566
        assert rows[20][3:5] == (-2276332667, 36378372993)

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
        smooth_rows = [line.split(",") for line in smooth_csv.read_text().splitlines()[3:]]
        assert sim_rows == smooth_rows

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
