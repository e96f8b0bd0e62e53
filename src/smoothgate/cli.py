"""Command-line front end.

Subcommands:

    smooth    reference-compatible integer smoothing of a "<count> <value>"
              input file (fixed-width stdout report, optional verbose CSV)
    weights   weight-schedule tables for a given smoothing constant
    trace     float-model responses to step/ramp series
    simulate  scenario runner with an optional admission gate
"""

import argparse
import functools
import inspect
import io
import os
import sys
import time

from .forecast import (
    DoubleExpSmoother,
    MovingAverage,
    SingleExpSmoother,
    initial_estimate_weights,
    smoothing_weights,
    startup_weights,
)
from .gate import DELAY, DENY, GatePolicy
from .intsmooth import IntSmoother, ManualClock, system_seconds
from .sim import GENERATOR_KINDS, JITTER_KINDS, TRACE_COLUMNS, TRACE_ROW, Scenario
from .sim import read_pairs, run  # by name: perfbench's span shims patch them here

SMOOTH_TITLE = "-----Time Series Smoothing Algorithm-----"
SMOOTH_COLUMNS = "_____count_____observe_____forecast_____diff_____diffsum"
CSV_TITLE = "Time Series Smoothing Algorithm"
# %-formatting is cheaper per row than f-strings and renders the same text:
# "%10d" equals "{:10d}" for every int.
SMOOTH_ROW = "%10d%10d%10d%10d%10d\n"
# trace --model NAME: the float model it runs, built from --alpha (--window for ma).
_TRACE_MODELS = {"single": SingleExpSmoother, "double": DoubleExpSmoother, "ma": MovingAverage}
# simulate's flags: the parameters of Scenario, GatePolicy and run, but the
# three the CLI builds; read before a shim can take run's place here.
_SIMULATE_PARAMS = tuple(
    tuple(name for name in inspect.signature(target).parameters
          if name not in ("values", "scenario", "policy"))
    for target in (Scenario, GatePolicy, run)
)
# The flags that take a name; every other simulate flag takes an int.
_SIMULATE_CHOICES = {"kind": GENERATOR_KINDS, "jitter": JITTER_KINDS, "mode": (DENY, DELAY)}


class CliError(Exception):
    """Rejected input; the message goes to stderr and the exit code is 1."""


def _open(path, mode: str):
    """Open a file a command was given, or raise CliError with C's message.

    Latin-1 maps every byte to one character, so input is read byte for
    byte as C reads it.  A directory opened for reading reads as empty:
    C's fopen opens one on Linux, and its first fscanf fails.
    """
    try:
        return open(path, mode, encoding="latin-1")
    except OSError as err:
        if mode == "r" and isinstance(err, IsADirectoryError):
            return io.StringIO()
        raise CliError(f"Error opening {'input' if mode == 'r' else 'output'} file = {path}")


def _read_records(path) -> list[tuple[int, int]]:
    """The "<count> <value>" pairs of an input file; CliError if unopenable."""
    with _open(path, "r") as fh:
        return read_pairs(fh.read())


def cmd_smooth(args) -> int:
    # Like C, report every bad value, one line each (in -n, -r, -t order).
    invalid = [f"Invalid {name} = {value}" for name in ("n_alpha", "reset_count", "reset_time")
               if (value := getattr(args, name)) is not None and value <= 0]
    if invalid:
        raise CliError("\n".join(invalid))
    n_alpha, reset_time, reset_count = args.n_alpha, args.reset_time, args.reset_count

    # Open the CSV before reading the input, as C does: a bad -w fails first.
    csv_file = _open(args.write_csv, "w") if args.write_csv else None
    try:
        records = _read_records(args.input)

        out = sys.stdout
        out.write("\n")
        out.write(SMOOTH_TITLE + "\n")
        header = f"n_alpha = {n_alpha} reset_time = {reset_time}"
        if reset_count:
            header += f" reset_count = {reset_count}"
        out.write(header + "\n")
        out.write(SMOOTH_COLUMNS + "\n")

        if csv_file:
            csv_file.write(CSV_TITLE + "\n")
            line = f"n_alpha = {n_alpha},,reset_t = {reset_time}"
            if reset_count:
                line += f",,reset_c = {reset_count}"
            csv_file.write(line + "\n")
            csv_file.write(TRACE_COLUMNS + "\n")

        if args.sim_clock:
            clock = ManualClock(0)
            pause = clock.advance
        else:
            clock = system_seconds
            pause = time.sleep

        smoother = IntSmoother(n_alpha=n_alpha, reset_interval=reset_time, clock=clock)
        update = smoother.update
        write = out.write
        csv_write = csv_file.write if csv_file else None
        csv_row = TRACE_ROW + "\n"
        diffsum = 0
        for count, xt in records:
            ft = update(xt)
            diff = xt - ft
            diffsum += diff
            write(SMOOTH_ROW % (count, xt, ft, diff, diffsum))
            if csv_write:
                csv_write(csv_row % (count, xt, ft, diff, diffsum,
                                     smoother.n, smoother.s1, smoother.s2))
            # The reset path: go idle for longer than the reset interval
            # right after the flagged record, so the next one restarts.
            if reset_count and count == reset_count:
                pause(reset_time + 1)
    finally:
        if csv_file:
            csv_file.close()
    return 0


def cmd_weights(args) -> int:
    decay = smoothing_weights(args.alpha, args.rows)
    split = initial_estimate_weights(args.alpha, args.rows)
    startup = startup_weights(args.alpha, args.rows)
    lines = ["i,weight,cum_weight,initial_weight,startup_weight"]
    for i in range(args.rows):
        data_w, init_w = split[i]
        lines.append(
            f"{i + 1},{decay[i]:.6f},{data_w:.6f},{init_w:.6f},{startup[i]:.6f}"
        )
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_trace(args) -> int:
    series = Scenario(
        kind=args.series,
        length=args.length,
        level=args.low if args.series == "step" else args.intercept,
        high=args.high,
        switch_at=args.switch_at,
        slope=args.slope,
    )
    model_type = _TRACE_MODELS[args.model]
    model = model_type(args.window if model_type is MovingAverage else args.alpha)

    with_bias = args.model == "single" and args.series == "ramp"
    header = "t,observe,forecast" + (",bias" if with_bias else "")
    lines = [header]
    for t in range(1, series.length + 1):
        x = series.value_at(t)
        f = model.update(x)
        line = f"{t},{x},{f:.2f}"
        if with_bias:
            line += f",{x - f:.2f}"
        lines.append(line)
    if with_bias:
        # Steady-state lag of the constant model tracking this ramp.
        limit = (1.0 - args.alpha) / args.alpha * args.slope
        lines.append(f"bias_limit,{limit:.2f}")
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    # An option left off the command line is absent from args, so Scenario,
    # GatePolicy and run apply their own defaults.
    given = vars(args)
    scenario_options, policy_options, run_options = (
        {name: given[name] for name in names if name in given} for names in _SIMULATE_PARAMS
    )
    replay_file = getattr(args, "replay_file", None)
    if args.kind != "replay":
        if replay_file is not None:
            raise CliError(f"--replay-file needs --kind replay, got --kind {args.kind}")
    elif not replay_file:
        raise CliError("replay needs --replay-file")
    else:
        scenario_options["values"] = tuple(v for _, v in _read_records(replay_file))
    if policy_options and "threshold" not in policy_options:
        raise CliError("--mode and --delay-amount need --threshold")
    scenario = Scenario(**scenario_options)
    policy = GatePolicy(**policy_options) if policy_options else None
    trace = run(scenario, policy=policy, **run_options)
    _emit(args.output, trace.to_csv())
    if trace.stats is not None:
        summary = trace.stats.summary()
    else:
        summary = f"events={len(trace.rows)}"
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return 0


def _emit(path, text: str) -> None:
    if path:
        with _open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothgate",
        description="Response-time forecasting and latency-threshold admission control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "smooth",
        help="smooth a '<count> <value>' input file (fixed-width report)",
        description=(
            "Run the integer smoother over an input file of '<count> <value>' "
            "lines and print the fixed-width count/observe/forecast/diff/diffsum "
            "report."
        ),
    )
    p.add_argument("input", help="input file name")
    p.add_argument("-n", dest="n_alpha", type=int, default=10,
                   help="n_alpha - integer value of 1/alpha, default is 10")
    p.add_argument("-r", dest="reset_count", type=int, default=None,
                   help="reset smoother at count value plus one")
    p.add_argument("-t", dest="reset_time", type=int, default=5,
                   help="reset smoother time interval, default is 5 seconds")
    p.add_argument("-w", dest="write_csv", metavar="CSV", default=None,
                   help="write verbose output to comma delimited file")
    p.add_argument("--sim-clock", action="store_true",
                   help="advance a virtual clock instead of sleeping on -r")

    p = sub.add_parser("weights", help="emit the weight-schedule tables as CSV")
    p.add_argument("--alpha", type=float, required=True, help="smoothing constant")
    p.add_argument("--rows", type=int, default=20, help="number of table rows")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("trace", help="float-model response to a step or ramp series")
    p.add_argument("--model", choices=tuple(_TRACE_MODELS), required=True)
    p.add_argument("--series", choices=("step", "ramp"), required=True)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--window", type=int, default=20, help="moving-average window")
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--low", type=int, default=100, help="step: level before the switch")
    p.add_argument("--high", type=int, default=200, help="step: level from the switch on")
    p.add_argument("--switch-at", dest="switch_at", type=int, default=3,
                   help="step: first index at the high level")
    p.add_argument("--intercept", type=int, default=0, help="ramp: value at t=1")
    p.add_argument("--slope", type=int, default=10, help="ramp: increment per step")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    # No defaults but --output's: cmd_simulate passes only the given options.
    p = sub.add_parser(
        "simulate", help="run a workload scenario, optionally gated",
        description="Each option but --replay-file and --output is the Scenario, GatePolicy "
                    "or run parameter of the same name. --threshold turns the admission gate on.",
        argument_default=argparse.SUPPRESS)
    for names in _SIMULATE_PARAMS:
        for name in names:
            choices = _SIMULATE_CHOICES.get(name)
            p.add_argument("--" + name.replace("_", "-"), dest=name, required=name == "kind",
                           type=None if choices else int, choices=choices)
    p.add_argument("--replay-file",
                   help="replay: '<count> <value>' file supplying the observations")
    p.add_argument("--output", default=None, help="trace CSV path (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # By name, so a command shimmed after the parser was built still runs.
        rc = globals()["cmd_" + args.command](args)
        # Flushed here, so a closed pipe raises below and not at exit.
        sys.stdout.flush()
        return rc
    except (CliError, ValueError) as err:
        print(err, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # As the signal module's SIGPIPE note advises: the rest of stdout
        # goes to devnull, so the flush at exit fails no second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
