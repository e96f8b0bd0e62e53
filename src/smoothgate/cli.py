"""Command-line front end.

Subcommands:

    smooth    reference-compatible integer smoothing of a "<count> <value>"
              input file (fixed-width stdout report, optional verbose CSV)
    weights   weight-schedule tables for a given smoothing constant
    trace     float-model responses to step/ramp series
    simulate  scenario runner with an optional admission gate
"""

import argparse
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
from .sim import GENERATOR_KINDS, JITTER_KINDS, Scenario, read_pairs, run

SMOOTH_TITLE = "-----Time Series Smoothing Algorithm-----"
SMOOTH_COLUMNS = "_____count_____observe_____forecast_____diff_____diffsum"
CSV_TITLE = "Time Series Smoothing Algorithm"
CSV_COLUMNS = "count,observe,forecast,diff,diffsum,n,stx1,stx2"
# %-formatting is cheaper per row than f-strings and renders the same text:
# "%10d" equals "{:10d}" and "%s" equals "{}" for every int.
SMOOTH_ROW = "%10d%10d%10d%10d%10d\n"
CSV_ROW = "%s,%s,%s,%s,%s,%s,%s,%s\n"


class CliError(Exception):
    """Rejected input; the message goes to stderr and the exit code is 1."""


def _positive(value: int, name: str) -> int:
    if value <= 0:
        raise CliError(f"Invalid {name} = {value}")
    return value


def cmd_smooth(args) -> int:
    n_alpha = _positive(args.n_alpha, "n_alpha")
    reset_time = _positive(args.reset_time, "reset_time")
    reset_count = args.reset_count
    if reset_count is not None:
        reset_count = _positive(reset_count, "reset_count")

    try:
        with open(args.input) as fh:
            records = read_pairs(fh.read())
    except OSError:
        raise CliError(f"Error opening input file = {args.input}")

    out = sys.stdout
    out.write("\n")
    out.write(SMOOTH_TITLE + "\n")
    header = f"n_alpha = {n_alpha} reset_time = {reset_time}"
    if reset_count:
        header += f" reset_count = {reset_count}"
    out.write(header + "\n")
    out.write(SMOOTH_COLUMNS + "\n")

    csv_file = None
    if args.write_csv:
        try:
            csv_file = open(args.write_csv, "w")
        except OSError:
            raise CliError(f"Error opening output file = {args.write_csv}")
        csv_file.write(CSV_TITLE + "\n")
        line = f"n_alpha = {n_alpha},,reset_t = {reset_time}"
        if reset_count:
            line += f",,reset_c = {reset_count}"
        csv_file.write(line + "\n")
        csv_file.write(CSV_COLUMNS + "\n")

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
    diffsum = 0
    try:
        for count, xt in records:
            ft = update(xt)
            diff = xt - ft
            diffsum += diff
            write(SMOOTH_ROW % (count, xt, ft, diff, diffsum))
            if csv_write:
                csv_write(CSV_ROW % (count, xt, ft, diff, diffsum,
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
    if args.model == "single":
        model = SingleExpSmoother(args.alpha)
    elif args.model == "double":
        model = DoubleExpSmoother(args.alpha)
    else:
        model = MovingAverage(args.window)

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
    values = ()
    if args.kind == "replay":
        if not args.replay_file:
            raise CliError("replay needs --replay-file")
        try:
            with open(args.replay_file) as fh:
                values = tuple(v for _, v in read_pairs(fh.read()))
        except OSError:
            raise CliError(f"Error opening input file = {args.replay_file}")
    scenario = Scenario(
        kind=args.kind,
        length=args.length,
        level=args.level,
        high=args.high,
        switch_at=args.switch_at,
        slope=args.slope,
        burst_len=args.burst_len,
        values=values,
        pause_after=args.pause_after,
        pause_gap=args.pause_gap,
        spacing=args.spacing,
        jitter=args.jitter,
        jitter_scale=args.jitter_scale,
        seed=args.seed,
    )
    policy = None
    if args.threshold is not None:
        policy = GatePolicy(
            threshold=args.threshold, mode=args.mode, delay_amount=args.delay_amount
        )
    trace = run(
        scenario,
        n_alpha=args.n_alpha,
        reset_interval=args.reset_interval,
        policy=policy,
    )
    _emit(args.output, trace.to_csv())
    if trace.stats is not None:
        summary = trace.stats.summary()
    else:
        summary = f"events={len(trace.rows)}"
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return 0


def _emit(path, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("weights", help="emit the weight-schedule tables as CSV")
    p.add_argument("--alpha", type=float, required=True, help="smoothing constant")
    p.add_argument("--rows", type=int, default=20, help="number of table rows")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("trace", help="float-model response to a step or ramp series")
    p.add_argument("--model", choices=("single", "double", "ma"), required=True)
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
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("simulate", help="run a workload scenario, optionally gated")
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--length", type=int, default=25)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--high", type=int, default=0)
    p.add_argument("--switch-at", dest="switch_at", type=int, default=1)
    p.add_argument("--slope", type=int, default=0)
    p.add_argument("--burst-len", dest="burst_len", type=int, default=0)
    p.add_argument("--replay-file", default=None,
                   help="replay: '<count> <value>' file supplying the observations")
    p.add_argument("--pause-after", dest="pause_after", type=int, default=None)
    p.add_argument("--pause-gap", dest="pause_gap", type=int, default=0)
    p.add_argument("--spacing", type=int, default=1, help="seconds between events")
    p.add_argument("--jitter", choices=JITTER_KINDS, default=None)
    p.add_argument("--jitter-scale", dest="jitter_scale", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-alpha", dest="n_alpha", type=int, default=10)
    p.add_argument("--reset-interval", dest="reset_interval", type=int, default=5)
    p.add_argument("--threshold", type=int, default=None,
                   help="enable the admission gate at this forecast level")
    p.add_argument("--mode", choices=(DENY, DELAY), default=DENY)
    p.add_argument("--delay-amount", dest="delay_amount", type=int, default=0)
    p.add_argument("--output", default=None, help="trace CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as err:
        print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
