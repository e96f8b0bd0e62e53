"""Command-line front end: the ``smooth``, ``weights``, ``trace`` and
``simulate`` commands (listed in ``_COMMANDS``).

``smooth`` is the C program: it reads its arguments as that program's
getopt loop does and loads only the integer kernel and the record reader.
argparse, and the modules the other commands run, load only with them.
"""

import errno
import functools
import io
import operator
import os
import re
import sys
import time

from .intsmooth import IntSmoother, ManualClock, system_seconds
from .records import _C_SPACE, TRACE_COLUMNS, TRACE_ROW, stream_blocks

_COMMANDS = """\
commands:
  smooth    smooth a '<count> <value>' input file into a fixed-width report,
            with the C program's flags (smoothgate smooth -h)
  weights   emit the weight-schedule tables as CSV
  trace     float-model response to a step or ramp series
  simulate  run a workload scenario, optionally gated
"""

_SMOOTH_PROG = "smoothgate smooth"  # the C program's argv[0]
_SMOOTH_USAGE = ("usage: %s [-h] [-n n_alpha] [-r reset_count] [-t reset_time] "
                 "[-w csv_file] input_file\n" % _SMOOTH_PROG)
SMOOTH_TITLE = "-----Time Series Smoothing Algorithm-----"
SMOOTH_COLUMNS = "_____count_____observe_____forecast_____diff_____diffsum"
CSV_TITLE = "Time Series Smoothing Algorithm"
# %-formatting is cheaper per row than f-strings and renders the same text:
# "%10d" equals "{:10d}" for every int.
SMOOTH_ROW = "%10d%10d%10d%10d%10d\n"
# smooth's int options, by the name C's Invalid line gives each.
_SMOOTH_INTS = {"n": "n_alpha", "r": "reset_count", "t": "reset_time"}
# strtol(s, 0, 0): C-locale white space, a sign, then hex digits after 0x,
# octal digits after 0, or decimal digits; it stops at the first other one.
# Compiled on first use, by re's cache: a run without -n, -r or -t needs none.
_STRTOL = f"[{_C_SPACE}]*([+-]?)(?:0[xX]([0-9a-fA-F]+)|(0[0-7]*)|([0-9]*))"
# trace --model NAME: the forecast class it runs, built from --alpha
# (--window for ma).
_TRACE_MODELS = {"single": "SingleExpSmoother", "double": "DoubleExpSmoother",
                 "ma": "MovingAverage"}


def _open(path, mode: str):
    """Open a file a command was given, or raise ValueError with C's message.

    Input ("rb") is bytes, which the reader scans byte for byte as C reads
    them.  A directory opened for reading reads as empty: C's fopen opens
    one on Linux, and its first fscanf fails.
    """
    try:
        return open(path, mode) if mode == "rb" else open(path, mode, encoding="latin-1")
    except OSError as err:
        if mode == "rb" and isinstance(err, IsADirectoryError):
            return io.BytesIO()
        raise ValueError(f"Error opening {'input' if mode == 'rb' else 'output'} file = {path}")


def _getopt(args):
    """Split ``args`` as glibc's ``getopt(argc, argv, "hn:r:t:w:")`` loop does.

    Returns the options as (letter, value) pairs in argv order, a rejected
    one as ("?", glibc's message), and the operands, which glibc permutes
    behind the options: a value is the rest of its cluster or the next
    argument, and ``--`` ends the options.  ``--sim-clock``, the port's one
    addition, comes as ("sim-clock", None); any other ``--x`` is a cluster.
    """
    options, operands = [], []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            operands.extend(args[i:])
            break
        if arg == "--sim-clock":
            options.append(("sim-clock", None))
        elif arg[:1] != "-" or arg == "-":
            operands.append(arg)
        else:
            for j, letter in enumerate(arg[1:], start=2):
                if letter not in "hnrtw":
                    options.append(("?", f"invalid option -- '{letter}'"))
                elif letter == "h":
                    options.append(("h", None))
                elif j < len(arg):
                    options.append((letter, arg[j:]))
                    break
                elif i < len(args):
                    options.append((letter, args[i]))
                    i += 1
                else:
                    options.append(("?", f"option requires an argument -- '{letter}'"))
    return options, operands


def _c_int(text: str) -> int:
    """The int C's ``strtol(text, 0, 0)`` gives when stored in an int.

    strtol saturates at the 64-bit long's ends, and gcc converts the long
    to int by keeping its low 32 bits, two's complement: "4294967301"
    gives 5 and "99999999999999999999" gives -1.
    """
    sign, hex_digits, octal, decimal = re.match(_STRTOL, text).groups()
    if hex_digits:
        value = int(hex_digits, 16)
    else:  # 20 decimal digits already pass the long's end
        value = int(octal, 8) if octal else int(decimal[:20] or "0")
    value = max(-2**63, min(-value if sign == "-" else value, 2**63 - 1))
    return (value + 2**31) % 2**32 - 2**31


def cmd_smooth(args) -> int:
    """The C program's main on ``args``: its getopt loop, then the report.

    Each option acts as the loop reaches it: a bad -n, -r or -t value gets
    its Invalid line as typed, -w opens its file, -h prints the usage line.
    Any of those errors, or -h, exits 1 once the loop is done; otherwise
    the last operand is the input.
    """
    params = {"n_alpha": 10, "reset_count": 0, "reset_time": 5}
    sim_clock = failed = False
    csv_file = source = None
    options, operands = _getopt(args)
    try:
        for letter, value in options:
            if letter in _SMOOTH_INTS:
                name = _SMOOTH_INTS[letter]
                params[name] = _c_int(value)
                if params[name] <= 0:
                    print(f"Invalid {name} = {value}", file=sys.stderr)
                    failed = True
            elif letter == "w":
                # C keeps each earlier -w file, created and empty.
                if csv_file:
                    csv_file.close()
                    csv_file = None
                try:
                    csv_file = _open(value, "w")
                except ValueError as err:
                    print(err, file=sys.stderr)
                    failed = True
            elif letter == "h":
                _write_stdout(_SMOOTH_USAGE)
                failed = True
            elif letter == "sim-clock":
                sim_clock = True
            else:
                print(f"{_SMOOTH_PROG}: {value}", file=sys.stderr)
                failed = True
        if failed:
            return 1
        if not operands:
            raise ValueError(f"usage: {_SMOOTH_PROG} [opt-hn:r:t:w:] file name")
        source = _open(operands[-1], "rb")
        n_alpha, reset_count, reset_time = (
            params["n_alpha"], params["reset_count"], params["reset_time"])

        header = f"n_alpha = {n_alpha} reset_time = {reset_time}"
        if reset_count:
            header += f" reset_count = {reset_count}"
        _write_stdout(f"\n{SMOOTH_TITLE}\n{header}\n{SMOOTH_COLUMNS}\n")

        if csv_file:
            csv_file.write(CSV_TITLE + "\n")
            line = f"n_alpha = {n_alpha},,reset_t = {reset_time}"
            if reset_count:
                line += f",,reset_c = {reset_count}"
            csv_file.write(line + "\n")
            csv_file.write(TRACE_COLUMNS + "\n")

        if sim_clock:
            clock = ManualClock(0)
            pause = clock.advance
        else:
            clock = system_seconds
            pause = time.sleep

        smoother = IntSmoother(n_alpha=n_alpha, reset_interval=reset_time, clock=clock)
        update = smoother.update
        write = _write_stdout
        csv_write = csv_file.write if csv_file else None
        csv_row = TRACE_ROW + "\n"
        diffsum = 0
        report, csv = [], []  # the flat row values of one buffer

        def write_rows():
            # One % over the row format repeated k times costs less than k.
            # The lists are emptied first: a write that failed is not retried.
            if report:
                values = tuple(report)
                report.clear()
                write(SMOOTH_ROW * (len(values) // 5) % values)
            if csv:
                values = tuple(csv)
                csv.clear()
                csv_write(csv_row * (len(values) // 8) % values)

        # Each record is updated, on the clock, as the reader yields it.  Its
        # rows are written with its buffer's, or first if a pause or an error
        # comes, so every byte is out by the same record as row by row.
        for pairs in stream_blocks(source):
            try:
                for count, xt in pairs:
                    ft = update(xt)
                    diff = xt - ft
                    diffsum += diff
                    report += count, xt, ft, diff, diffsum
                    if csv_write:
                        csv += count, xt, ft, diff, diffsum, smoother.n, smoother.s1, smoother.s2
                    # The reset path: go idle for longer than the reset interval
                    # right after the flagged record, so the next one restarts.
                    if reset_count and count == reset_count:
                        write_rows()
                        pause(reset_time + 1)
            finally:
                write_rows()
    finally:
        # The input first: closing the CSV file may raise a failed write.
        for fh in (source, csv_file):
            if fh:
                fh.close()
    return 0


def cmd_weights(args) -> int:
    from .forecast import initial_estimate_weights, smoothing_weights, startup_weights

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
    from . import forecast
    from .sim import Scenario, generate

    series = Scenario(
        kind=args.series,
        length=args.length,
        level=args.low if args.series == "step" else args.intercept,
        high=args.high,
        switch_at=args.switch_at,
        slope=args.slope,
    )
    model_type = getattr(forecast, _TRACE_MODELS[args.model])
    model = model_type(args.window if model_type is forecast.MovingAverage else args.alpha)

    with_bias = args.model == "single" and args.series == "ramp"
    header = "t,observe,forecast" + (",bias" if with_bias else "")
    lines = [header]
    for t, (_, x) in enumerate(generate(series), start=1):
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


def _simulate_params() -> tuple:
    """simulate's flags: the parameters of Scenario, GatePolicy and run's
    keywords, less the values (--replay-file gives them) and the policy (the
    GatePolicy flags make it).  The keywords are read from SimTrace, since
    a wrapper may stand in run's place."""
    from .gate import GatePolicy
    from .sim import Scenario, SimTrace

    return tuple(
        tuple(name for name in names if name not in ("values", "policy"))
        for names in (Scenario.__match_args__, GatePolicy.__match_args__,
                      SimTrace.__init__.__kwdefaults__)
    )


def cmd_simulate(args) -> int:
    from .gate import GatePolicy
    # Looked up in sim on each call, so a wrapper set there runs in its place.
    from .sim import Scenario, read_pairs, run

    # An option left off the command line is absent from args, so Scenario,
    # GatePolicy and run apply their own defaults.
    given = vars(args)
    scenario_options, policy_options, run_options = (
        {name: given[name] for name in names if name in given} for names in _simulate_params()
    )
    replay_file = getattr(args, "replay_file", None)
    if args.kind != "replay":
        if replay_file is not None:
            raise ValueError(f"--replay-file needs --kind replay, got --kind {args.kind}")
    elif not replay_file:
        raise ValueError("replay needs --replay-file")
    else:
        with _open(replay_file, "rb") as fh:
            # Only the values are kept: the pairs die before the run.
            values = tuple(map(operator.itemgetter(1), read_pairs(fh)))
        if not values:
            raise ValueError(f"--replay-file {replay_file} holds no '<count> <value>' pair")
        scenario_options["values"] = values
    if policy_options and "threshold" not in policy_options:
        raise ValueError("--mode and --delay-amount need --threshold")
    scenario = Scenario(**scenario_options)
    policy = GatePolicy(**policy_options) if policy_options else None
    trace = run(scenario, policy=policy, **run_options)
    _emit(args.output, trace.to_csv())
    summary = trace.stats.summary() if policy is not None else f"events={scenario.length}"
    if args.output:
        _write_stdout(summary + "\n")
    else:
        print(summary, file=sys.stderr)
    return 0


def _emit(path, text: str) -> None:
    if path:
        with _open(path, "w") as fh:
            fh.write(text)
    else:
        # Flushed now, so a failed write is reported before any summary.
        _write_stdout(text)
        sys.stdout.flush()


def _write_stdout(text: str) -> None:
    """Write text to stdout whole, or raise the OSError that cut it short.

    Under ``python -u`` stdout's binary layer is the raw file, whose write
    may take part of the bytes; the text layer would drop the rest.  A
    stdout closed when Python started is None, and takes no write."""
    out = sys.stdout
    if out is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


@functools.cache
def build_parser():
    """The parser of every command but smooth, which cmd_smooth reads."""
    import argparse

    from .gate import DELAY, DENY
    from .sim import GENERATOR_KINDS, JITTER_KINDS

    parser = argparse.ArgumentParser(
        prog="smoothgate",
        description="Response-time forecasting and latency-threshold admission control.",
        epilog=_COMMANDS, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                               help="one of the commands below")

    p = sub.add_parser("weights")
    p.add_argument("--alpha", type=float, required=True, help="smoothing constant")
    p.add_argument("--rows", type=int, default=20, help="number of table rows")
    p.add_argument("--output", help="CSV path (default stdout)")

    p = sub.add_parser("trace")
    p.add_argument("--model", choices=tuple(_TRACE_MODELS), required=True)
    p.add_argument("--series", choices=("step", "ramp"), required=True)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--window", type=int, default=20, help="moving-average window")
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--low", type=int, default=100, help="step: level before the switch")
    p.add_argument("--high", type=int, default=200, help="step: level from the switch on")
    p.add_argument("--switch-at", type=int, default=3, help="step: first index at the high level")
    p.add_argument("--intercept", type=int, default=0, help="ramp: value at t=1")
    p.add_argument("--slope", type=int, default=10, help="ramp: increment per step")
    p.add_argument("--output", help="CSV path (default stdout)")

    # No defaults but --output's: cmd_simulate passes only the given options.
    p = sub.add_parser(
        "simulate",
        description="Each option but --replay-file and --output is the Scenario, GatePolicy "
                    "or run parameter of the same name. --threshold turns the admission gate on.",
        argument_default=argparse.SUPPRESS)
    # The flags that take a name; every other simulate flag takes an int.
    choices = {"kind": GENERATOR_KINDS, "jitter": JITTER_KINDS, "mode": (DENY, DELAY)}
    for names in _simulate_params():
        for name in names:
            p.add_argument("--" + name.replace("_", "-"), required=name == "kind",
                           type=None if name in choices else int, choices=choices.get(name))
    p.add_argument("--replay-file",
                   help="replay: '<count> <value>' file supplying the observations")
    p.add_argument("--output", default=None, help="trace CSV path (default stdout)")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["smooth"]:
        command, args = "smooth", argv[1:]
    else:
        args = build_parser().parse_args(argv)
        command = args.command
    try:
        # By name, so a command replaced after this module loaded still runs.
        rc = globals()["cmd_" + command](args)
        # Flushed here, so a closed pipe raises below and not at exit.
        _flush_stdout()
        return rc
    except ValueError as err:
        print(err, file=sys.stderr)
        return 1
    except OSError as err:
        # A closed pipe ends the command quietly, as SIGPIPE ends C; any
        # other failed write, as on a full disk, gets one line.  What stdout
        # holds is kept if stdout still takes it.  If not, the rest goes to
        # devnull, as the signal module's SIGPIPE note advises, so the flush
        # at exit fails no second time.
        if not isinstance(err, BrokenPipeError):
            print(f"Error writing output: {err.strerror or err}", file=sys.stderr)
        try:
            _flush_stdout()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _flush_stdout() -> None:
    if sys.stdout is not None:  # None when Python started with it closed
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
