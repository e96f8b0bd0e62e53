"""Independent straight-line re-implementations used as test oracles.

Nothing here imports the package under test, and truncating division goes
through exact rational arithmetic, so the arithmetic pedigree is genuinely
different from the library's.
"""

import math
import random
from fractions import Fraction

INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)


_C_SPACE = " \t\n\v\f\r"  # isspace() in the C locale
_C_DIGITS = "0123456789"


def read_pairs_reference(text: str) -> list[tuple[int, int]]:
    """Character-by-character emulation of C's
    ``while (fscanf(in, "%d%d", &count, &xt) == 2)`` loop.

    Each ``%d`` skips C-locale white space, takes an optional sign and then
    needs at least one ASCII digit, reading digits while they last.  The
    first ``%d`` that finds no digit ends the read, and an unpaired last
    integer is dropped.
    """
    ints = []
    i, end = 0, len(text)
    while True:
        while i < end and text[i] in _C_SPACE:
            i += 1
        start = i
        if i < end and text[i] in "+-":
            i += 1
        first_digit = i
        while i < end and text[i] in _C_DIGITS:
            i += 1
        if i == first_digit:
            break
        ints.append(int(text[start:i]))
    return [(ints[k], ints[k + 1]) for k in range(0, len(ints) - 1, 2)]


def generate_reference(scenario) -> list[tuple[int, int]]:
    """Event-by-event expansion of a scenario into (event_time, observation)
    pairs: the clock advances by ``spacing`` before every event after the
    first (by ``pause_gap`` before event ``pause_after + 1``), and jitter
    draws from a PRNG seeded with ``seed``, one draw per event in order.
    A replay scenario's observations are its ``values``; for the other kinds
    the per-index formula is the scenario's own ``value_at``, which the
    generator tests pin on their own."""
    rng = random.Random(scenario.seed)
    events = []
    now = 0
    for t in range(1, scenario.length + 1):
        if t > 1:
            gap = scenario.spacing
            if scenario.pause_after is not None and t == scenario.pause_after + 1:
                gap = scenario.pause_gap
            now += gap
        if scenario.kind == "replay":
            x = scenario.values[t - 1]
        else:
            x = scenario.value_at(t)
        if scenario.jitter == "uniform":
            x += rng.randint(0, scenario.jitter_scale)
        elif scenario.jitter == "exponential":
            x += int(rng.expovariate(1.0 / scenario.jitter_scale))
        events.append((now, x))
    return events


def trunc_div(a: int, b: int) -> int:
    return math.trunc(Fraction(a, b))


def clamp(x: int, n_alpha: int) -> int:
    hi = trunc_div(INT32_MAX, n_alpha)
    lo = trunc_div(INT32_MIN, n_alpha)
    return min(max(x, lo), hi)


def integer_trace(xs, n_alpha, *, event_times=None, reset_interval=5):
    """Step-by-step evaluation of the integer recurrences.

    Returns one dict per observation with the state fields, the slope b
    (0 during startup and when n_alpha == 1) and every intermediate
    quantity the production arithmetic forms (products, dividends, the
    doubled level, the slope, the final sum), so overflow checks can
    inspect them.
    """
    n = s1 = s2 = ft = 0
    last = 0
    out = []
    for i, x in enumerate(xs):
        if event_times is not None:
            now = event_times[i]
            if now - last > reset_interval:
                n = 0
            last = now
        x = clamp(x, n_alpha)
        inter = [x]
        if n < n_alpha:
            n += 1
            inter += [(n - 1) * s1, x + (n - 1) * s1]
            s1 = trunc_div(x + (n - 1) * s1, n)
            s2 = s1
            ft = s1
            b = 0
        else:
            inter += [(n_alpha - 1) * s1, x + (n_alpha - 1) * s1]
            s1 = trunc_div(x + (n_alpha - 1) * s1, n_alpha)
            inter += [(n_alpha - 1) * s2, s1 + (n_alpha - 1) * s2]
            s2 = trunc_div(s1 + (n_alpha - 1) * s2, n_alpha)
            if n_alpha > 1:
                b = trunc_div(s1 - s2, n_alpha - 1)
                inter += [2 * s1, 2 * s1 - s2, b]
                ft = 2 * s1 - s2 + b
            else:
                b = 0
                ft = s1
        inter += [s1, s2, ft]
        out.append({"n": n, "s1": s1, "s2": s2, "b": b, "ft": ft, "intermediates": inter})
    return out


def smooth_rows(records, n_alpha, *, event_times=None, reset_interval=5):
    """The rows ``smooth`` writes for its (count, observe) records: one
    (count, observe, forecast, diff, diffsum, n, s1, s2) tuple per record,
    the report's five columns and then the ``-w`` CSV's state columns, from
    ``integer_trace``'s state after each record."""
    trace = integer_trace([x for _, x in records], n_alpha,
                          event_times=event_times, reset_interval=reset_interval)
    rows = []
    diffsum = 0
    for (count, x), state in zip(records, trace):
        diff = x - state["ft"]
        diffsum += diff
        rows.append((count, x, state["ft"], diff, diffsum,
                     state["n"], state["s1"], state["s2"]))
    return rows


def float_double_trace(xs, alpha, n_alpha, *, initial=None):
    """Step-by-step evaluation of the float double-smoothing recurrences.

    The first n_alpha observations form a recursive mean
    (s1 = x/n + (1-1/n)*s1, s2 = s1, forecast s1); after that
    s1 = alpha*x + (1-alpha)*s1, s2 = alpha*s1 + (1-alpha)*s2 and the
    forecast is a + b.  With an initial estimate the startup is skipped and
    both statistics start at it.  Each formula is written in the order its
    textbook form evaluates, so results compare with ``==``.  Returns one
    dict per observation with forecast, s1, s2, a and b.
    """
    n, s1, s2 = 0, 0.0, 0.0
    if initial is not None:
        n, s1, s2 = n_alpha, float(initial), float(initial)
    out = []
    for x in xs:
        startup = n < n_alpha
        if startup:
            n += 1
            s1 = x / n + (1.0 - 1.0 / n) * s1
            s2 = s1
        else:
            s1 = alpha * x + (1.0 - alpha) * s1
            s2 = alpha * s1 + (1.0 - alpha) * s2
        a = 2.0 * s1 - s2
        b = alpha / (1.0 - alpha) * (s1 - s2)
        forecast = s1 if startup else a + b
        out.append({"forecast": forecast, "s1": s1, "s2": s2, "a": a, "b": b})
    return out


def expansion_sum(alpha: float, xs, s0: float) -> float:
    """Direct weighted-sum form of iterated single exponential smoothing:
    sum of alpha*(1-alpha)**(t-i) * x_i plus (1-alpha)**t * s0."""
    t = len(xs)
    total = math.fsum(alpha * (1 - alpha) ** (t - i) * xs[i - 1] for i in range(1, t + 1))
    return total + (1 - alpha) ** t * s0
