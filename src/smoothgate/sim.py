"""Workload generators and a closed-loop scenario runner.

Scenarios expand into (event_time, latency) streams; ``run`` returns a
``SimTrace`` whose iteration feeds the stream through an integer smoother
(and optionally an admission gate) on a simulated clock.  The runner adds
no state of its own: the forecast column always equals what the smoother
would produce fed the same (clock, observation) pairs directly.  Trace
rows are immutable named tuples, so they compare and unpack like tuples.
"""

import functools
import random
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import _check_int
from .gate import CongestionGate, GateDecision, GatePolicy, GateStats, _Frozen
from .intsmooth import IntSmoother, ManualClock
from .records import TRACE_COLUMNS, TRACE_ROW, read_pairs

__all__ = [
    "GENERATOR_KINDS",
    "JITTER_KINDS",
    "Scenario",
    "generate",
    "run",
    "TraceRow",
    "SimTrace",
    "read_pairs",
]

GENERATOR_KINDS = ("constant", "step", "ramp", "burst", "replay")
JITTER_KINDS = ("uniform", "exponential")


class Scenario(_Frozen):
    """Declarative observation-stream recipe.

    Events sit ``spacing`` seconds apart starting at time 0; a pause
    replaces the gap between events ``pause_after`` and ``pause_after + 1``
    with ``pause_gap`` seconds while the generator formula continues
    uninterrupted.  Latency values per 1-based index t:

        constant  level
        step      level until switch_at, then high
        ramp      level + slope*(t-1)
        burst     high for switch_at <= t < switch_at + burst_len, else level
        replay    values[t-1]  (length is taken from the values)

    Optional jitter adds non-negative noise from a fixed-seed PRNG; all
    deterministic comparisons run with jitter off.  Immutable and hashable.
    """

    __match_args__ = ("kind", "length", "level", "high", "switch_at", "slope", "burst_len",
                      "values", "pause_after", "pause_gap", "spacing", "jitter",
                      "jitter_scale", "seed")

    def __init__(self, kind: str, length: int = 25, level: int = 0, high: int = 0,
                 switch_at: int = 1, slope: int = 0, burst_len: int = 0,
                 values: tuple[int, ...] = (), pause_after: int | None = None,
                 pause_gap: int = 0, spacing: int = 1, jitter: str | None = None,
                 jitter_scale: int = 0, seed: int = 0):
        args = locals()  # the parameters, which __match_args__ lists in order
        self.__dict__.update((name, args[name]) for name in self.__match_args__)
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "replay":
            if not self.values:
                raise ValueError("replay scenario needs a non-empty values tuple")
            self.__dict__["length"] = len(self.values)
            for v in self.values:
                if type(v) is not int:  # an int passes _check_int as it is
                    _check_int("values", v)
        elif self.values:
            raise ValueError(f"values are for replay scenarios, got kind {self.kind!r}")
        _check_int("length", self.length, 1)
        _check_int("spacing", self.spacing, 0)
        paused = self.pause_after is not None
        if paused:
            _check_int("pause_after", self.pause_after)
            if not 1 <= self.pause_after < self.length:
                raise ValueError(
                    f"pause_after must fall inside the run, got {self.pause_after}"
                )
        _check_int("pause_gap", self.pause_gap, 0 if paused else None)
        if self.jitter is not None and self.jitter not in JITTER_KINDS:
            raise ValueError(f"jitter must be one of {JITTER_KINDS}, got {self.jitter!r}")
        _check_int("jitter_scale", self.jitter_scale, 1 if self.jitter is not None else None)
        # An exponential draw is at most 53*ln(2) ~ 36.7 times its scale (random()
        # stays 2**-53 below 1), so up to 2**1018 every draw fits a float.
        if self.jitter == "exponential" and self.jitter_scale > 2**1018:
            raise ValueError("jitter_scale must be <= 2**1018 for exponential jitter, "
                             f"got {self.jitter_scale}")
        # Synthetic generators model response times, which are non-negative.
        two_level = self.kind in ("step", "burst")
        _check_int("level", self.level, 0 if two_level or self.kind == "constant" else None)
        _check_int("high", self.high, 0 if two_level else None)
        _check_int("switch_at", self.switch_at, 1 if two_level else None)
        _check_int("burst_len", self.burst_len, 1 if self.kind == "burst" else None)
        _check_int("slope", self.slope)
        _check_int("seed", self.seed)
        if self.kind == "ramp":
            if self.level < 0 or self.level + self.slope * (self.length - 1) < 0:
                raise ValueError("ramp leaves the non-negative range")

    def value_at(self, t: int) -> int:
        """Generator formula at 1-based index t, before jitter.  A replay
        scenario has no formula: its observations are ``values``."""
        if self.kind == "constant":
            return self.level
        if self.kind == "step":
            return self.level if t < self.switch_at else self.high
        if self.kind == "ramp":
            return self.level + self.slope * (t - 1)
        if self.kind == "burst":
            if self.switch_at <= t < self.switch_at + self.burst_len:
                return self.high
            return self.level
        raise ValueError(f"a {self.kind!r} scenario has no generator formula")


def generate(scenario: Scenario) -> list[tuple[int, int]]:
    """Expand a scenario into (event_time_seconds, observation) pairs."""
    length = scenario.length
    if scenario.kind == "replay":
        values = scenario.values
    else:
        values = [scenario.value_at(t) for t in range(1, length + 1)]
    rng = random.Random(scenario.seed)
    if scenario.jitter == "uniform":
        scale = scenario.jitter_scale
        values = [x + rng.randint(0, scale) for x in values]
    elif scenario.jitter == "exponential":
        rate = 1.0 / scenario.jitter_scale
        values = [x + int(rng.expovariate(rate)) for x in values]
    spacing = scenario.spacing
    # From the event after the pause on, the pause gap replaces one spacing.
    pause = length if scenario.pause_after is None else scenario.pause_after
    shift = scenario.pause_gap - spacing
    return [(i * spacing + (shift if i >= pause else 0), x) for i, x in enumerate(values)]


_ROW = TRACE_ROW + ",%s,%s\n"
_GATED_ROW = TRACE_ROW + ",%s,%s,%s\n"
# SimTrace.to_csv formats this many rows at a time.  A block's ints live
# until it is formatted: 1,024 rows held half as much again at the peak.
_CSV_BLOCK = 256


class TraceRow(NamedTuple):
    """State of the smoother (and the verdict, when gated) after event t."""

    t: int
    observe: int
    forecast: int
    n: int
    s1: int
    s2: int
    a: int
    b: int
    decision: GateDecision | None = None


class SimTrace:
    """A scenario run, made as it is read; ``run`` is this constructor.

    Each iteration runs the scenario afresh and yields one TraceRow per
    event, absorbed by the smoother at the event's time on a simulated clock
    (so idle gaps reset it) and, given a policy, judged by a gate as a new
    session on the post-update forecast.  Every run yields the same rows.
    """

    def __init__(self, scenario: Scenario, *, n_alpha: int = 10, reset_interval: int = 5,
                 policy: GatePolicy | None = None):
        if not isinstance(scenario, Scenario):
            raise TypeError(f"scenario must be a Scenario, got {type(scenario).__name__}")
        if policy is not None and not isinstance(policy, GatePolicy):
            raise TypeError(f"policy must be a GatePolicy or None, got {type(policy).__name__}")
        IntSmoother(n_alpha, reset_interval)  # its checks, now and not at the first read
        self.scenario = scenario
        self.n_alpha = n_alpha
        self.reset_interval = reset_interval
        self.policy = policy
        self._stats = None

    def _steps(self) -> Iterator[tuple]:
        """One run of the scenario: per event, a plain tuple of TraceRow's
        fields, in their order.  The one event loop every read goes through."""
        clock = ManualClock()
        smoother = IntSmoother(self.n_alpha, self.reset_interval, clock)
        gate = CongestionGate(smoother, self.policy) if self.policy is not None else None
        trend = smoother.trend
        for t, (now, x) in enumerate(generate(self.scenario), start=1):
            clock.now = now
            if gate is not None:
                decision = gate.observe_and_decide(x)
                forecast = decision.forecast_at_decision
            else:
                decision = None
                forecast = smoother.update(x)
            level, slope = trend()
            yield t, x, forecast, smoother.n, smoother.s1, smoother.s2, level, slope, decision
        if gate is not None:
            self._stats = gate.stats

    def __iter__(self) -> Iterator[TraceRow]:
        # tuple.__new__ builds the same TraceRow without the Python-level
        # __new__ that the named tuple's constructor runs.
        return map(functools.partial(tuple.__new__, TraceRow), self._steps())

    @functools.cached_property
    def rows(self) -> list[TraceRow]:
        """The rows of one run, made on first read and then kept."""
        return list(self)

    @property
    def stats(self) -> GateStats | None:
        """A finished run's verdict counts; None without a policy.  Read
        before any run has finished, it runs the trace and keeps no row."""
        if self._stats is None and self.policy is not None:
            for _ in self._steps():  # a finished run stores its stats
                pass
        return self._stats

    def to_csv(self) -> str:
        """Verbose-trace CSV: the TRACE_COLUMNS, then the level/slope
        columns and, when a gate ran, the verdict.  Rows are formatted as a
        run yields them, and none is kept: the values of every
        ``_CSV_BLOCK`` rows are formatted by one ``%`` over the row format
        repeated, so until the final join it holds the blocks' text and one
        block's values."""
        gated = self.policy is not None
        header = TRACE_COLUMNS + ",at,bt"
        if gated:
            header += ",decision"
        row = _GATED_ROW if gated else _ROW
        width = row.count("%")
        chunks = [header + "\n"]
        diffsum = 0
        steps = self._steps()
        while True:
            values = []
            # Unpacking the run's plain tuples: no TraceRow is built to be formatted.
            for t, observe, forecast, n, s1, s2, a, b, decision in islice(steps, _CSV_BLOCK):
                diff = observe - forecast
                diffsum += diff
                values += t, observe, forecast, diff, diffsum, n, s1, s2, a, b
                if gated:
                    values.append(decision.verdict)
            if not values:
                return "".join(chunks)
            chunks.append(row * (len(values) // width) % tuple(values))


# Checks its arguments and returns at once: each read of the trace runs it.
run = SimTrace
