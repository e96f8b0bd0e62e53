"""Workload generators and a closed-loop scenario runner.

Scenarios expand into (event_time, latency) streams; ``run`` feeds each
stream through an integer smoother (and optionally an admission gate) on a
simulated clock, recording one trace row per event.  The runner adds no
state of its own: the forecast column always equals what the smoother
would produce fed the same (clock, observation) pairs directly.  Trace
rows are immutable named tuples, so they compare and unpack like tuples.
"""

import random
import re
from dataclasses import dataclass
from typing import NamedTuple

from .gate import CongestionGate, GateDecision, GatePolicy, GateStats
from .intsmooth import IntSmoother, ManualClock

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

_INT_RE = re.compile(r"[+-]?\d+")


def read_pairs(text: str) -> list[tuple[int, int]]:
    """Parse whitespace-separated "<count> <value>" integer pairs.

    A token is an integer when it is an optional ``+`` or ``-`` followed by
    one or more decimal digits (Unicode decimal digits included); a token
    with an underscore, such as ``1_000``, is not.  Parsing stops at the
    first token that is not an integer, and an unpaired trailing integer is
    dropped, mirroring a read-until-EOF loop.  A literal longer than the
    interpreter's int-digit limit raises ValueError.
    """
    # Outside underscores, int() accepts exactly the tokens the pattern
    # does, so a text that converts whole gives the same pairs; any other
    # text takes the token-by-token loop, which finds where parsing stops.
    if "_" not in text:
        it = map(int, text.split())
        try:
            return list(zip(it, it))
        except ValueError:
            pass
    ints = []
    for tok in text.split():
        if not _INT_RE.fullmatch(tok):
            break
        ints.append(int(tok))
    return [(ints[i], ints[i + 1]) for i in range(0, len(ints) - 1, 2)]


@dataclass(frozen=True)
class Scenario:
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
    deterministic comparisons run with jitter off.
    """

    kind: str
    length: int = 25
    level: int = 0
    high: int = 0
    switch_at: int = 1
    slope: int = 0
    burst_len: int = 0
    values: tuple[int, ...] = ()
    pause_after: int | None = None
    pause_gap: int = 0
    spacing: int = 1
    jitter: str | None = None
    jitter_scale: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "replay":
            if not self.values:
                raise ValueError("replay scenario needs a non-empty values tuple")
            object.__setattr__(self, "length", len(self.values))
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.spacing < 0:
            raise ValueError(f"spacing must be >= 0, got {self.spacing}")
        if self.pause_after is not None:
            if not 1 <= self.pause_after < self.length:
                raise ValueError(
                    f"pause_after must fall inside the run, got {self.pause_after}"
                )
            if self.pause_gap < 0:
                raise ValueError(f"pause_gap must be >= 0, got {self.pause_gap}")
        if self.jitter is not None:
            if self.jitter not in JITTER_KINDS:
                raise ValueError(f"jitter must be one of {JITTER_KINDS}, got {self.jitter!r}")
            if self.jitter_scale < 1:
                raise ValueError("jitter needs a positive jitter_scale")
        # Synthetic generators model response times, which are non-negative.
        if self.kind in ("constant", "step", "burst") and self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if self.kind in ("step", "burst") and self.high < 0:
            raise ValueError(f"high must be >= 0, got {self.high}")
        if self.kind in ("step", "burst") and self.switch_at < 1:
            raise ValueError(f"switch_at must be >= 1, got {self.switch_at}")
        if self.kind == "burst" and self.burst_len < 1:
            raise ValueError(f"burst needs burst_len >= 1, got {self.burst_len}")
        if self.kind == "ramp":
            if self.level < 0 or self.level + self.slope * (self.length - 1) < 0:
                raise ValueError("ramp leaves the non-negative range")

    def value_at(self, t: int) -> int:
        """Generator formula at 1-based index t, before jitter."""
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
        return self.values[t - 1]


def generate(scenario: Scenario) -> list[tuple[int, int]]:
    """Expand a scenario into (event_time_seconds, observation) pairs."""
    rng = random.Random(scenario.seed)
    events = []
    now = 0
    for t in range(1, scenario.length + 1):
        if t > 1:
            gap = scenario.spacing
            if scenario.pause_after is not None and t == scenario.pause_after + 1:
                gap = scenario.pause_gap
            now += gap
        x = scenario.value_at(t)
        if scenario.jitter == "uniform":
            x += rng.randint(0, scenario.jitter_scale)
        elif scenario.jitter == "exponential":
            x += int(rng.expovariate(1.0 / scenario.jitter_scale))
        events.append((now, x))
    return events


# The leading trace columns, shared with the ``smooth -w`` CSV.  ``%s``
# renders every value as str() does, as ``f"{value}"`` would.
TRACE_COLUMNS = "count,observe,forecast,diff,diffsum,n,stx1,stx2"
TRACE_ROW = "%s,%s,%s,%s,%s,%s,%s,%s"
_ROW = TRACE_ROW + ",%s,%s\n"
_GATED_ROW = TRACE_ROW + ",%s,%s,%s\n"


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


@dataclass
class SimTrace:
    """Per-event record of a scenario run, serializable as CSV."""

    rows: list[TraceRow]
    stats: GateStats | None = None

    def forecasts(self) -> list[int]:
        return [r.forecast for r in self.rows]

    def to_csv(self) -> str:
        """Verbose-trace CSV: the TRACE_COLUMNS, then the level/slope
        columns and, when a gate ran, the verdict."""
        gated = self.stats is not None
        header = TRACE_COLUMNS + ",at,bt"
        if gated:
            header += ",decision"
        lines = [header + "\n"]
        append = lines.append
        diffsum = 0
        # Unpacking a row is cheaper than reading its fields by name.
        for t, observe, forecast, n, s1, s2, a, b, decision in self.rows:
            diff = observe - forecast
            diffsum += diff
            if gated:
                append(_GATED_ROW % (t, observe, forecast, diff, diffsum, n, s1, s2, a, b,
                                     decision.verdict))
            else:
                append(_ROW % (t, observe, forecast, diff, diffsum, n, s1, s2, a, b))
        return "".join(lines)


def run(
    scenario: Scenario,
    *,
    n_alpha: int = 10,
    reset_interval: int = 5,
    policy: GatePolicy | None = None,
) -> SimTrace:
    """Drive an integer smoother (and optional gate) through a scenario.

    One smoother update per generated event, with the simulated clock set to
    each event's timestamp so idle gaps exercise the smoother's reset rule.
    Gate decisions, when a policy is given, treat every event as a
    prospective new session judged against the post-update forecast.
    """
    events = generate(scenario)
    clock = ManualClock()
    smoother = IntSmoother(n_alpha=n_alpha, reset_interval=reset_interval, clock=clock)
    gate = CongestionGate(smoother, policy) if policy is not None else None
    rows = []
    append = rows.append
    trend = smoother.trend
    for t, (now, x) in enumerate(events, start=1):
        clock.now = now
        if gate is not None:
            decision = gate.observe_and_decide(x)
            forecast = decision.forecast_at_decision
        else:
            decision = None
            forecast = smoother.update(x)
        level, slope = trend()
        append(TraceRow(t, x, forecast, smoother.n, smoother.s1, smoother.s2,
                        level, slope, decision))
    return SimTrace(
        rows=rows,
        stats=gate.stats if gate is not None else None,
    )
