"""Integer-only double exponential smoothing with startup averaging and
elapsed-time reset.

All arithmetic is 32-bit safe: observations are clamped so that every
product and dividend stays inside the signed 32-bit range, and every
division truncates toward zero the way C's signed ``/`` does.  The design
goal is an algorithm that can run where floating point cannot (e.g. inside
a kernel-level driver) while matching its real-arithmetic twin closely.
"""

import time
from typing import Callable

from .errors import UnprimedError, _check_int

__all__ = [
    "INT32_MAX",
    "INT32_MIN",
    "cdiv",
    "clamp_observation",
    "system_seconds",
    "ManualClock",
    "IntSmoother",
]

INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)


def cdiv(a: int, b: int) -> int:
    """Signed integer division truncating toward zero (C semantics).

    Python's ``//`` floors, which differs for negative quotients:
    cdiv(-10, 9) == -1 while -10 // 9 == -2.  Raises ZeroDivisionError
    when b == 0.
    """
    # Branch on the signs so each case is one floor division of
    # non-negative operands, which truncates.
    if a >= 0:
        if b > 0:
            return a // b
        return -(a // -b)
    if b > 0:
        return -(-a // b)
    return -a // -b


def clamp_observation(x: int, n_alpha: int) -> int:
    """Saturate x to [INT32_MIN/n_alpha, INT32_MAX/n_alpha] (bounds computed
    with truncating division), so x + (n_alpha-1)*s never leaves int32."""
    if n_alpha < 1:
        raise ValueError(f"n_alpha must be >= 1, got {n_alpha}")
    hi = cdiv(INT32_MAX, n_alpha)
    lo = cdiv(INT32_MIN, n_alpha)
    if x > hi:
        return hi
    if x < lo:
        return lo
    return x


def system_seconds() -> int:
    """Wall clock in whole seconds, the default production time source."""
    return int(time.time())


class ManualClock:
    """Deterministic injectable time source in whole (int) seconds."""

    def __init__(self, start: int = 0):
        self.now = _check_int("start", start)

    def __call__(self) -> int:
        return self.now

    def advance(self, seconds: int) -> None:
        self.now += _check_int("seconds", seconds)


class IntSmoother:
    """Streaming integer forecaster.

    The first n_alpha observations are absorbed as a recursive mean
    (s1 = (x + (n-1)*s1) / n); after that the double-smoothing recurrences
    run with 1/n_alpha as the effective smoothing constant:

        s1 = (x  + (n_alpha-1)*s1) / n_alpha
        s2 = (s1 + (n_alpha-1)*s2) / n_alpha
        b  = (s1 - s2)/(n_alpha-1)                   # b = 0 when n_alpha == 1
        ft = 2*s1 - s2 + b

    If more than ``reset_interval`` seconds pass between updates the sample
    count drops back to zero, so the next observation restarts the mean and
    becomes the forecast verbatim (stale smoothed state is worthless for
    event-driven latency streams).  A clock that steps back never resets:
    the elapsed time is negative, and the next one is measured from the
    earlier reading.  With reset_interval 5, updates at t = 100, 101, 102,
    50 keep their state and one at 56 resets, as the C reference does.

    Updates must be serialized by the caller; the instance may be moved
    between threads between updates.
    """

    def __init__(
        self,
        n_alpha: int = 10,
        reset_interval: int = 5,
        clock: Callable[[], int] = system_seconds,
    ):
        self.n_alpha = _check_int("n_alpha", n_alpha, 1)
        self.reset_interval = _check_int("reset_interval", reset_interval, 0)
        self._clock = clock
        self.n = 0
        self.s1 = 0
        self.s2 = 0
        self.last_update = 0
        self.b = 0  # slope; 0 during startup and when n_alpha == 1

    def update(self, x: int) -> int:
        """Absorb one observation and return the new forecast.

        Raises TypeError when x is not an int: bool, float and str
        observations are refused rather than coerced.
        """
        if type(x) is not int:
            raise TypeError(f"observation must be an int, got {type(x).__name__}")
        n_alpha = self.n_alpha
        x = clamp_observation(x, n_alpha)
        now = self._clock()
        if type(now) is not int:  # a float or bool clock reads as its int()
            now = int(now)
        n = self.n
        # Strictly greater-than: a pause of exactly reset_interval does not reset.
        if now - self.last_update > self.reset_interval:
            n = 0
        self.last_update = now
        if n < n_alpha:
            n += 1
            self.n = n
            s1 = s2 = cdiv(x + (n - 1) * self.s1, n)
            b = 0
        else:
            m = n_alpha - 1
            s1 = cdiv(x + m * self.s1, n_alpha)
            s2 = cdiv(s1 + m * self.s2, n_alpha)
            b = cdiv(s1 - s2, m) if m else 0
        self.s1 = s1
        self.s2 = s2
        self.b = b
        return 2 * s1 - s2 + b

    @property
    def forecast(self) -> int:
        """Most recent forecast; raises UnprimedError before the first update."""
        if self.n == 0:
            raise UnprimedError("forecast read before any observation")
        return 2 * self.s1 - self.s2 + self.b

    def trend(self) -> tuple[int, int]:
        """Current (level, slope) integer pair; slope is 0 when n_alpha == 1.

        During startup s2 == s1, so this collapses to (s1, 0).
        """
        if self.n == 0:
            raise UnprimedError("trend read before any observation")
        return 2 * self.s1 - self.s2, self.b
