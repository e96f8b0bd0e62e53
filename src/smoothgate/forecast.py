"""Floating-point exponential smoothing models and their weight schedules.

These are the real-arithmetic forecasters: single and double exponential
smoothing, the hybrid model that starts as a recursive mean and switches to
trend smoothing, and a plain moving average for comparison.  The integer
production twin lives in ``intsmooth``.
"""

import math
import sys
from collections import deque

from .errors import UnprimedError, _check_int

__all__ = [
    "SingleExpSmoother",
    "DoubleExpSmoother",
    "FloatSmoother",
    "MovingAverage",
    "startup_length",
    "smoothing_weights",
    "initial_estimate_weights",
    "startup_weights",
]


_FLOAT_MAX = sys.float_info.max


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"Invalid alpha = {alpha}, must satisfy 0 < alpha < 1")


def _check_finite(x: float, name: str = "observation") -> float:
    """Return x as a float; str and bool values are refused, not coerced."""
    if isinstance(x, (str, bool)):
        raise TypeError(f"{name} must be a real number, got {type(x).__name__}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _saturate(v: float) -> float:
    """Return v, or the largest finite float of its sign when v is infinite:
    a convex combination of finite values can round past the float range
    although its exact value lies inside it."""
    if v > _FLOAT_MAX:
        return _FLOAT_MAX
    if v < -_FLOAT_MAX:
        return -_FLOAT_MAX
    return v


def _check_schedule(alpha: float, rows: int) -> None:
    _check_alpha(alpha)
    _check_int("rows", rows, 1)


def startup_length(alpha: float) -> int:
    """Number of recursive-mean startup observations, floor(1/alpha).

    A tiny epsilon absorbs binary rounding so alphas with an exact integer
    inverse (0.1, 0.2, 0.25, ...) always map to that inverse.
    """
    _check_alpha(alpha)
    inverse = 1.0 / alpha + 1e-9
    if inverse == math.inf:
        raise ValueError(f"Invalid alpha = {alpha}, 1/alpha overflows a float")
    return math.floor(inverse)


class FloatSmoother:
    """Hybrid forecaster: recursive-mean startup, then double smoothing.

    The first floor(1/alpha) observations are absorbed as a running
    arithmetic mean (s = x/n + (1 - 1/n)*s), which removes the initial-
    estimate bias; after that the double-smoothing recurrences take over,
    with the second statistic seeded from the first at the handover:

        s1 = alpha*x  + (1 - alpha)*s1
        s2 = alpha*s1 + (1 - alpha)*s2
        forecast = a + b  with  a = 2*s1 - s2,  b = alpha/(1-alpha)*(s1 - s2)

    This is the real-arithmetic twin of ``intsmooth.IntSmoother``.  The
    forecast is kept as returned: after a startup step it is the mean, which
    2*s1 - s2 would overflow for means above half the float range.

    For a finite stream s1 and s2 stay finite: a running mean or convex
    update that rounds past the float range is saturated to the largest
    finite float of its sign.  The extrapolated forecast a + b and the
    ``trend()`` pair can still leave the float range while s1 and s2 are
    finite: ``2.0*s1`` overflows once |s1| exceeds half of
    ``sys.float_info.max``, so a constant stream at 0.75 of it gives an
    infinite level and forecast after startup, with s1, s2 and the slope
    finite.
    """

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.n_alpha = startup_length(alpha)  # checks alpha first
        self.n = 0
        self.s1 = 0.0
        self.s2 = 0.0
        self._forecast = 0.0

    def update(self, x: float) -> float:
        """Absorb one observation and return the new forecast."""
        x = _check_finite(x)
        n = self.n
        if n < self.n_alpha:
            n += 1
            self.n = n
            self.s1 = self.s2 = f = _saturate(x / n + (1.0 - 1.0 / n) * self.s1)
        else:
            alpha = self.alpha
            self.s1 = _saturate(alpha * x + (1.0 - alpha) * self.s1)
            self.s2 = _saturate(alpha * self.s1 + (1.0 - alpha) * self.s2)
            a, b = self.trend()
            f = a + b
        self._forecast = f
        return f

    def trend(self) -> tuple[float, float]:
        """Current (level, slope) pair; during startup s2 == s1, so the slope is 0."""
        if self.n == 0:
            raise UnprimedError("trend read before any observation")
        return 2.0 * self.s1 - self.s2, self.alpha / (1.0 - self.alpha) * (self.s1 - self.s2)

    @property
    def forecast(self) -> float:
        """Most recent forecast; raises UnprimedError before the first update."""
        if self.n == 0:
            raise UnprimedError("forecast read before any observation")
        return self._forecast


class DoubleExpSmoother(FloatSmoother):
    """Classic double exponential smoothing: ``FloatSmoother`` with a
    one-observation startup.

    Tracks a linear ramp without the steady-state lag the single smoother
    develops.  Both statistics seed from the first observation unless an
    initial estimate is supplied, in which case the very first update
    already smooths and the forecast reads the estimate until then.
    """

    def __init__(self, alpha: float, initial: float | None = None):
        super().__init__(alpha)
        self.n_alpha = 1
        if initial is not None:
            self.n = 1
            self.s1 = self.s2 = self._forecast = _check_finite(initial, "initial")


class SingleExpSmoother(DoubleExpSmoother):
    """Constant-model smoother: ``DoubleExpSmoother``'s level,
    s1 = alpha*x + (1 - alpha)*s1, which is also its forecast.

    Seeds from the first observation unless an explicit initial estimate is
    supplied, in which case the very first update already discounts it.
    """

    def update(self, x: float) -> float:
        """Absorb one observation and return the new level."""
        super().update(x)
        self._forecast = self.s1
        return self.s1


class MovingAverage:
    """Mean of the last ``window`` observations (partial-buffer mean before
    the window fills, so a forecast exists from the first point)."""

    def __init__(self, window: int):
        self.window = _check_int("window", window, 1)
        self._buf = deque(maxlen=min(window, sys.maxsize))  # a longer one never fills

    def update(self, x: float) -> float:
        self._buf.append(_check_finite(x))
        return self.forecast

    @property
    def forecast(self) -> float:
        if not self._buf:
            raise UnprimedError("forecast read before any observation")
        try:
            return math.fsum(self._buf) / len(self._buf)
        except OverflowError:  # the sum left the float range; the mean cannot
            scale = 2.0 ** len(self._buf).bit_length()  # a power of two above the length
            return math.fsum(x / scale for x in self._buf) / len(self._buf) * scale

    def __len__(self) -> int:
        return len(self._buf)


def smoothing_weights(alpha: float, k: int) -> list[float]:
    """Weights the smoother gives the k most recent observations, newest
    first: alpha, alpha*(1-alpha), ..., alpha*(1-alpha)**(k-1)."""
    _check_schedule(alpha, k)
    return [alpha * (1.0 - alpha) ** i for i in range(k)]


def initial_estimate_weights(alpha: float, k: int) -> list[tuple[float, float]]:
    """Rows (cumulative data weight, initial-estimate weight) after i = 1..k
    observations.  Each row sums to 1: the data carry 1 - (1-alpha)**i and
    the initial estimate keeps the remaining (1-alpha)**i."""
    _check_schedule(alpha, k)
    rows = []
    for i in range(1, k + 1):
        w0 = (1.0 - alpha) ** i
        rows.append((1.0 - w0, w0))
    return rows


def startup_weights(alpha: float, k: int) -> list[float]:
    """Weight the first observation carries after i = 1..k updates under the
    recursive-mean startup: 1, 1/2, ..., 1/n_a, then decaying as
    (1/n_a)*(1-alpha)**(i-n_a) once ongoing smoothing takes over."""
    _check_schedule(alpha, k)
    n_a = startup_length(alpha)
    out = []
    for i in range(1, k + 1):
        if i <= n_a:
            out.append(1.0 / i)
        else:
            out.append((1.0 / n_a) * (1.0 - alpha) ** (i - n_a))
    return out
