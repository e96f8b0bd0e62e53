"""Response-time forecasting and admission control via exponential smoothing.

The package pairs a kernel-safe integer forecaster (recursive-mean startup,
double smoothing, idle reset) with its floating-point reference models, a
latency-threshold admission gate, and a workload simulator that exercises
the loop under step, ramp, burst, and pause/resume traffic.
"""

from . import errors, forecast, gate, intsmooth, sim
from .errors import *  # noqa: F401,F403
from .forecast import *  # noqa: F401,F403
from .gate import *  # noqa: F401,F403
from .intsmooth import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name for module in (errors, forecast, intsmooth, gate, sim) for name in module.__all__
]
