"""Response-time forecasting and admission control via exponential smoothing.

The package pairs a kernel-safe integer forecaster (recursive-mean startup,
double smoothing, idle reset) with its floating-point reference models, a
latency-threshold admission gate, and a workload simulator that exercises
the loop under step, ramp, burst, and pause/resume traffic.

The public names are the submodules' ``__all__``, loaded on first use
(PEP 562): ``from smoothgate import CongestionGate`` runs only ``errors``,
``intsmooth`` and ``gate``.
"""

import importlib

__version__ = "0.1.0"

# Lightest module first, so looking up a gate name never loads forecast or sim.
_SUBMODULES = ("errors", "intsmooth", "gate", "forecast", "sim")


def _public_names() -> list:
    return [name for module in _SUBMODULES
            for name in importlib.import_module(f"{__name__}.{module}").__all__]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = _public_names()
    elif name.startswith("_"):  # no public name does; probes such as __wrapped__ load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for module in _SUBMODULES:
            module = importlib.import_module(f"{__name__}.{module}")
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_SUBMODULES, *_public_names()})
