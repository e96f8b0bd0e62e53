"""Latency-threshold admission control driven by a smoothed forecast.

New session requests are denied (or delayed) while the forecast response
time sits above the overload threshold; work already in progress is always
allowed to finish.

Decisions are immutable named tuples: they compare, hash and unpack like
``(verdict, forecast_at_decision, request_kind, retry_after)``.
"""

from typing import NamedTuple

from .errors import _check_int

__all__ = [
    "NEW_SESSION",
    "IN_PROGRESS",
    "ADMIT",
    "DENY",
    "DELAY",
    "GatePolicy",
    "GateDecision",
    "GateStats",
    "decide",
    "CongestionGate",
]

NEW_SESSION = "new_session"
IN_PROGRESS = "in_progress"
_REQUEST_KINDS = (NEW_SESSION, IN_PROGRESS)

ADMIT = "admit"
DENY = "deny"
DELAY = "delay"


class _Fields:
    """Equality and repr over the fields named in ``__match_args__``, as a
    dataclass has them.  The gate and ``sim`` do without ``dataclasses``, whose
    import loads ``inspect``, ``ast`` and ``dis``: most of the gate's import time."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Fields):
    """_Fields that cannot be assigned or deleted, hashed by their values."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GatePolicy(_Frozen):
    """Overload threshold plus what happens to new sessions that exceed it.

    The threshold shares units with the observations fed to the smoother;
    nothing converts between units here.  ``delay_amount`` is returned to
    the caller in delay mode.  Immutable and hashable.
    """

    __match_args__ = ("threshold", "mode", "delay_amount")

    def __init__(self, threshold: int, mode: str = DENY, delay_amount: int = 0):
        _check_int("threshold", threshold, 1)
        if mode not in (DENY, DELAY):
            raise ValueError(f"mode must be {DENY!r} or {DELAY!r}, got {mode!r}")
        _check_int("delay_amount", delay_amount, 0)
        self.__dict__.update(threshold=threshold, mode=mode, delay_amount=delay_amount)


class GateDecision(NamedTuple):
    """One admission verdict and the forecast it was judged on."""

    verdict: str
    forecast_at_decision: int
    request_kind: str
    retry_after: int | None = None  # set only on delay verdicts

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMIT


# tuple.__new__ builds the same GateDecision without the Python-level
# __new__ that the named tuple's constructor runs.
_new_tuple = tuple.__new__


def decide(policy: GatePolicy, forecast: int, request_kind: str = NEW_SESSION) -> GateDecision:
    """Pure admission verdict for one request.

    In-progress requests always pass.  A new session passes unless the
    forecast strictly exceeds the threshold (equality admits); over the
    threshold the policy's mode picks deny or delay.
    """
    # One comparison settles a new session's kind, two an in-progress one's.
    if request_kind == NEW_SESSION:
        if forecast > policy.threshold:
            if policy.mode == DELAY:
                return _new_tuple(GateDecision,
                                  (DELAY, forecast, request_kind, policy.delay_amount))
            return _new_tuple(GateDecision, (DENY, forecast, request_kind, None))
    elif request_kind != IN_PROGRESS:
        raise ValueError(f"unknown request kind {request_kind!r}")
    return _new_tuple(GateDecision, (ADMIT, forecast, request_kind, None))


class GateStats(_Fields):
    """Verdict counts; mutable, so compared by value but not hashable."""

    __match_args__ = ("admitted", "denied", "delayed")
    __hash__ = None

    def __init__(self, admitted: int = 0, denied: int = 0, delayed: int = 0):
        self.admitted = admitted
        self.denied = denied
        self.delayed = delayed

    @property
    def decisions(self) -> int:
        return self.admitted + self.denied + self.delayed

    def record(self, decision: GateDecision) -> None:
        if decision.verdict == ADMIT:
            self.admitted += 1
        elif decision.verdict == DENY:
            self.denied += 1
        else:
            self.delayed += 1

    def summary(self) -> str:
        return (
            f"admitted={self.admitted} denied={self.denied} "
            f"delayed={self.delayed} decisions={self.decisions}"
        )


class CongestionGate:
    """Admission gate bound to a live smoother.

    Each offered event carries the latency measured for a completed
    transaction; the smoother absorbs it and the fresh forecast is compared
    against the policy.  Inherits the smoother's single-writer contract.
    """

    def __init__(self, smoother, policy: GatePolicy):
        self.smoother = smoother
        self.policy = policy
        self.stats = GateStats()

    def observe_and_decide(self, x: int, request_kind: str = NEW_SESSION) -> GateDecision:
        """Advance the smoother by one observation, then rule on the request.

        An unknown request kind raises ValueError before the smoother moves.
        """
        if request_kind not in _REQUEST_KINDS:
            raise ValueError(f"unknown request kind {request_kind!r}")
        forecast = self.smoother.update(x)
        decision = decide(self.policy, forecast, request_kind)
        self.stats.record(decision)
        return decision
