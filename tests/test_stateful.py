"""A stateful model of the integer loop: one IntSmoother and one
CongestionGate on a ManualClock, driven one operation at a time.

After every rule the live objects are compared with the straight-line
oracle over the history so far, and the gate's stats with a pure count of
the verdicts the policy gives the oracle's forecasts."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from smoothgate import (
    ADMIT,
    DELAY,
    DENY,
    IN_PROGRESS,
    NEW_SESSION,
    CongestionGate,
    GatePolicy,
    IntSmoother,
    ManualClock,
    UnprimedError,
)

from oracles import INT32_MAX, INT32_MIN, integer_trace, trunc_div

# Observations well inside, at and past the clamp bounds of any n_alpha.
observations = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=INT32_MIN - 2**40, max_value=INT32_MAX + 2**40),
)


class LoopMachine(RuleBasedStateMachine):
    @initialize(
        n_alpha=st.integers(min_value=1, max_value=12),
        reset_interval=st.integers(min_value=0, max_value=10),
        threshold=st.integers(min_value=1, max_value=1000),
        mode=st.sampled_from([DENY, DELAY]),
        delay_amount=st.integers(min_value=0, max_value=5),
    )
    def build(self, n_alpha, reset_interval, threshold, mode, delay_amount):
        self.clock = ManualClock(0)
        self.smoother = IntSmoother(n_alpha, reset_interval, self.clock)
        self.policy = GatePolicy(threshold, mode, delay_amount)
        self.gate = CongestionGate(self.smoother, self.policy)
        self.xs, self.times = [], []
        self.counts = {ADMIT: 0, DENY: 0, DELAY: 0}

    def expected(self):
        """The oracle's last row, or None before the first update."""
        if not self.xs:
            return None
        return integer_trace(self.xs, self.smoother.n_alpha, event_times=self.times,
                             reset_interval=self.smoother.reset_interval)[-1]

    def absorbed(self, x):
        self.xs.append(x)
        self.times.append(self.clock.now)

    @rule(x=observations)
    def update(self, x):
        self.absorbed(x)
        assert self.smoother.update(x) == self.expected()["ft"]

    @rule(side=st.sampled_from([INT32_MIN, INT32_MAX]), offset=st.integers(-1, 1))
    def update_at_a_clamp_bound(self, side, offset):
        self.update(trunc_div(side, self.smoother.n_alpha) + offset)

    @rule(seconds=st.integers(min_value=-20, max_value=20))
    def step_the_clock(self, seconds):
        self.clock.advance(seconds)

    @rule(extra=st.sampled_from([0, 1]))
    def step_to_the_reset_edge(self, extra):
        # reset_interval seconds after the last update keeps the state; one more resets it.
        last = self.times[-1] if self.times else 0
        self.clock.advance(last + self.smoother.reset_interval + extra - self.clock.now)

    @rule(x=observations, kind=st.sampled_from([NEW_SESSION, IN_PROGRESS]))
    def observe_and_decide(self, x, kind):
        decision = self.gate.observe_and_decide(x, kind)
        self.absorbed(x)
        forecast = self.expected()["ft"]
        verdict, retry_after = ADMIT, None
        if kind == NEW_SESSION and forecast > self.policy.threshold:
            verdict = self.policy.mode
            if verdict == DELAY:
                retry_after = self.policy.delay_amount
        assert decision == (verdict, forecast, kind, retry_after)
        self.counts[verdict] += 1

    @rule(x=observations, kind=st.sampled_from(["", "new-session", "IN_PROGRESS", None]))
    def observe_and_decide_a_bad_kind(self, x, kind):
        before = vars(self.smoother).copy()
        with pytest.raises(ValueError, match="unknown request kind"):
            self.gate.observe_and_decide(x, kind)
        assert vars(self.smoother) == before

    @invariant()
    def matches_the_oracle(self):
        # Reads forecast, trend() and the stats after every rule.
        exp = self.expected()
        sm = self.smoother
        if exp is None:
            assert (sm.n, sm.s1, sm.s2) == (0, 0, 0)
            with pytest.raises(UnprimedError):
                sm.forecast
            with pytest.raises(UnprimedError):
                sm.trend()
        else:
            assert (sm.n, sm.s1, sm.s2, sm.forecast) == (exp["n"], exp["s1"], exp["s2"], exp["ft"])
            assert sm.trend() == (2 * exp["s1"] - exp["s2"], exp["b"])
        stats = self.gate.stats
        assert (stats.admitted, stats.denied, stats.delayed) == (
            self.counts[ADMIT], self.counts[DENY], self.counts[DELAY])
        assert stats.decisions == sum(self.counts.values())


LoopMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestLoop = LoopMachine.TestCase
