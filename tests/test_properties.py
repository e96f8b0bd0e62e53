"""Invariant tests: hypothesis-driven algebraic properties plus fixed-seed
corpus checks that exercise the integer/float twins side by side."""

import math
import random

from hypothesis import given
from hypothesis import strategies as st

from smoothgate import (
    ADMIT,
    DELAY,
    DENY,
    IN_PROGRESS,
    NEW_SESSION,
    CongestionGate,
    FloatSmoother,
    GatePolicy,
    IntSmoother,
    ManualClock,
    SingleExpSmoother,
    cdiv,
    clamp_observation,
    decide,
    smoothing_weights,
    startup_length,
)

from oracles import INT32_MAX, INT32_MIN, integer_trace, trunc_div

alphas = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


@given(alphas, st.integers(min_value=1, max_value=200))
def test_decay_weights_and_remainder_sum_to_one(alpha, k):
    total = math.fsum(smoothing_weights(alpha, k)) + (1.0 - alpha) ** k
    assert abs(total - 1.0) <= 1e-12


@given(alphas)
def test_startup_length_matches_the_real_floor(alpha):
    n_a = startup_length(alpha)
    assert n_a >= 1
    assert n_a <= 1.0 / alpha + 1e-6
    assert n_a + 1 > 1.0 / alpha - 1e-6


@given(
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_float_models_settle_on_constant_input(alpha, c):
    single = SingleExpSmoother(alpha)
    hybrid = FloatSmoother(alpha)
    for _ in range(startup_length(alpha) + 30):
        s = single.update(c)
        h = hybrid.update(c)
    assert math.isclose(s, c, rel_tol=1e-12, abs_tol=1e-9)
    assert math.isclose(h, c, rel_tol=1e-12, abs_tol=1e-9)
    assert abs(hybrid.trend()[1]) <= max(1e-9, abs(c) * 1e-12)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=-10**6, max_value=10**6))
def test_integer_smoother_settles_exactly_on_constant_input(n_alpha, c):
    sm = IntSmoother(n_alpha=n_alpha, clock=ManualClock(0))
    for _ in range(3 * n_alpha + 5):
        ft = sm.update(c)
    assert (sm.s1, sm.s2, ft) == (c, c, c)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_gate_verdict_is_monotone_in_the_forecast(threshold, forecast, step):
    policy = GatePolicy(threshold=threshold)
    if decide(policy, forecast, NEW_SESSION).verdict == ADMIT:
        assert decide(policy, forecast - step, NEW_SESSION).verdict == ADMIT
    else:
        assert decide(policy, forecast + step, NEW_SESSION).verdict != ADMIT


@given(st.integers(min_value=-2**40, max_value=2**40), st.integers(min_value=1, max_value=20))
def test_clamp_respects_the_int32_budget(x, n_alpha):
    clamped = clamp_observation(x, n_alpha)
    assert INT32_MIN <= clamped + (n_alpha - 1) * clamped <= INT32_MAX
    if INT32_MIN // n_alpha < x < INT32_MAX // n_alpha:
        assert clamped == x


@given(st.integers(min_value=-2**31, max_value=2**31), st.integers(min_value=1, max_value=1000))
def test_cdiv_equals_exact_rational_truncation(a, b):
    assert cdiv(a, b) == trunc_div(a, b)
    assert cdiv(a, -b) == trunc_div(a, -b)


def _corpus(rng, n_alpha, length):
    """Mixed-pedigree int sequence: wide randoms, clamp boundaries, extremes."""
    hi = cdiv(INT32_MAX, n_alpha)
    lo = cdiv(INT32_MIN, n_alpha)
    special = [INT32_MAX, INT32_MIN, hi, lo, hi - 1, lo + 1, -hi, 0, 1, -1]
    xs = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.25:
            xs.append(rng.choice(special))
        elif roll < 0.5:
            xs.append(rng.choice([lo, hi]))
        else:
            xs.append(rng.randint(INT32_MIN, INT32_MAX))
    return xs


def test_no_intermediate_leaves_int32_given_clamping():
    rng = random.Random(8080)
    for _ in range(400):
        n_alpha = rng.choice([1, 2, 3, 4, 5, 10, 16])
        xs = _corpus(rng, n_alpha, rng.randint(3, 50))
        for step in integer_trace(xs, n_alpha):
            for value in step["intermediates"]:
                assert INT32_MIN <= value <= INT32_MAX, (n_alpha, xs)


def test_integer_forecast_stays_near_the_float_twin():
    # Truncation loses under one unit per division; the measured gap stays
    # within n_alpha for n_alpha >= 3 and just over 2 for n_alpha == 2.
    rng = random.Random(2718)
    for _ in range(300):
        n_alpha = rng.choice([2, 3, 5, 10, 20])
        bound = n_alpha if n_alpha >= 3 else 3
        xs = [rng.randint(0, rng.choice([100, 10**4, 10**7]))
              for _ in range(rng.randint(5, 60))]
        ism = IntSmoother(n_alpha=n_alpha, clock=ManualClock(0))
        fsm = FloatSmoother(1.0 / n_alpha)
        for x in xs:
            assert abs(ism.update(x) - fsm.update(x)) <= bound


def test_moving_average_window_never_overfills():
    from smoothgate import MovingAverage

    m = MovingAverage(6)
    rng = random.Random(5)
    for i in range(40):
        m.update(rng.uniform(-10, 10))
        assert len(m) == min(i + 1, 6)


def test_library_matches_the_oracle_on_signed_streams_with_resets():
    # Drives the library itself (not only the oracle) through both branches
    # on negative values and clamp extremes, with event gaps landing on and
    # just past the reset interval.
    rng = random.Random(4242)
    for case in range(320):
        n_alpha = case % 16 + 1
        reset_interval = rng.randint(0, 8)
        xs = _corpus(rng, n_alpha, rng.randint(1, 80))
        xs = [x if rng.random() < 0.7 else rng.randint(-5_000, 5_000) for x in xs]
        times, now = [], rng.randint(0, 2 * reset_interval + 2)
        for _ in xs:
            times.append(now)
            now += rng.choice([0, 1, reset_interval, reset_interval, reset_interval,
                               reset_interval + 1])
        kinds = [rng.choice([NEW_SESSION, NEW_SESSION, IN_PROGRESS]) for _ in xs]
        policy = GatePolicy(threshold=rng.choice([1, 1_000, cdiv(INT32_MAX, n_alpha)]),
                            mode=rng.choice([DENY, DELAY]), delay_amount=rng.randint(0, 9))
        expected = integer_trace(xs, n_alpha, event_times=times,
                                 reset_interval=reset_interval)

        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=n_alpha, reset_interval=reset_interval, clock=clock)
        gclock = ManualClock(0)
        gate = CongestionGate(
            IntSmoother(n_alpha=n_alpha, reset_interval=reset_interval, clock=gclock),
            policy)
        for i, (x, when, kind, exp) in enumerate(zip(xs, times, kinds, expected)):
            where = (case, i, n_alpha, reset_interval)
            clock.now = gclock.now = when
            ft = sm.update(x)
            assert (sm.n, sm.s1, sm.s2, ft) == (exp["n"], exp["s1"], exp["s2"], exp["ft"]), where
            assert sm.forecast == exp["ft"], where
            assert sm.trend() == (2 * exp["s1"] - exp["s2"], exp["b"]), where
            d = gate.observe_and_decide(x, kind)
            g = gate.smoother
            assert (g.n, g.s1, g.s2, d.forecast_at_decision) == (sm.n, sm.s1, sm.s2, ft), where
            refused = kind == NEW_SESSION and exp["ft"] > policy.threshold
            assert d.verdict == (policy.mode if refused else ADMIT), where
            assert d.request_kind == kind, where
            assert d.retry_after == (policy.delay_amount if d.verdict == DELAY else None), where
        assert gate.stats.decisions == len(xs)
