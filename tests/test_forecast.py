import math
import random
import sys
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothgate import (
    DoubleExpSmoother,
    FloatSmoother,
    MovingAverage,
    SingleExpSmoother,
    UnprimedError,
    initial_estimate_weights,
    smoothing_weights,
    startup_length,
    startup_weights,
)

from oracles import expansion_sum, float_double_trace
from tables import FLOAT_TABLE, RAMP_BIAS_LIMIT


class TestSingleExpSmoother:
    def test_one_step_from_known_state(self):
        m = SingleExpSmoother(0.20, initial=100.0)
        assert m.update(200) == pytest.approx(120.00, abs=1e-12)

    def test_constant_input_is_a_fixed_point(self):
        m = SingleExpSmoother(0.20, initial=37.5)
        for _ in range(5):
            assert m.update(37.5) == pytest.approx(37.5, rel=1e-14)

    def test_matches_direct_expansion(self):
        rng = random.Random(20)
        xs = [rng.uniform(-500, 500) for _ in range(50)]
        m = SingleExpSmoother(0.10, initial=42.0)
        for x in xs:
            got = m.update(x)
        assert got == pytest.approx(expansion_sum(0.10, xs, 42.0), abs=1e-9)

    def test_seeds_from_first_observation(self):
        m = SingleExpSmoother(0.2)
        assert m.update(100) == 100.0
        assert m.update(100) == 100.0

    def test_rejects_bad_alpha_and_nonfinite_input(self):
        with pytest.raises(ValueError):
            SingleExpSmoother(0.0)
        with pytest.raises(ValueError):
            SingleExpSmoother(1.0)
        m = SingleExpSmoother(0.3)
        with pytest.raises(ValueError):
            m.update(float("nan"))

    def test_forecast_before_any_observation_raises(self):
        with pytest.raises(UnprimedError):
            SingleExpSmoother(0.3).forecast

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30),
    )
    def test_is_the_double_smoothers_level(self, alpha, initial, xs):
        single = SingleExpSmoother(alpha, initial)
        double = DoubleExpSmoother(alpha, initial)
        for x in xs:
            double.update(x)
            assert single.update(x) == double.s1 == single.forecast

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.one_of(st.none(), st.floats(min_value=-1e300, max_value=1e300)),
        st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=30),
    )
    def test_every_update_equals_the_oracles_level(self, alpha, initial, xs):
        m = SingleExpSmoother(alpha, initial)
        for x, exp in zip(xs, float_double_trace(xs, alpha, 1, initial=initial)):
            assert m.update(x) == exp["s1"]

    def test_an_alpha_whose_inverse_overflows_is_refused(self):
        # At such an alpha the level would never move from its seed.
        with pytest.raises(ValueError, match="^Invalid alpha = 1e-310, 1/alpha overflows"):
            SingleExpSmoother(1e-310)

    def test_a_negative_zero_first_observation_seeds_zero(self):
        assert math.copysign(1.0, SingleExpSmoother(0.2).update(-0.0)) == 1.0


class TestStartupPhase:
    def test_first_observation_is_the_forecast(self):
        m = FloatSmoother(0.10)
        assert m.update(571) == 571.0
        assert m.n == 1

    def test_startup_forecast_is_the_running_mean(self):
        m = FloatSmoother(0.10)
        xs = (571, 565, 564)
        for x in xs:
            got = m.update(x)
        assert got == pytest.approx(566.6666666666666, abs=1e-12)

    def test_constant_startup_stays_at_the_constant(self):
        m = FloatSmoother(0.25)
        for _ in range(startup_length(0.25)):
            assert m.update(8.25) == pytest.approx(8.25, rel=1e-15)


class TestDoubleExpSmoother:
    def test_ramp_response_matches_golden_values(self):
        m = DoubleExpSmoother(0.20)
        for row in FLOAT_TABLE:
            t, _, _, x_ramp, _, _, expected = row
            assert m.update(x_ramp) == pytest.approx(expected, abs=0.005), f"t={t}"

    def test_ramp_forecast_at_t6_and_t20(self):
        m = DoubleExpSmoother(0.20)
        vals = [m.update(10 * (t - 1)) for t in range(1, 21)]
        assert vals[5] == pytest.approx(40.34, abs=0.005)
        assert vals[19] == pytest.approx(197.12, abs=0.005)

    def test_converged_state_has_zero_slope(self):
        m = DoubleExpSmoother(0.3, initial=250.0)
        m.update(250.0)
        a, b = m.trend()
        assert a == pytest.approx(250.0, rel=1e-14)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert m.forecast == pytest.approx(250.0, rel=1e-14)

    def test_trend_value_is_level_plus_slope(self):
        m = DoubleExpSmoother(0.2, initial=0.0)
        for x in (10, 20, 30):
            m.update(x)
        a, b = m.trend()
        assert m.forecast == a + b


class TestFloatSmoother:
    def test_dispatch_switches_at_the_startup_boundary(self):
        m = FloatSmoother(0.20)
        assert m.n_alpha == 5
        means = [m.update(10 * (t - 1)) for t in range(1, 6)]
        assert means == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert m.n == 5
        # First trend-model step mirrors the integer twin's t=6 row.
        assert m.update(50) == pytest.approx(32.0, rel=1e-12)

    def test_second_statistic_seeded_at_handover(self):
        m = FloatSmoother(0.5)
        m.update(4.0)
        m.update(8.0)  # startup complete at n_alpha=2, s2 seeded with s1
        assert m.s2 == m.s1

    def test_forecast_property_tracks_last_update(self):
        m = FloatSmoother(0.2)
        with pytest.raises(UnprimedError):
            m.forecast
        with pytest.raises(UnprimedError):
            m.trend()
        m.update(10)
        assert m.forecast == 10.0

    def test_forecast_after_the_last_startup_step_is_the_returned_mean(self):
        # 2*s1 - s2 overflows here although the mean itself is finite.
        m = FloatSmoother(0.5)
        assert [m.update(1e308), m.update(1e308)] == [1e308, 1e308]
        assert m.n == m.n_alpha
        assert m.forecast == 1e308


class TestFiniteStatistics:
    """s1 and s2 stay finite for finite streams near the float range, and
    every value the plain recurrence keeps finite is unchanged."""

    ALPHAS = [0.1, 0.2, 0.25, 1 / 3, 0.5]
    BIG = sys.float_info.max

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_constant_extreme_stream(self, alpha, sign):
        # FloatSmoother(0.25) fed this stream used to return
        # max, max, inf, inf, nan: the running mean rounded past the range.
        m = FloatSmoother(alpha)
        x = sign * self.BIG
        for _ in range(3 * m.n_alpha + 5):
            m.update(x)
            assert m.s1 == pytest.approx(x, rel=1e-15)
            assert m.s2 == pytest.approx(x, rel=1e-15)
        assert not math.isnan(sum(m.trend()))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("fraction", [0.49, -0.49, 0.51, -0.51, 0.75, -0.75])
    def test_the_level_leaves_the_range_once_s1_passes_half_of_it(self, alpha, fraction):
        # 2.0*s1 overflows although s1, s2 and the exact 2*s1 - s2 are finite.
        m = FloatSmoother(alpha)
        x = fraction * self.BIG
        for _ in range(m.n_alpha + 3):
            got = m.update(x)
        level, slope = m.trend()
        assert math.isfinite(m.s1) and math.isfinite(m.s2) and math.isfinite(slope)
        finite = abs(m.s1) <= self.BIG / 2
        assert finite == (abs(fraction) < 0.5)
        assert math.isfinite(level) == math.isfinite(got) == finite
        assert m.forecast == got

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("startup", ["float", "double"])
    def test_statistics_stay_finite_and_match_the_oracle_until_it_overflows(
            self, alpha, startup):
        rng = random.Random(f"finite-{alpha}-{startup}")
        big = self.BIG
        for _ in range(200):
            xs = [rng.choice([big, -big, big / 2, 1e308, -1e308, 0.0,
                              rng.uniform(-1.0, 1.0) * big, rng.uniform(0.9, 1.0) * big])
                  for _ in range(rng.randint(1, 30))]
            if startup == "float":
                m, n_alpha = FloatSmoother(alpha), startup_length(alpha)
            else:
                m, n_alpha = DoubleExpSmoother(alpha), 1
            oracle_finite = True
            for x, exp in zip(xs, float_double_trace(xs, alpha, n_alpha)):
                got = m.update(x)
                assert math.isfinite(m.s1) and math.isfinite(m.s2), (alpha, xs)
                oracle_finite = (oracle_finite and math.isfinite(exp["s1"])
                                 and math.isfinite(exp["s2"]))
                if oracle_finite:
                    a, b = m.trend()
                    assert [v.hex() for v in (got, m.s1, m.s2, a, b)] == [
                        exp[k].hex() for k in ("forecast", "s1", "s2", "a", "b")
                    ], (alpha, xs)


class TestStraightLineOracle:
    @staticmethod
    def _stream(rng):
        xs = []
        for _ in range(rng.randint(1, 40)):
            roll = rng.random()
            if roll < 0.2:
                xs.append(rng.choice([0.0, -0.0]))
            elif roll < 0.4:
                xs.append(rng.randint(-1000, 1000))
            else:
                xs.append(rng.uniform(-1e6, 1e6))
        return xs

    @pytest.mark.parametrize("kind", ["float", "double", "double_initial"])
    def test_every_update_equals_the_oracle(self, kind):
        rng = random.Random(f"oracle-{kind}")
        for _ in range(300):
            alpha = rng.choice([rng.uniform(0.01, 0.99), 0.1, 0.2, 0.5, 0.6])
            xs = self._stream(rng)
            if kind == "float":
                m = FloatSmoother(alpha)
                expected = float_double_trace(xs, alpha, startup_length(alpha))
            elif kind == "double":
                m = DoubleExpSmoother(alpha)
                expected = float_double_trace(xs, alpha, 1)
            else:
                initial = rng.choice([0.0, -0.0, rng.uniform(-1e3, 1e3)])
                m = DoubleExpSmoother(alpha, initial=initial)
                expected = float_double_trace(xs, alpha, 1, initial=initial)
            for x, exp in zip(xs, expected):
                got = m.update(x)
                a, b = m.trend()
                assert (got, m.s1, m.s2, a, b) == (
                    exp["forecast"], exp["s1"], exp["s2"], exp["a"], exp["b"]
                ), (alpha, xs)
                assert m.forecast == got, (alpha, xs)


class TestObservationTypes:
    MODELS = {
        "single": lambda: SingleExpSmoother(0.2),
        "double": lambda: DoubleExpSmoother(0.2),
        "float": lambda: FloatSmoother(0.2),
        "ma": lambda: MovingAverage(3),
    }

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("x", ["7", True, False])
    def test_str_and_bool_are_refused(self, model, x):
        m = self.MODELS[model]()
        with pytest.raises(TypeError):
            m.update(x)
        with pytest.raises(UnprimedError):
            m.forecast  # the rejected value left no trace

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("x", [7, 7.0])
    def test_int_and_float_are_accepted(self, model, x):
        assert self.MODELS[model]().update(x) == 7.0


class TestInitialEstimate:
    SEEDED = {
        "single": SingleExpSmoother,
        "double": DoubleExpSmoother,
    }

    @pytest.mark.parametrize("model", SEEDED)
    @pytest.mark.parametrize("initial", ["7", True, False])
    def test_str_and_bool_are_refused(self, model, initial):
        with pytest.raises(TypeError, match="initial must be a real number"):
            self.SEEDED[model](0.2, initial=initial)

    @pytest.mark.parametrize("model", SEEDED)
    @pytest.mark.parametrize("initial", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_is_refused(self, model, initial):
        with pytest.raises(ValueError, match="initial must be finite"):
            self.SEEDED[model](0.2, initial=initial)

    @pytest.mark.parametrize("model", SEEDED)
    @pytest.mark.parametrize("initial", [7, 7.0, 1e308, -1e308])
    def test_int_and_float_are_the_forecast_before_any_update(self, model, initial):
        # 2*s1 - s2 would overflow for the two largest estimates.
        forecast = self.SEEDED[model](0.2, initial=initial).forecast
        assert forecast == initial and type(forecast) is float


_MAX = sys.float_info.max


class TestMovingAverage:
    def test_full_window_weights_are_uniform(self):
        m = MovingAverage(20)
        xs = list(range(1, 21))
        for x in xs:
            got = m.update(x)
        assert got == pytest.approx(sum(xs) / 20, rel=1e-15)

    def test_window_one_returns_the_latest_observation(self):
        m = MovingAverage(1)
        for x in (3, 9, -4):
            assert m.update(x) == x

    def test_window_five_over_one_to_ten(self):
        m = MovingAverage(5)
        for x in range(1, 11):
            got = m.update(x)
        assert got == pytest.approx(8.0)

    def test_partial_window_mean_before_fill(self):
        m = MovingAverage(4)
        assert m.update(10) == 10.0
        assert m.update(20) == 15.0

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            MovingAverage(0)

    @pytest.mark.parametrize("window", [True, 3.0, 2.5, "3"])
    def test_rejects_a_non_int_window(self, window):
        with pytest.raises(TypeError, match=f"^window must be an int, got {type(window).__name__}$"):
            MovingAverage(window)

    @pytest.mark.parametrize("window,xs,mean", [
        (3, (_MAX, _MAX, -_MAX), _MAX / 3),
        (3, (_MAX, _MAX, _MAX), _MAX),
        (4, (1.0,) + (-_MAX,) * 4, -_MAX),
        (5, (_MAX, _MAX, 1e308, -_MAX, 3.0), _MAX / 5 + 1e308 / 5),
    ])
    def test_a_finite_mean_whose_sum_overflows(self, window, xs, mean):
        m = MovingAverage(window)
        for x in xs:
            got = m.update(x)
        assert math.isfinite(got)
        assert got == pytest.approx(mean, rel=1e-15)

    def test_a_window_past_the_largest_deque_averages_all_seen(self):
        # 2**63 is past sys.maxsize, deque's largest maxlen; such a window
        # never fills, so it averages every observation, as a long one does.
        huge, long = MovingAverage(2**63), MovingAverage(10**6)
        assert huge.window == 2**63
        for x in (3, -8, 1e300, 7.5, 2):
            assert huge.update(x) == long.update(x)
        assert len(huge) == 5

    def test_a_sum_inside_the_float_range_keeps_the_plain_mean(self):
        rng = random.Random(5)
        for window in (1, 2, 3, 7, 20):
            m = MovingAverage(window)
            last = deque(maxlen=window)
            for _ in range(200):
                last.append(rng.choice([rng.uniform(-1, 1) * 1e307, rng.uniform(-9, 9)]))
                assert m.update(last[-1]) == math.fsum(last) / len(last)


class TestRampBias:
    def test_single_smoother_lags_a_ramp_by_the_known_limit(self):
        m = SingleExpSmoother(0.20)
        gap = None
        for t in range(1, 201):
            x = 10 * (t - 1)
            gap = x - m.update(x)
        assert gap == pytest.approx(RAMP_BIAS_LIMIT, abs=1e-6)

    def test_lag_at_t20_matches_the_golden_value(self):
        m = SingleExpSmoother(0.20)
        for t in range(1, 21):
            x = 10 * (t - 1)
            forecast = m.update(x)
        assert x - forecast == pytest.approx(39.42, abs=0.005)

    def test_double_smoother_closes_the_gap(self):
        # One-step-ahead error vs the next ramp point shrinks monotonically
        # once the effective startup span (floor(1/alpha) points) has passed,
        # and is under 3.0 by t=20.
        xs = [10 * (t - 1) for t in range(1, 22)]
        m = DoubleExpSmoother(0.20)
        gaps = []
        for t in range(1, 21):
            f = m.update(xs[t - 1])
            gaps.append(abs(f - xs[t]))
        after = gaps[4:]
        assert all(a > b for a, b in zip(after, after[1:]))
        assert after[-1] < 3.0


class TestWeightSchedules:
    def test_decay_weights_match_golden_rows(self):
        w = smoothing_weights(0.10, 20)
        assert w[0] == pytest.approx(0.100000, abs=5e-7)
        assert w[19] == pytest.approx(0.013509, abs=5e-7)
        assert math.fsum(w) == pytest.approx(0.878423, abs=5e-7)

    def test_first_weight_is_alpha(self):
        assert smoothing_weights(0.5, 1) == [0.5]

    def test_initial_estimate_split_rows(self):
        rows = initial_estimate_weights(0.10, 20)
        assert rows[6] == (pytest.approx(0.521703, abs=5e-7), pytest.approx(0.478297, abs=5e-7))
        assert rows[9][1] == pytest.approx(0.348678, abs=5e-7)
        assert rows[19] == (pytest.approx(0.878423, abs=5e-7), pytest.approx(0.121577, abs=5e-7))

    def test_initial_estimate_rows_sum_to_one_exactly(self):
        for data_w, init_w in initial_estimate_weights(0.10, 40):
            assert data_w + init_w == 1.0

    def test_before_any_data_the_initial_estimate_carries_everything(self):
        # The i -> 0 limit of the split is (0, 1); after one observation the
        # initial estimate has been discounted exactly once.
        assert initial_estimate_weights(0.10, 1)[0] == (pytest.approx(0.1), pytest.approx(0.9))

    def test_startup_weights_flat_then_decaying(self):
        w = startup_weights(0.10, 20)
        assert w[0] == 1.0
        assert w[1] == 0.5
        assert w[9] == pytest.approx(0.100000, abs=5e-7)
        assert w[10] == pytest.approx(0.090000, abs=5e-7)
        assert w[19] == pytest.approx(0.034868, abs=5e-7)

    def test_rejects_out_of_range_alpha(self):
        for fn in (smoothing_weights, initial_estimate_weights, startup_weights):
            with pytest.raises(ValueError):
                fn(1.5, 10)
            with pytest.raises(ValueError):
                fn(0.1, 0)

    @pytest.mark.parametrize("fn", [smoothing_weights, initial_estimate_weights, startup_weights])
    @pytest.mark.parametrize("rows", [True, 2.0, 2.5, "2"])
    def test_rejects_a_non_int_row_count(self, fn, rows):
        with pytest.raises(TypeError, match=f"^rows must be an int, got {type(rows).__name__}$"):
            fn(0.1, rows)


class TestStartupLength:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.10, 10), (0.20, 5), (0.25, 4), (0.50, 2), (0.30, 3), (0.34, 2), (1 / 3, 3)],
    )
    def test_integer_inverse(self, alpha, expected):
        assert startup_length(alpha) == expected

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    def test_an_alpha_whose_inverse_overflows_is_refused(self, alpha):
        with pytest.raises(ValueError, match=f"^Invalid alpha = {alpha}, 1/alpha overflows"):
            startup_length(alpha)
