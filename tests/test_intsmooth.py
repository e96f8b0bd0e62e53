import re
from pathlib import Path

import pytest

from smoothgate import (
    INT32_MAX,
    INT32_MIN,
    IntSmoother,
    ManualClock,
    UnprimedError,
    cdiv,
    clamp_observation,
)

from tables import CANONICAL_TRACE, CANONICAL_VALUES, RESET_TRACE


def drive(values, n_alpha, *, times=None, reset_interval=5):
    """Feed values through a smoother, returning full rows like the tables."""
    clock = ManualClock(0)
    sm = IntSmoother(n_alpha=n_alpha, reset_interval=reset_interval, clock=clock)
    rows = []
    for t, x in enumerate(values, start=1):
        if times is not None:
            clock.now = times[t - 1]
        ft = sm.update(x)
        a, b = sm.trend()
        rows.append((t, x, ft, sm.n, sm.s1, sm.s2, a, b))
    return rows, sm


class TestCdiv:
    def test_truncates_toward_zero(self):
        assert cdiv(13, 9) == 1
        assert cdiv(-13, 9) == -1
        assert cdiv(-10, 9) == -1  # floor division would give -2
        assert cdiv(10, -9) == -1
        assert cdiv(-10, -9) == 1

    def test_exact_quotients(self):
        assert cdiv(-9, 9) == -1
        assert cdiv(0, 7) == 0

    @pytest.mark.parametrize("a", [0, 7, -7])
    def test_division_by_zero_raises(self, a):
        with pytest.raises(ZeroDivisionError):
            cdiv(a, 0)


class TestClamp:
    def test_saturates_at_the_int32_fraction(self):
        assert clamp_observation(INT32_MAX, 10) == 214748364
        assert clamp_observation(INT32_MIN, 10) == -214748364

    def test_in_range_passthrough(self):
        assert clamp_observation(571, 10) == 571
        assert clamp_observation(-571, 10) == -571

    def test_rejects_bad_n_alpha(self):
        with pytest.raises(ValueError):
            clamp_observation(1, 0)


class TestCanonicalTrace:
    def test_all_rows_exact(self):
        rows, _ = drive(CANONICAL_VALUES, n_alpha=10)
        assert rows == CANONICAL_TRACE

    def test_final_forecast_readable_after_the_run(self):
        _, sm = drive(CANONICAL_VALUES, n_alpha=10)
        assert sm.forecast == 609

    def test_slope_at_t24_is_positive_one(self):
        # s1=598, s2=585 there, so the slope is (598-585)/9 truncated = +1
        # and the forecast 612 = 611 + 1 confirms it.
        rows, _ = drive(CANONICAL_VALUES[:24], n_alpha=10)
        t, x, ft, n, s1, s2, a, b = rows[-1]
        assert (s1, s2, a, b, ft) == (598, 585, 611, 1, 612)


class TestResetTrace:
    def test_all_rows_exact(self):
        values = [10 * (t - 1) for t in range(1, 26)]
        # Events one second apart, with a six-second idle gap between
        # events 11 and 12 against a five-second reset interval.
        times = [t - 1 + (6 - 1 if t >= 12 else 0) for t in range(1, 26)]
        rows, _ = drive(values, n_alpha=5, times=times, reset_interval=5)
        assert rows == RESET_TRACE

    def test_first_observation_after_reset_is_the_forecast(self):
        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=5, reset_interval=5, clock=clock)
        for x in (100, 120, 140):
            sm.update(x)
        clock.advance(6)
        assert sm.update(777) == 777
        assert sm.n == 1

    def test_pause_of_exactly_the_interval_does_not_reset(self):
        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=5, reset_interval=5, clock=clock)
        sm.update(100)
        sm.update(100)
        clock.advance(5)
        sm.update(100)
        assert sm.n == 3

    def test_subsecond_gaps_never_reset(self):
        # Whole-second timestamps: the clock only moves in integer steps, so
        # an unchanged second means zero elapsed time.
        clock = ManualClock(7)
        sm = IntSmoother(n_alpha=3, reset_interval=0, clock=clock)
        sm.update(10)
        sm.update(12)
        assert sm.n == 2

    def test_a_float_clock_is_read_as_its_int(self):
        # int() of the readings is 100 and 105, a pause of exactly the
        # interval; the raw readings are 5.09 apart and would reset.
        readings = iter([100.9, 105.99])
        sm = IntSmoother(n_alpha=5, reset_interval=5, clock=lambda: next(readings))
        sm.update(100)
        sm.update(100)
        assert sm.n == 2
        assert sm.last_update == 105 and type(sm.last_update) is int

    @pytest.mark.parametrize("later,n", [(55, 3), (56, 1)])
    def test_a_clock_that_steps_back_never_resets(self, later, n):
        # Stepping back is a negative elapsed time, not a pause; the next
        # elapsed time is measured from the earlier reading, as in C.
        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=3, reset_interval=5, clock=clock)
        for now in (100, 101, 102, 50):
            clock.now = now
            sm.update(10)
        assert sm.n == 3
        clock.now = later
        sm.update(10)
        assert sm.n == n


class TestStartupRegion:
    def test_statistics_collapse_during_startup(self):
        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=7, reset_interval=5, clock=clock)
        for x in (40, 55, 13, 88, 21, 60, 35):
            ft = sm.update(x)
            assert sm.s2 == sm.s1 == ft

    def test_single_update_reports_the_observation(self):
        sm = IntSmoother(clock=ManualClock(0))
        assert sm.update(42) == 42
        assert sm.forecast == 42


class TestConstantInput:
    @pytest.mark.parametrize("n_alpha", [1, 2, 5, 10])
    def test_converges_exactly_and_stays(self, n_alpha):
        sm = IntSmoother(n_alpha=n_alpha, clock=ManualClock(0))
        for _ in range(3 * n_alpha):
            ft = sm.update(250)
        assert (sm.s1, sm.s2, ft) == (250, 250, 250)


class TestDegenerateNAlpha:
    def test_n_alpha_one_tracks_the_observation(self):
        sm = IntSmoother(n_alpha=1, clock=ManualClock(0))
        for x in (5, 99, -3, 1234):
            assert sm.update(x) == x


class TestContracts:
    def test_forecast_before_any_update_raises(self):
        sm = IntSmoother(clock=ManualClock(0))
        with pytest.raises(UnprimedError):
            sm.forecast
        with pytest.raises(UnprimedError):
            sm.trend()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IntSmoother(n_alpha=0)
        with pytest.raises(ValueError):
            IntSmoother(reset_interval=-1)

    @pytest.mark.parametrize("field", ["n_alpha", "reset_interval"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "4", True, None])
    def test_constructor_rejects_non_int_parameters(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {type(value).__name__}$"):
            IntSmoother(**{field: value}, clock=ManualClock(0))

    @pytest.mark.parametrize("value", ["7", 1.9, 0.5, True])
    def test_manual_clock_rejects_non_int_times(self, value):
        with pytest.raises(TypeError, match=f"^start must be an int, got {type(value).__name__}$"):
            ManualClock(value)
        clock = ManualClock(3)
        with pytest.raises(TypeError, match=f"^seconds must be an int, got {type(value).__name__}$"):
            clock.advance(value)
        assert clock.now == 3

    @pytest.mark.parametrize("x", ["5", 3.9, 5.0, True, False, None])
    def test_update_rejects_non_int_observations(self, x):
        sm = IntSmoother(clock=ManualClock(0))
        with pytest.raises(TypeError):
            sm.update(x)
        with pytest.raises(UnprimedError):
            sm.forecast  # the rejected value left no trace
        assert (sm.n, sm.s1, sm.s2) == (0, 0, 0)

    def test_fields_stay_inside_int32_at_the_boundaries(self):
        sm = IntSmoother(n_alpha=10, clock=ManualClock(0))
        for x in (INT32_MAX, INT32_MIN, INT32_MAX, INT32_MAX):
            sm.update(x)
            for field in (sm.s1, sm.s2, sm.forecast):
                assert INT32_MIN <= field <= INT32_MAX


class TestCrossCheckWithCOracle:
    def test_random_sequences_match_the_compiled_reference(self, c_oracle, tmp_path):
        import random
        import subprocess

        rng = random.Random(314)
        for case in range(25):
            n_alpha = rng.choice([1, 2, 3, 5, 10])
            xs = [rng.randint(0, 2_000_000) for _ in range(rng.randint(1, 40))]
            path = tmp_path / f"case_{case}.txt"
            path.write_text("".join(f"{i} {x}\n" for i, x in enumerate(xs, 1)))
            proc = subprocess.run(
                [str(c_oracle), "-n", str(n_alpha), str(path)],
                capture_output=True, text=True, check=True,
            )
            got = [
                int(line.split()[2])
                for line in proc.stdout.splitlines()
                if line and line.lstrip()[0].isdigit()
            ]
            sm = IntSmoother(n_alpha=n_alpha, clock=ManualClock(0))
            assert got == [sm.update(x) for x in xs], f"case {case} n_alpha={n_alpha}"


class TestDefaults:
    """The library's defaults are the C reference's."""

    C_SOURCE = (Path(__file__).parent / "reference" / "time_series_smooth.c").read_text()

    def c_define(self, name: str) -> int:
        return int(re.search(rf"^#define {name} (\d+)$", self.C_SOURCE, re.M).group(1))

    def test_smoother_defaults_are_n_alpha_and_reset_time_of_the_c_program(self):
        sm = IntSmoother()
        assert sm.n_alpha == self.c_define("N_ALPHA")
        assert sm.reset_interval == self.c_define("RESET_TIME")

    def test_manual_clock_starts_at_zero(self):
        clock = ManualClock()
        assert clock() == clock.now == 0
