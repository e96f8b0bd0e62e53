import inspect
import re
from pathlib import Path

import pytest

from smoothgate import (
    ADMIT,
    DELAY,
    DENY,
    IN_PROGRESS,
    NEW_SESSION,
    CongestionGate,
    FloatSmoother,
    GateDecision,
    GatePolicy,
    GateStats,
    IntSmoother,
    ManualClock,
    decide,
)

from tables import CANONICAL_TRACE, CANONICAL_VALUES

README = Path(__file__).resolve().parent.parent / "README.md"
REACTION_HEADER = (
    "| `n_alpha` | Refuses after (T = 400 / 600 / 800) "
    "| Admits again after (T = 400 / 600 / 800) | Peak forecast (float twin) | Trough |"
)


@pytest.fixture
def policy():
    return GatePolicy(threshold=600)


class TestDecide:
    def test_over_threshold_denies_new_sessions(self, policy):
        d = decide(policy, 612, NEW_SESSION)
        assert d.verdict == DENY
        assert d.forecast_at_decision == 612
        assert not d.admitted

    def test_under_threshold_admits(self, policy):
        assert decide(policy, 599, NEW_SESSION).verdict == ADMIT

    def test_exactly_at_threshold_admits(self, policy):
        assert decide(policy, 600, NEW_SESSION).verdict == ADMIT

    def test_in_progress_always_admits(self, policy):
        for forecast in (0, 600, 601, 10**9):
            d = decide(policy, forecast, IN_PROGRESS)
            assert d.verdict == ADMIT

    def test_delay_mode_returns_the_retry_amount(self):
        p = GatePolicy(threshold=100, mode=DELAY, delay_amount=250)
        d = decide(p, 150, NEW_SESSION)
        assert d.verdict == DELAY
        assert d.retry_after == 250

    def test_repeated_identical_calls_agree(self, policy):
        first = decide(policy, 612, NEW_SESSION)
        for _ in range(10):
            assert decide(policy, 612, NEW_SESSION) == first

    def test_monotone_in_the_forecast(self, policy):
        verdicts = [decide(policy, f, NEW_SESSION).admitted for f in range(590, 611)]
        # Once a forecast is rejected, every larger forecast is rejected too.
        assert verdicts == sorted(verdicts, reverse=True)

    def test_unknown_request_kind_rejected(self, policy):
        with pytest.raises(ValueError):
            decide(policy, 100, "batch")

    @pytest.mark.parametrize("kind", [NEW_SESSION, IN_PROGRESS])
    @pytest.mark.parametrize("policy", [GatePolicy(600), GatePolicy(600, DELAY, 7)])
    def test_a_kind_built_at_run_time_is_judged_as_the_constant(self, policy, kind):
        built = "".join(list(kind))
        assert built == kind and built is not kind
        for forecast in (599, 600, 601):
            assert decide(policy, forecast, built) == decide(policy, forecast, kind)

    @pytest.mark.parametrize("kind", [None, b"new_session", "NEW_SESSION"])
    @pytest.mark.parametrize("forecast", [599, 601])
    def test_a_kind_that_only_resembles_one_is_refused(self, policy, kind, forecast):
        with pytest.raises(ValueError, match=f"^unknown request kind {re.escape(repr(kind))}$"):
            decide(policy, forecast, kind)


class TestGateDecisionValue:
    def test_fields_cannot_be_assigned(self, policy):
        d = decide(policy, 612, NEW_SESSION)
        with pytest.raises(AttributeError):
            d.verdict = ADMIT
        with pytest.raises(AttributeError):
            d.retry_after = 5

    def test_equal_fields_compare_equal(self):
        assert GateDecision(DENY, 612, NEW_SESSION) == GateDecision(DENY, 612, NEW_SESSION)
        assert GateDecision(DENY, 612, NEW_SESSION) != GateDecision(DENY, 613, NEW_SESSION)
        assert GateDecision(DELAY, 1, NEW_SESSION, 2) != GateDecision(DELAY, 1, NEW_SESSION)

    def test_retry_after_defaults_to_none(self):
        assert GateDecision(ADMIT, 5, IN_PROGRESS).retry_after is None

    def test_admitted_reads_the_verdict(self):
        assert GateDecision(ADMIT, 5, IN_PROGRESS).admitted
        assert not GateDecision(DENY, 5, NEW_SESSION).admitted
        assert not GateDecision(DELAY, 5, NEW_SESSION, 1).admitted


class TestPolicyValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            GatePolicy(threshold=0)

    def test_mode_must_be_known(self):
        with pytest.raises(ValueError):
            GatePolicy(threshold=10, mode="drop")

    def test_delay_amount_must_be_non_negative(self):
        with pytest.raises(ValueError):
            GatePolicy(threshold=10, mode=DELAY, delay_amount=-1)

    @pytest.mark.parametrize("field", ["threshold", "delay_amount"])
    @pytest.mark.parametrize("value", [True, 600.0, 2.5, "600"])
    def test_int_fields_reject_other_types(self, field, value):
        fields = {"threshold": 600, "mode": DELAY, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {type(value).__name__}$"):
            GatePolicy(**fields)


class TestValueContracts:
    """GatePolicy and GateStats behave as the field values they hold."""

    def test_policies_compare_by_their_fields(self):
        assert GatePolicy(600) == GatePolicy(threshold=600, mode=DENY, delay_amount=0)
        assert GatePolicy(600) != GatePolicy(601)
        assert GatePolicy(600, DELAY) != GatePolicy(600, DENY)
        assert GatePolicy(600, DELAY, 5) != GatePolicy(600, DELAY, 6)
        assert GatePolicy(600) != (600, DENY, 0)

    def test_equal_policies_hash_equal(self):
        assert hash(GatePolicy(600, DELAY, 5)) == hash(GatePolicy(600, DELAY, 5))
        assert len({GatePolicy(600), GatePolicy(600), GatePolicy(601)}) == 2

    def test_policy_repr(self):
        assert repr(GatePolicy(600)) == "GatePolicy(threshold=600, mode='deny', delay_amount=0)"

    @pytest.mark.parametrize("field", ["threshold", "mode", "delay_amount"])
    def test_policy_fields_cannot_be_assigned(self, policy, field):
        with pytest.raises(AttributeError):
            setattr(policy, field, getattr(policy, field))
        assert policy == GatePolicy(600)

    def test_policy_signature(self):
        params = inspect.signature(GatePolicy).parameters
        assert list(params) == ["threshold", "mode", "delay_amount"]
        assert params["threshold"].default is inspect.Parameter.empty
        assert (params["mode"].default, params["delay_amount"].default) == ("deny", 0)

    def test_stats_start_at_zero_and_take_keyword_counts(self):
        fresh = GateStats()
        assert (fresh.admitted, fresh.denied, fresh.delayed) == (0, 0, 0)
        stats = GateStats(admitted=3, denied=2, delayed=1)
        assert (stats.admitted, stats.denied, stats.delayed) == (3, 2, 1)

    def test_stats_compare_by_value(self):
        assert GateStats(3, 2, 1) == GateStats(admitted=3, denied=2, delayed=1)
        assert GateStats(3, 2, 1) != GateStats(3, 2, 0)
        assert GateStats() != (0, 0, 0)
        with pytest.raises(TypeError):  # mutable counts have no hash
            hash(GateStats())

    def test_stats_repr(self):
        assert repr(GateStats(admitted=3, denied=2, delayed=1)) == (
            "GateStats(admitted=3, denied=2, delayed=1)")


class TestGateStats:
    def test_counts_partition_the_decisions(self, policy):
        stats = GateStats()
        delay_policy = GatePolicy(threshold=600, mode=DELAY, delay_amount=5)
        stats.record(decide(policy, 700, NEW_SESSION))
        stats.record(decide(policy, 100, NEW_SESSION))
        stats.record(decide(delay_policy, 700, NEW_SESSION))
        stats.record(decide(policy, 700, IN_PROGRESS))
        assert (stats.admitted, stats.denied, stats.delayed) == (2, 1, 1)
        assert stats.decisions == 4

    def test_summary_line(self):
        stats = GateStats(admitted=3, denied=2, delayed=1)
        assert stats.summary() == "admitted=3 denied=2 delayed=1 decisions=6"


class TestCongestionGate:
    def test_fresh_gate_admits_the_first_sample(self, policy):
        gate = CongestionGate(IntSmoother(clock=ManualClock(0)), policy)
        d = gate.observe_and_decide(571)
        assert d.verdict == ADMIT
        assert d.forecast_at_decision == 571

    def test_one_smoother_update_per_decision(self, policy):
        smoother = IntSmoother(clock=ManualClock(0))
        gate = CongestionGate(smoother, policy)
        for i, x in enumerate((571, 565, 564), start=1):
            gate.observe_and_decide(x)
            assert smoother.n == i

    def test_canonical_replay_denies_exactly_the_over_threshold_rows(self, policy):
        gate = CongestionGate(IntSmoother(clock=ManualClock(0)), policy)
        denied_at = [
            t
            for t, x in enumerate(CANONICAL_VALUES, start=1)
            if gate.observe_and_decide(x).verdict == DENY
        ]
        expected = [row[0] for row in CANONICAL_TRACE if row[2] > 600]
        assert denied_at == expected
        assert gate.stats.denied == len(expected)
        assert gate.stats.decisions == len(CANONICAL_VALUES)

    def test_unknown_request_kind_leaves_the_gate_untouched(self):
        smoother = IntSmoother(3, clock=ManualClock())
        gate = CongestionGate(smoother, GatePolicy(100))
        gate.observe_and_decide(50)
        before = vars(smoother).copy(), vars(gate.stats).copy()
        with pytest.raises(ValueError, match="^unknown request kind 'bogus'$"):
            gate.observe_and_decide(5000, "bogus")
        assert (vars(smoother), vars(gate.stats)) == before
        assert (smoother.n, smoother.forecast) == (1, 50)

    @pytest.mark.parametrize("bad", [600, None, "600", (600, DENY, 0)])
    def test_a_policy_that_is_not_a_gate_policy_is_refused_at_construction(self, bad):
        smoother = IntSmoother(3, clock=ManualClock())
        with pytest.raises(TypeError, match=f"^policy must be a GatePolicy, got {type(bad).__name__}$"):
            CongestionGate(smoother, bad)
        assert (smoother.n, smoother.s1, smoother.s2) == (0, 0, 0)


    @pytest.mark.parametrize("kind", [NEW_SESSION, IN_PROGRESS])
    def test_a_kind_built_at_run_time_gates_as_the_constant(self, kind):
        built = "".join(list(kind))
        assert built == kind and built is not kind
        gates = [CongestionGate(IntSmoother(3, clock=ManualClock()), GatePolicy(600))
                 for _ in range(2)]
        for x in CANONICAL_VALUES:
            assert gates[0].observe_and_decide(x, built) == gates[1].observe_and_decide(x, kind)
        assert gates[0].stats == gates[1].stats

    @pytest.mark.parametrize("kind", [None, b"new_session", "NEW_SESSION"])
    @pytest.mark.parametrize("x", [599, 601])
    def test_a_kind_that_only_resembles_one_leaves_the_gate_untouched(self, kind, x):
        # A fresh smoother's first forecast is its observation: x sits
        # below or above the threshold.
        gate = CongestionGate(IntSmoother(3, clock=ManualClock()), GatePolicy(600))
        with pytest.raises(ValueError, match=f"^unknown request kind {re.escape(repr(kind))}$"):
            gate.observe_and_decide(x, kind)
        assert (gate.smoother.n, gate.stats.decisions) == (0, 0)


class TestDecisionObjects:
    @pytest.mark.parametrize("policy,forecast,kind", [
        (GatePolicy(600), 599, NEW_SESSION),
        (GatePolicy(600), 601, NEW_SESSION),
        (GatePolicy(600), 601, IN_PROGRESS),
        (GatePolicy(600, DELAY, 7), 601, NEW_SESSION),
    ])
    def test_decide_returns_the_named_tuple_its_constructor_builds(self, policy, forecast, kind):
        d = decide(policy, forecast, kind)
        assert type(d) is GateDecision
        retry_after = policy.delay_amount if d.verdict == DELAY else None
        assert d == GateDecision(d.verdict, forecast, kind, retry_after)
        assert d._asdict() == {"verdict": d.verdict, "forecast_at_decision": forecast,
                               "request_kind": kind, "retry_after": retry_after}


def reaction_table() -> str:
    """The README's table of the gate's reaction to a step from 200 up to
    1000 and back: 4n events at 200, 6n at 1000, then 8n at 200, one per
    second, for each ``n_alpha`` n.  "Refuses after" counts the high events
    up to the first refusal and "Admits again after" the low events up to
    the first admission; the peak and trough are the integer forecast's,
    with ``FloatSmoother(1/n)``'s peak, rounded, in brackets."""
    lines = [REACTION_HEADER, "|---|---|---|---|---|"]
    for n in (2, 3, 5, 10, 20):
        clock = ManualClock(0)
        smoother = IntSmoother(n_alpha=n, reset_interval=5, clock=clock)
        twin = FloatSmoother(1 / n)
        forecasts, twin_peak = [], 0.0
        for x in [200] * (4 * n) + [1000] * (6 * n) + [200] * (8 * n):
            clock.advance(1)
            forecasts.append(smoother.update(x))
            twin_peak = max(twin_peak, twin.update(x))
        high, low = forecasts[4 * n:10 * n], forecasts[10 * n:]
        refuses, admits = [], []
        for threshold in (400, 600, 800):
            policy = GatePolicy(threshold)
            refuses.append(next(i for i, f in enumerate(high, 1)
                                if not decide(policy, f).admitted))
            admits.append(next(i for i, f in enumerate(low, 1) if decide(policy, f).admitted))
        lines.append(f"| {n} | {' / '.join(map(str, refuses))} | {' / '.join(map(str, admits))} "
                     f"| {max(forecasts)} ({round(twin_peak)}) | {min(forecasts)} |")
    return "\n".join(lines) + "\n"


def test_the_readme_reaction_table_is_what_the_gate_does():
    readme = README.read_text(encoding="utf-8")
    start = readme.index(REACTION_HEADER)
    assert readme[start:readme.index("\n\n", start) + 1] == reaction_table()
