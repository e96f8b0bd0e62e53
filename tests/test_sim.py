import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgate import (
    ADMIT,
    NEW_SESSION,
    GateDecision,
    GatePolicy,
    IntSmoother,
    ManualClock,
    Scenario,
    TraceRow,
    generate,
    read_pairs,
    run,
)

from oracles import read_pairs_reference
from tables import CANONICAL_TRACE, CANONICAL_VALUES, FLOAT_TABLE, RESET_TRACE


def ramp_scenario(**overrides):
    base = dict(kind="ramp", length=25, level=0, slope=10,
                pause_after=11, pause_gap=6)
    base.update(overrides)
    return Scenario(**base)


class TestGenerators:
    def test_ramp_values(self):
        events = generate(Scenario(kind="ramp", length=25, level=0, slope=10))
        assert [x for _, x in events] == [10 * (t - 1) for t in range(1, 26)]
        assert events[-1][1] == 240

    def test_constant_values(self):
        events = generate(Scenario(kind="constant", length=7, level=100))
        assert [x for _, x in events] == [100] * 7

    def test_step_matches_the_golden_series(self):
        events = generate(Scenario(kind="step", length=20, level=100, high=200, switch_at=3))
        assert [x for _, x in events] == [row[1] for row in FLOAT_TABLE]

    def test_burst_window(self):
        events = generate(
            Scenario(kind="burst", length=10, level=50, high=900, switch_at=4, burst_len=3)
        )
        assert [x for _, x in events] == [50, 50, 50, 900, 900, 900, 50, 50, 50, 50]

    def test_replay_passthrough(self):
        s = Scenario(kind="replay", values=(3, 1, 4, 1, 5))
        assert s.length == 5
        assert [x for _, x in generate(s)] == [3, 1, 4, 1, 5]

    def test_event_spacing_and_pause(self):
        events = generate(Scenario(kind="constant", length=5, level=1,
                                   pause_after=3, pause_gap=9, spacing=2))
        assert [t for t, _ in events] == [0, 2, 4, 13, 15]

    def test_uniform_jitter_is_reproducible(self):
        s = Scenario(kind="constant", length=50, level=100,
                     jitter="uniform", jitter_scale=30, seed=11)
        first = generate(s)
        assert first == generate(s)
        assert any(x != 100 for _, x in first)
        assert all(100 <= x <= 130 for _, x in first)

    def test_exponential_jitter_is_non_negative(self):
        s = Scenario(kind="constant", length=50, level=10,
                     jitter="exponential", jitter_scale=20, seed=3)
        assert all(x >= 10 for _, x in generate(s))

    def test_different_seeds_differ(self):
        a = Scenario(kind="constant", length=50, level=0, jitter="uniform",
                     jitter_scale=100, seed=1)
        b = Scenario(kind="constant", length=50, level=0, jitter="uniform",
                     jitter_scale=100, seed=2)
        assert generate(a) != generate(b)


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Scenario(kind="sawtooth")

    def test_pause_must_fall_inside_the_run(self):
        with pytest.raises(ValueError):
            Scenario(kind="constant", length=5, level=1, pause_after=5, pause_gap=2)

    def test_replay_needs_values(self):
        with pytest.raises(ValueError):
            Scenario(kind="replay")

    def test_ramp_may_not_go_negative(self):
        with pytest.raises(ValueError):
            Scenario(kind="ramp", length=10, level=0, slope=-5)

    def test_synthetic_latencies_are_non_negative(self):
        with pytest.raises(ValueError):
            Scenario(kind="constant", length=3, level=-1)

    def test_jitter_needs_a_scale(self):
        with pytest.raises(ValueError):
            Scenario(kind="constant", length=3, level=1, jitter="uniform")


class TestRun:
    def test_reset_scenario_reproduces_the_golden_table(self):
        trace = run(ramp_scenario(), n_alpha=5, reset_interval=5)
        rows = [(r.t, r.observe, r.forecast, r.n, r.s1, r.s2, r.a, r.b) for r in trace.rows]
        assert rows == RESET_TRACE

    def test_canonical_replay_matches_the_golden_forecasts(self):
        trace = run(Scenario(kind="replay", values=tuple(CANONICAL_VALUES)), n_alpha=10)
        assert trace.forecasts() == [row[2] for row in CANONICAL_TRACE]

    def test_runner_adds_no_hidden_state(self):
        scenario = ramp_scenario(pause_gap=4)  # below the reset interval
        trace = run(scenario, n_alpha=5, reset_interval=5)
        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=5, reset_interval=5, clock=clock)
        direct = []
        for when, x in generate(scenario):
            clock.now = when
            direct.append(sm.update(x))
        assert trace.forecasts() == direct

    def test_pause_longer_than_the_interval_restarts(self):
        trace = run(ramp_scenario(pause_gap=6), n_alpha=5, reset_interval=5)
        row = trace.rows[11]
        assert (row.n, row.forecast, row.observe) == (1, 110, 110)

    def test_pause_at_the_interval_continues(self):
        trace = run(ramp_scenario(pause_gap=5), n_alpha=5, reset_interval=5)
        assert trace.rows[11].n == 5

    def test_gate_decisions_do_not_perturb_the_smoother(self):
        scenario = Scenario(kind="replay", values=tuple(CANONICAL_VALUES))
        plain = run(scenario, n_alpha=10)
        gated = run(scenario, n_alpha=10, policy=GatePolicy(threshold=600))
        assert plain.forecasts() == gated.forecasts()
        assert plain.stats is None
        assert gated.stats is not None
        assert all(r.decision is None for r in plain.rows)
        assert all(r.decision is not None for r in gated.rows)

    def test_gated_replay_counts_denials(self):
        trace = run(
            Scenario(kind="replay", values=tuple(CANONICAL_VALUES)),
            n_alpha=10,
            policy=GatePolicy(threshold=600),
        )
        expected = sum(1 for row in CANONICAL_TRACE if row[2] > 600)
        assert trace.stats.denied == expected
        assert trace.stats.decisions == len(CANONICAL_VALUES)

    def test_trace_rows_are_contiguous_from_one(self):
        trace = run(Scenario(kind="constant", length=9, level=5))
        assert [r.t for r in trace.rows] == list(range(1, 10))


class TestTraceRowValue:
    def test_fields_cannot_be_assigned(self):
        row = run(Scenario(kind="constant", length=3, level=5)).rows[0]
        with pytest.raises(AttributeError):
            row.forecast = 0
        with pytest.raises(AttributeError):
            row.decision = None

    def test_equal_fields_compare_equal(self):
        a = run(Scenario(kind="constant", length=3, level=5)).rows
        b = run(Scenario(kind="constant", length=3, level=5)).rows
        assert a == b
        assert a[0] == TraceRow(1, 5, 5, 1, 5, 5, 5, 0)
        assert a[0] != a[1]

    def test_decision_defaults_to_none(self):
        assert TraceRow(1, 5, 5, 1, 5, 5, 5, 0).decision is None

    def test_decision_of_a_gated_row_reports_admitted(self):
        row = run(Scenario(kind="constant", length=1, level=5),
                  policy=GatePolicy(threshold=10)).rows[0]
        assert row.decision == GateDecision(ADMIT, 5, NEW_SESSION)
        assert row.decision.admitted


class TestTraceSerialization:
    def test_csv_is_deterministic(self):
        scenario = Scenario(kind="burst", length=40, level=100, high=900,
                            switch_at=10, burst_len=5, jitter="uniform",
                            jitter_scale=25, seed=7)
        a = run(scenario, policy=GatePolicy(threshold=400)).to_csv()
        b = run(scenario, policy=GatePolicy(threshold=400)).to_csv()
        assert a == b

    def test_csv_columns(self):
        trace = run(Scenario(kind="constant", length=2, level=5))
        lines = trace.to_csv().splitlines()
        assert lines[0] == "count,observe,forecast,diff,diffsum,n,stx1,stx2,at,bt"
        assert lines[1] == "1,5,5,0,0,1,5,5,5,0"

    def test_gated_csv_appends_the_verdict(self):
        trace = run(Scenario(kind="constant", length=2, level=5),
                    policy=GatePolicy(threshold=3))
        lines = trace.to_csv().splitlines()
        assert lines[0].endswith(",decision")
        assert lines[1].endswith(",deny")


class TestReadPairs:
    def test_parses_count_value_lines(self):
        assert read_pairs("1 571\n2 565\n") == [(1, 571), (2, 565)]

    def test_stops_at_the_first_non_integer(self):
        assert read_pairs("1 10\n2 20\nEOF marker\n3 30") == [(1, 10), (2, 20)]

    def test_drops_an_unpaired_trailing_integer(self):
        assert read_pairs("1 10 2") == [(1, 10)]

    def test_accepts_signs_and_arbitrary_whitespace(self):
        assert read_pairs(" 1\t-5\n\n2   +7 ") == [(1, -5), (2, 7)]


_SIGNS = st.sampled_from(["", "+", "-"])
_ASCII_INTS = st.builds(lambda sign, v: sign + str(v), _SIGNS, st.integers(0, 10**15))
_UNICODE_INTS = st.builds(
    lambda sign, digits: sign + digits,
    _SIGNS,
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=8),
)
_UNDERSCORED = st.sampled_from(["1_000", "-2_5", "+1_0_0", "_1", "1_", "1__0", "_"])
_ODD_TOKENS = st.sampled_from(
    ["+", "-", "9" * 4400, "-" + "7" * 4400, "x", "1.5", "0x10", "1e3", "\u00bd", "3a", "--1"]
)
_TOKENS = st.one_of(_ASCII_INTS, _ASCII_INTS, _UNICODE_INTS, _UNDERSCORED, _ODD_TOKENS)
_SEPARATORS = st.sampled_from([" ", "\t", "\n", "\r\n", "\x1c", "\x0b\x0c", "\u2003", "  \n"])


@st.composite
def token_streams(draw):
    tokens = draw(st.lists(_TOKENS, max_size=12))
    seps = draw(st.lists(_SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(tok + sep for tok, sep in zip(tokens, seps[1:]))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


class TestReadPairsMatchesTheTokenLoop:
    @settings(max_examples=400, deadline=None)
    @given(token_streams())
    @example("1 1_000 2 3")
    @example("1_000 5\n2 7")
    @example("1 2 + 3")
    @example("1 2 3 " + "9" * 4400)
    @example("\u0661\u0662 -\u0663 +\u0b6a 5 x 6 7")
    @example("1\t2\r\n3\x1c4\x1c5")
    def test_same_pairs_or_same_exception(self, text):
        assert _outcome(read_pairs, text) == _outcome(read_pairs_reference, text)
