import inspect
import io
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgate import (
    ADMIT,
    GENERATOR_KINDS,
    NEW_SESSION,
    CongestionGate,
    GateDecision,
    GatePolicy,
    IntSmoother,
    ManualClock,
    Scenario,
    TraceRow,
    generate,
    read_pairs,
    run,
    sim,
)

from oracles import generate_reference, read_pairs_reference
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

    def test_replay_has_no_generator_formula(self):
        with pytest.raises(ValueError, match="no generator formula"):
            Scenario(kind="replay", values=(3, 1)).value_at(1)

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


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(GENERATOR_KINDS))
    length = draw(st.integers(1, 30))
    fields = dict(kind=kind, spacing=draw(st.integers(0, 3)), seed=draw(st.integers(0, 5)))
    if kind == "replay":
        fields["values"] = tuple(draw(st.lists(st.integers(-10**6, 10**6),
                                               min_size=length, max_size=length)))
    else:
        level = draw(st.integers(0, 500))
        # A ramp may not fall below zero by its last event.
        least_slope = -(level // (length - 1)) if length > 1 else -50
        fields.update(length=length, level=level, high=draw(st.integers(0, 900)),
                      switch_at=draw(st.integers(1, length + 1)),
                      burst_len=draw(st.integers(1, length)),
                      slope=draw(st.integers(least_slope, 50)))
    if length > 1:
        pause_after = draw(st.one_of(st.sampled_from([None, 1, length - 1]),
                                     st.integers(1, length - 1)))
        if pause_after is not None:
            fields.update(pause_after=pause_after, pause_gap=draw(st.integers(0, 9)))
    jitter = draw(st.sampled_from([None, "uniform", "exponential"]))
    if jitter is not None:
        fields.update(jitter=jitter, jitter_scale=draw(st.integers(1, 60)))
    return Scenario(**fields)


class TestGenerateMatchesTheEventLoop:
    @settings(max_examples=400, deadline=None)
    @given(scenarios())
    @example(Scenario(kind="constant", length=1, level=7))
    @example(Scenario(kind="replay", values=(5,), jitter="exponential", jitter_scale=9))
    @example(Scenario(kind="ramp", length=6, level=3, slope=2, spacing=3,
                      pause_after=1, pause_gap=0))
    @example(Scenario(kind="step", length=6, level=3, high=9, switch_at=4, spacing=0,
                      pause_after=5, pause_gap=4, jitter="uniform", jitter_scale=5, seed=2))
    @example(Scenario(kind="burst", length=8, level=1, high=50, switch_at=3, burst_len=2,
                      spacing=2, pause_after=4, pause_gap=7, jitter="exponential",
                      jitter_scale=30, seed=4))
    def test_same_events(self, scenario):
        assert generate(scenario) == generate_reference(scenario)


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

    def test_a_ramp_may_end_at_zero(self):
        # The bound is the last value, level + slope*(length-1): 4 down to 0
        # fits five events, and a sixth would be -1.
        assert generate(Scenario(kind="ramp", level=4, slope=-1, length=5))[-1] == (4, 0)
        with pytest.raises(ValueError, match="^ramp leaves the non-negative range$"):
            Scenario(kind="ramp", level=4, slope=-1, length=6)

    @pytest.mark.parametrize("fields,message", [
        (dict(kind="constant", level=-1), "level must be >= 0, got -1"),
        (dict(kind="step", high=-1), "high must be >= 0, got -1"),
        (dict(kind="burst", high=-1, burst_len=1), "high must be >= 0, got -1"),
    ])
    def test_synthetic_latencies_are_non_negative(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Scenario(length=3, **fields)

    def test_jitter_needs_a_scale(self):
        with pytest.raises(ValueError):
            Scenario(kind="constant", length=3, level=1, jitter="uniform")

    @pytest.mark.parametrize("fields,message", [
        (dict(spacing=-1), "spacing must be >= 0, got -1"),
        (dict(pause_after=2, pause_gap=-1), "pause_gap must be >= 0, got -1"),
        (dict(jitter="gaussian", jitter_scale=5), "jitter must be one of"),
        (dict(jitter="uniform", jitter_scale=0), "jitter_scale must be >= 1, got 0"),
        (dict(kind="burst", burst_len=0), "burst_len must be >= 1, got 0"),
        (dict(values=(5, 5)), "values are for replay scenarios, got kind 'constant'"),
    ])
    def test_out_of_range_fields_are_refused(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            Scenario(**{"kind": "constant", "length": 4, **fields})

    @pytest.mark.parametrize("field", ["length", "level", "high", "switch_at", "slope",
                                       "burst_len", "pause_after", "pause_gap", "spacing",
                                       "jitter_scale", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, 2.5, "2"])
    def test_int_fields_reject_other_types(self, field, value):
        fields = {"kind": "burst", "length": 6, "burst_len": 1, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {type(value).__name__}$"):
            Scenario(**fields)

    @pytest.mark.parametrize("value", [1.5, True, "2", None])
    def test_replay_values_must_be_ints(self, value):
        with pytest.raises(TypeError, match=f"^values must be an int, got {type(value).__name__}$"):
            Scenario(kind="replay", values=(3, value, 4))

    def test_a_non_int_value_deep_in_the_replay_is_refused(self):
        values = [5] * 5000
        values[3999] = True
        values[4500] = 1.5  # the first offender is the one named
        with pytest.raises(TypeError, match="^values must be an int, got bool$"):
            Scenario(kind="replay", values=tuple(values))

    def test_an_exponential_jitter_scale_past_the_float_range_is_refused(self):
        # The largest exponential draw is ~36.7 times the scale, computed in
        # floats: 10**400 raised OverflowError in generate.
        for scale in (10**400, 2**1018 + 1):
            with pytest.raises(ValueError, match=r"^jitter_scale must be <= 2\*\*1018 for "
                                                 r"exponential jitter, got \d+$"):
                Scenario(kind="constant", jitter="exponential", jitter_scale=scale)
        Scenario(kind="constant", jitter="uniform", jitter_scale=10**400)

    def test_the_largest_exponential_jitter_scale_draws_finite_values(self, monkeypatch):
        # random() at its largest, 1 - 2**-53, gives the largest draw.
        monkeypatch.setattr(random.Random, "random", lambda self: 1 - 2**-53)
        scenario = Scenario(kind="constant", length=2, jitter="exponential",
                            jitter_scale=2**1018)
        assert all(x > 2**1022 for _, x in generate(scenario))

    def test_fractional_seconds_are_refused_not_truncated(self):
        # A 5.5 s gap used to read as 6.5 on the clock, truncated to 6.
        with pytest.raises(TypeError, match="^pause_gap must be an int, got float$"):
            Scenario(kind="constant", length=4, level=5, pause_after=2, pause_gap=5.5)
        with pytest.raises(TypeError, match="^spacing must be an int, got float$"):
            Scenario(kind="constant", spacing=0.5)


class TestScenarioValue:
    """A Scenario behaves as the field values it holds."""

    def test_match_args_list_the_parameters_in_order(self):
        params = inspect.signature(Scenario).parameters
        assert Scenario.__match_args__ == tuple(params) == (
            "kind", "length", "level", "high", "switch_at", "slope", "burst_len", "values",
            "pause_after", "pause_gap", "spacing", "jitter", "jitter_scale", "seed")
        assert params["kind"].default is inspect.Parameter.empty
        assert {name: p.default for name, p in params.items() if name != "kind"} == dict(
            length=25, level=0, high=0, switch_at=1, slope=0, burst_len=0, values=(),
            pause_after=None, pause_gap=0, spacing=1, jitter=None, jitter_scale=0, seed=0)

    def test_scenarios_compare_and_hash_by_their_fields(self):
        a = Scenario(kind="ramp", slope=3)
        assert a == Scenario("ramp", 25, 0, 0, 1, 3)
        assert a != Scenario(kind="ramp", slope=4)
        assert a != ("ramp", 25, 0, 0, 1, 3, 0, (), None, 0, 1, None, 0, 0)
        assert hash(a) == hash(Scenario(kind="ramp", slope=3))
        assert len({a, Scenario(kind="ramp", slope=3), Scenario(kind="step")}) == 2
        assert Scenario(kind="replay", values=(4, 5)) == Scenario(kind="replay", values=(4, 5),
                                                                  length=9)

    def test_scenario_repr(self):
        assert repr(Scenario(kind="replay", values=(4, 5))) == (
            "Scenario(kind='replay', length=2, level=0, high=0, switch_at=1, slope=0, "
            "burst_len=0, values=(4, 5), pause_after=None, pause_gap=0, spacing=1, "
            "jitter=None, jitter_scale=0, seed=0)")

    @pytest.mark.parametrize("field", ["kind", "length", "values", "seed"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        scenario = Scenario(kind="constant", level=5)
        with pytest.raises(AttributeError):
            setattr(scenario, field, getattr(scenario, field))
        with pytest.raises(AttributeError):
            delattr(scenario, field)
        assert scenario == Scenario(kind="constant", level=5)

    def test_match_binds_the_fields_by_position(self):
        match Scenario(kind="burst", length=9, level=2, high=7, burst_len=3):
            case Scenario("burst", length, level, high):
                assert (length, level, high) == (9, 2, 7)
            case _:
                pytest.fail("no match")


class TestRun:
    @pytest.mark.parametrize("args,options,message", [
        (("ramp",), {}, "scenario must be a Scenario, got str"),
        ((None,), {}, "scenario must be a Scenario, got NoneType"),
        ((Scenario(kind="ramp"),), {"policy": 600}, "policy must be a GatePolicy or None, got int"),
        ((Scenario(kind="ramp"),), {"policy": (600, "deny", 0)},
         "policy must be a GatePolicy or None, got tuple"),
        ((Scenario(kind="ramp"),), {"n_alpha": 2.0}, "n_alpha must be an int, got float"),
    ])
    def test_arguments_of_the_wrong_type_are_refused_at_the_call(self, args, options, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            run(*args, **options)

    @pytest.mark.parametrize("options,message", [
        ({"n_alpha": 0}, "n_alpha must be >= 1, got 0"),
        ({"reset_interval": -1}, "reset_interval must be >= 0, got -1"),
    ])
    def test_out_of_range_smoother_options_are_refused_at_the_call(self, options, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(Scenario(kind="ramp"), **options)

    def test_reset_scenario_reproduces_the_golden_table(self):
        trace = run(ramp_scenario(), n_alpha=5, reset_interval=5)
        rows = [(r.t, r.observe, r.forecast, r.n, r.s1, r.s2, r.a, r.b) for r in trace.rows]
        assert rows == RESET_TRACE

    def test_canonical_replay_matches_the_golden_forecasts(self):
        trace = run(Scenario(kind="replay", values=tuple(CANONICAL_VALUES)), n_alpha=10)
        assert [r.forecast for r in trace.rows] == [row[2] for row in CANONICAL_TRACE]

    def test_runner_adds_no_hidden_state(self):
        scenario = ramp_scenario(pause_gap=4)  # below the reset interval
        trace = run(scenario, n_alpha=5, reset_interval=5)
        clock = ManualClock(0)
        sm = IntSmoother(n_alpha=5, reset_interval=5, clock=clock)
        direct = []
        for when, x in generate(scenario):
            clock.now = when
            direct.append(sm.update(x))
        assert [r.forecast for r in trace.rows] == direct

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
        assert [r.forecast for r in plain.rows] == [r.forecast for r in gated.rows]
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

    def test_run_is_the_trace_constructor_with_the_c_programs_defaults(self):
        # n_alpha 10 and reset_interval 5, on a ramp whose forecasts move
        # with either: its pause of 6 resets at 5 and not at 6.
        scenario = ramp_scenario()
        assert run is sim.SimTrace
        rows = run(scenario).rows
        assert rows == run(scenario, n_alpha=10, reset_interval=5).rows
        assert rows != run(scenario, n_alpha=11, reset_interval=5).rows
        assert rows != run(scenario, n_alpha=10, reset_interval=6).rows


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

    @pytest.mark.parametrize("policy", [None, GatePolicy(threshold=600)])
    def test_run_rows_are_trace_rows(self, policy):
        rows = run(Scenario(kind="replay", values=tuple(CANONICAL_VALUES)),
                   policy=policy).rows
        for row in rows:
            assert type(row) is TraceRow
            assert row == TraceRow(*row)
            assert tuple(getattr(row, name) for name in TraceRow._fields) == row
            assert (row.decision is None) == (policy is None)

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


class TestTraceIsMadeAsItIsRead:
    SCENARIO = Scenario(kind="replay", values=tuple(CANONICAL_VALUES), pause_after=12,
                        pause_gap=9)
    POLICY = GatePolicy(threshold=600, mode="delay", delay_amount=2)

    def test_run_returns_at_once_and_rows_are_made_on_first_read(self, monkeypatch):
        runs = []
        real = sim.generate
        monkeypatch.setattr(sim, "generate", lambda scenario: runs.append(1) or real(scenario))
        trace = run(self.SCENARIO, policy=self.POLICY)
        assert runs == []
        rows = trace.rows
        assert trace.rows is rows
        assert len(runs) == 1

    @pytest.mark.parametrize("policy", [None, POLICY])
    def test_every_iteration_yields_the_rows(self, policy):
        trace = run(self.SCENARIO, n_alpha=4, reset_interval=3, policy=policy)
        first = list(trace)
        assert len(first) == len(CANONICAL_VALUES)
        assert list(trace) == first == trace.rows
        assert all(type(row) is TraceRow for row in first)

    @pytest.mark.parametrize("policy", [None, POLICY])
    def test_csv_is_the_same_before_and_after_the_rows_are_read(self, policy):
        trace = run(self.SCENARIO, policy=policy)
        before = trace.to_csv()
        trace.rows
        assert trace.to_csv() == before
        assert before == run(self.SCENARIO, policy=policy).to_csv()

    def test_stats_are_those_of_a_gate_fed_the_same_events(self):
        clock = ManualClock()
        gate = CongestionGate(IntSmoother(n_alpha=10, reset_interval=5, clock=clock),
                              self.POLICY)
        for now, x in generate(self.SCENARIO):
            clock.now = now
            gate.observe_and_decide(x)
        stats_first = run(self.SCENARIO, policy=self.POLICY)
        stats = stats_first.stats
        csv_first = run(self.SCENARIO, policy=self.POLICY)
        csv_first.to_csv()
        assert stats == csv_first.stats == gate.stats
        assert stats.delayed > 0
        assert stats_first.to_csv() == csv_first.to_csv()
        assert run(self.SCENARIO).stats is None

    def test_stats_read_first_keep_no_row(self):
        rng = random.Random(6)
        values = tuple(int(rng.lognormvariate(6, 0.5)) for _ in range(20_000))
        scenario = Scenario(kind="replay", values=values)
        policy = GatePolicy(threshold=600)
        trace = run(scenario, policy=policy)
        tracemalloc.start()
        try:
            stats = trace.stats
            stats_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rows = run(scenario, policy=policy).rows
            rows_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "rows" not in vars(trace)
        assert stats.decisions == len(rows) == 20_000
        # At its peak stats holds generate's event list, which the rows'
        # run holds too.
        assert stats_peak < rows_peak / 2

    def test_a_gated_csv_keeps_no_row_per_event(self):
        # A lognormal replay long enough that per-event objects dominate:
        # a TraceRow and a GateDecision per event came to ~11 bytes per
        # CSV byte, formatting rows as they are made to ~4.3.
        rng = random.Random(5)
        values = tuple(int(rng.lognormvariate(6, 0.5)) for _ in range(20_000))
        scenario = Scenario(kind="replay", values=values, pause_after=10_000, pause_gap=9)
        policy = GatePolicy(threshold=600)
        tracemalloc.start()
        try:
            csv = run(scenario, policy=policy).to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csv.count("\n") == 20_001
        assert peak < 7 * len(csv)


def read_text(text):
    """The pairs ``read_pairs`` reads from the UTF-8 bytes of text."""
    return read_pairs(io.BytesIO(text.encode()))


class TestReadPairs:
    def test_parses_count_value_lines(self):
        assert read_text("1 571\n2 565\n") == [(1, 571), (2, 565)]

    def test_stops_at_the_first_non_integer(self):
        assert read_text("1 10\n2 20\nEOF marker\n3 30") == [(1, 10), (2, 20)]

    def test_drops_an_unpaired_trailing_integer(self):
        assert read_text("1 10 2") == [(1, 10)]

    def test_accepts_signs_and_arbitrary_whitespace(self):
        assert read_text(" 1\t-5\n\n2   +7 ") == [(1, -5), (2, 7)]

    @pytest.mark.parametrize("text,pairs", [
        ("2 12abc", [(2, 12)]),
        ("1 0x10", [(1, 0)]),
        ("1 1_0", [(1, 1)]),
        ("1 12-5 7", [(1, 12), (-5, 7)]),
        ("1 2 3 - 4 5", [(1, 2)]),
        ("1 2 +-3 4", [(1, 2)]),
        ("1 2\v3\f4", [(1, 2), (3, 4)]),
        ("1 \u0663 2 3", []),
        ("1 2\x1c3 4", [(1, 2)]),
        ("1 2\xa03 4", [(1, 2)]),
        ("1 2\x003 4", [(1, 2)]),
    ])
    def test_reads_integers_as_c_percent_d_does(self, text, pairs):
        # An integer ends at the first character that is not an ASCII
        # digit; only C-locale white space may come before the next one.
        assert read_text(text) == pairs

    @pytest.mark.parametrize("text,pairs", [
        ("1 2 -", [(1, 2)]),
        ("1 2 -a", [(1, 2)]),
        ("1+2 3-4", [(1, 2), (3, -4)]),
        ("1 2 3 4-", [(1, 2), (3, 4)]),
        ("9 8\x00 7 6", [(9, 8)]),
        ("5 +-3", []),
    ])
    def test_stops_where_a_sign_or_a_stray_character_ends_the_read(self, text, pairs):
        assert read_text(text) == pairs

    def test_long_signed_stream_with_glued_signs(self):
        rng = random.Random(9)
        parts = []
        for _ in range(10_000):
            sign = rng.choice(["", "+", "-"])
            # A signed integer may follow the previous one with no space.
            sep = rng.choice(["", " ", "\n"]) if sign else rng.choice([" ", "\t", "\n"])
            parts.append(sep + sign + str(rng.randrange(10**7)))
        text = "".join(parts)
        pairs = read_text(text)
        assert len(pairs) == 5_000
        assert pairs == read_pairs_reference(text)


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
    @example("2 12abc")
    @example("1 0x10")
    @example("1 1_0")
    @example("1 12-5")
    @example("1 \u0663")
    def test_same_pairs_or_same_exception(self, text):
        expected = _outcome(read_pairs_reference, text.encode().decode("latin-1"))
        assert _outcome(read_text, text) == expected
